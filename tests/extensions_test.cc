// Tests for the production-extension modules: set-similarity measures,
// extra clustering metrics (Fowlkes–Mallows, V-measure), labeler
// persistence through the sealed model bundle and checkpoint, and the ARFF
// reader.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <vector>

#include "core/checkpoint.h"
#include "core/labeling.h"
#include "core/model_bundle.h"
#include "data/arff_reader.h"
#include "data/disk_store.h"
#include "eval/metrics.h"
#include "similarity/set_measures.h"
#include "test_support.h"
#include "util/bytes.h"

namespace rock {
namespace {

// ------------------------------------------------------------ set measures --

TEST(SetMeasuresTest, KnownValues) {
  Transaction a({1, 2, 3});
  Transaction b({2, 3, 4, 5});
  // |∩| = 2.
  EXPECT_DOUBLE_EQ(DiceSimilarity(a, b), 2.0 * 2.0 / 7.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 2.0 / std::sqrt(12.0));
  EXPECT_DOUBLE_EQ(OverlapSimilarity(a, b), 2.0 / 3.0);
}

TEST(SetMeasuresTest, EdgeCases) {
  Transaction empty;
  Transaction one({7});
  EXPECT_DOUBLE_EQ(DiceSimilarity(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(empty, one), 0.0);
  EXPECT_DOUBLE_EQ(OverlapSimilarity(empty, one), 0.0);
  // Identical sets: all measures hit 1.
  Transaction s({1, 2});
  EXPECT_DOUBLE_EQ(DiceSimilarity(s, s), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(s, s), 1.0);
  EXPECT_DOUBLE_EQ(OverlapSimilarity(s, s), 1.0);
}

TEST(SetMeasuresTest, OverlapScoresSubsetsAsOne) {
  Transaction sub({1, 2});
  Transaction super({1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(OverlapSimilarity(sub, super), 1.0);
  EXPECT_LT(DiceSimilarity(sub, super), 1.0);
}

TEST(SetMeasuresTest, OrderingDiceGeJaccard) {
  // Dice ≥ Jaccard always; cosine between them for same-size sets.
  Transaction a({1, 2, 3, 4});
  Transaction b({3, 4, 5, 6});
  TransactionDataset ds;
  ds.AddTransaction(a);
  ds.AddTransaction(b);
  TransactionSetSimilarity jac(ds, SetMeasure::kJaccard);
  TransactionSetSimilarity dice(ds, SetMeasure::kDice);
  TransactionSetSimilarity cos(ds, SetMeasure::kCosine);
  TransactionSetSimilarity over(ds, SetMeasure::kOverlap);
  EXPECT_GT(dice.Similarity(0, 1), jac.Similarity(0, 1));
  EXPECT_GE(over.Similarity(0, 1), cos.Similarity(0, 1));
  EXPECT_DOUBLE_EQ(jac.Similarity(0, 1), 2.0 / 6.0);
}

TEST(SetMeasuresTest, SimpleMatching) {
  CategoricalDataset ds{Schema({"a", "b", "c", "d"})};
  ASSERT_TRUE(ds.AddRecord({"x", "y", "z", "w"}).ok());
  ASSERT_TRUE(ds.AddRecord({"x", "y", "q", "?"}).ok());
  SimpleMatchingSimilarity sim(ds);
  // 2 agreements over 4 attributes (missing counts as disagreement).
  EXPECT_DOUBLE_EQ(sim.Similarity(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(sim.Similarity(0, 0), 1.0);
}

// ----------------------------------------------------------- extra metrics --

ContingencyTable PerfectTable() {
  auto t = ContingencyTable::Build({0, 0, 1, 1}, {0, 0, 1, 1}, 2, 2);
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(ExtraMetricsTest, FowlkesMallowsPerfect) {
  EXPECT_NEAR(FowlkesMallows(PerfectTable()), 1.0, 1e-12);
}

TEST(ExtraMetricsTest, FowlkesMallowsKnownValue) {
  // One cluster holding both classes evenly: TP = 2·C(2,2) = 2,
  // cluster_pairs = C(4,2) = 6, class_pairs = 2 → FM = 2/√12.
  auto t = ContingencyTable::Build({0, 0, 0, 0}, {0, 1, 0, 1}, 1, 2);
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(FowlkesMallows(*t), 2.0 / std::sqrt(12.0), 1e-12);
}

TEST(ExtraMetricsTest, VMeasurePerfect) {
  const VMeasure v = ComputeVMeasure(PerfectTable());
  EXPECT_NEAR(v.homogeneity, 1.0, 1e-12);
  EXPECT_NEAR(v.completeness, 1.0, 1e-12);
  EXPECT_NEAR(v.v, 1.0, 1e-12);
}

TEST(ExtraMetricsTest, VMeasureHomogeneousButIncomplete) {
  // Each class split into two pure clusters: homogeneity 1, completeness
  // < 1.
  auto t = ContingencyTable::Build({0, 1, 2, 3}, {0, 0, 1, 1}, 4, 2);
  ASSERT_TRUE(t.ok());
  const VMeasure v = ComputeVMeasure(*t);
  EXPECT_NEAR(v.homogeneity, 1.0, 1e-12);
  EXPECT_LT(v.completeness, 1.0);
  EXPECT_GT(v.v, 0.0);
  EXPECT_LT(v.v, 1.0);
}

TEST(ExtraMetricsTest, VMeasureCompleteButInhomogeneous) {
  // One cluster holding everything: completeness 1, homogeneity 0.
  auto t = ContingencyTable::Build({0, 0, 0, 0}, {0, 0, 1, 1}, 1, 2);
  ASSERT_TRUE(t.ok());
  const VMeasure v = ComputeVMeasure(*t);
  EXPECT_NEAR(v.completeness, 1.0, 1e-12);
  EXPECT_NEAR(v.homogeneity, 0.0, 1e-12);
  EXPECT_NEAR(v.v, 0.0, 1e-12);
}

// ----------------------------------------------------- labeler persistence --
// A labeler reaches disk only inside a model bundle (core/model_bundle.h);
// the pipeline checkpoint persists the sample it is built from. Both are
// sealed files (util/bytes.h) sharing one envelope, one transaction-list
// serializer and one per-transaction item cap with the store.

class LabelerIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rock_labeler_" + std::to_string(::getpid()) + ".bin");
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path() + ".tmp");
    std::filesystem::remove(path() + ".append.tmp");
  }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

namespace {

/// A bundle frozen from a two-cluster labeler over a tiny sample.
ModelBundle SmallBundle() {
  TransactionDataset sample;
  sample.AddTransaction({"a", "b"});
  sample.AddTransaction({"b", "c"});
  sample.AddTransaction({"x", "y"});
  sample.AddTransaction({"y", "z"});
  RockOptions rock;
  rock.theta = 0.3;
  LabelingOptions opt;
  opt.fraction = 1.0;
  auto labeler = TransactionLabeler::Build(
      sample, Clustering::FromAssignment({0, 0, 1, 1}), rock, opt);
  EXPECT_TRUE(labeler.ok()) << labeler.status().ToString();
  ModelBundle bundle;
  bundle.theta = labeler->theta();
  bundle.f_exponent = labeler->f_exponent();
  for (size_t c = 0; c < labeler->num_clusters(); ++c) {
    bundle.labeling_sets.push_back(labeler->labeling_set(c));
  }
  return bundle;
}

/// A two-row checkpoint whose whole store is the sample.
PipelineCheckpoint SmallCheckpoint() {
  PipelineCheckpoint cp;
  cp.fingerprint.store_count = 2;
  cp.sample_rows = {0, 1};
  cp.sample = {Transaction({1, 2}), Transaction({3})};
  cp.clustering = Clustering::FromAssignment({0, 0});
  cp.assignments = {kUnassigned, kUnassigned};
  cp.ground_truth = {kNoLabel, kNoLabel};
  return cp;
}

}  // namespace

TEST_F(LabelerIoTest, LoadRejectsBitFlippedCounts) {
  // A count field forged to a huge value behind a recomputed CRC must be
  // refused by the loader's caps, not drive a huge allocation. Both
  // payloads open with the 11-field (88-byte) run fingerprint.
  constexpr size_t kAfterFingerprint =
      kSealedHeaderSize + 11 * sizeof(uint64_t);
  // Bundle: f64 theta, f64 f(θ), u64 cluster count, then the first
  // labeling set: u64 set size, u32 transaction length.
  constexpr size_t kClusters = kAfterFingerprint + 2 * sizeof(double);
  // Checkpoint: u64 row count, 2 × u64 rows, then the sample: u64 count,
  // u32 transaction length.
  constexpr size_t kSample = kAfterFingerprint + 3 * sizeof(uint64_t);
  struct Forgery {
    const char* field;
    bool bundle;
    size_t offset;
    uint64_t value;
    bool u32;
  };
  const Forgery forgeries[] = {
      {"cluster count", true, kClusters, 1ull << 62, false},
      {"labeling-set size", true, kClusters + 8, 1ull << 62, false},
      {"transaction length", true, kClusters + 16, 0xffffffffu, true},
      {"transaction length over the cap", true, kClusters + 16,
       kMaxTransactionItems + 1, true},
      {"sample count", false, kSample, 1ull << 62, false},
      {"sample transaction length", false, kSample + 8, 0xffffffffu, true},
  };
  ASSERT_TRUE(SaveModelBundle(SmallBundle(), path()).ok());
  auto bundle = ReadFileBytes(path());
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  ASSERT_TRUE(SaveCheckpoint(SmallCheckpoint(), path()).ok());
  auto checkpoint = ReadFileBytes(path());
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  for (const Forgery& f : forgeries) {
    SCOPED_TRACE(f.field);
    std::vector<uint8_t> bytes = f.bundle ? *bundle : *checkpoint;
    if (f.u32) {
      PatchAndReseal(bytes, f.offset, static_cast<uint32_t>(f.value));
    } else {
      PatchAndReseal(bytes, f.offset, f.value);
    }
    ASSERT_TRUE(WriteFileBytes(path(), bytes.data(), bytes.size()).ok());
    const Status s = f.bundle ? LoadModelBundle(path()).status()
                              : LoadCheckpoint(path()).status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
}

TEST_F(LabelerIoTest, SaveRejectsOversizeTransaction) {
  // Every writer shares one per-transaction cap with its loader and
  // refuses (never truncates) anything larger, before writing a byte.
  std::vector<ItemId> items(size_t{kMaxTransactionItems} + 1);
  std::iota(items.begin(), items.end(), ItemId{0});
  std::vector<Transaction> rows;
  rows.emplace_back(std::move(items));

  {
    auto writer = TransactionStoreWriter::Open(path());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(Transaction({1, 2})).ok());
    EXPECT_TRUE(writer->Append(rows[0]).IsInvalidArgument());
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto before = ReadFileBytes(path());
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  auto reader = TransactionStoreReader::Open(path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->count(), 1u) << "the refused row must leave no trace";
  EXPECT_TRUE(
      AppendToStore(path(), rows, nullptr).status().IsInvalidArgument());
  auto after = ReadFileBytes(path());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(*after == *before) << "a refused append must not touch the store";

  ModelBundle bundle = SmallBundle();
  bundle.labeling_sets[0].push_back(std::move(rows[0]));
  std::filesystem::remove(path());
  EXPECT_TRUE(SaveModelBundle(bundle, path()).IsInvalidArgument());
  EXPECT_FALSE(std::filesystem::exists(path()));

  PipelineCheckpoint cp = SmallCheckpoint();
  cp.sample[1] = std::move(bundle.labeling_sets[0].back());
  EXPECT_TRUE(SaveCheckpoint(cp, path()).IsInvalidArgument());
  EXPECT_FALSE(std::filesystem::exists(path()));
}

// ------------------------------------------------------------------- ARFF --

constexpr char kArff[] = R"(% UCI-style comment
@relation votes

@attribute 'handicapped-infants' {y, n}
@attribute crime {y, n}
@attribute class {republican, democrat}

@data
y,n,democrat
n,y,republican
?,y,republican
)";

TEST(ArffReaderTest, ParsesNominalFile) {
  auto ds = ReadArffString(kArff);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->size(), 3u);
  EXPECT_EQ(ds->schema().num_attributes(), 2u);
  EXPECT_EQ(ds->schema().attribute_name(0), "handicapped-infants");
  EXPECT_TRUE(ds->record(2).IsMissing(0));
  EXPECT_EQ(ds->labels().Name(ds->labels().label(0)), "democrat");
  EXPECT_EQ(ds->labels().num_classes(), 2u);
}

TEST(ArffReaderTest, NoLabelAttribute) {
  ArffOptions opt;
  opt.label_attribute = "";
  auto ds = ReadArffString(kArff, opt);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->schema().num_attributes(), 3u);
  EXPECT_TRUE(ds->labels().empty());
}

TEST(ArffReaderTest, RejectsNumericAttributes) {
  const std::string text =
      "@relation r\n@attribute age numeric\n@data\n42\n";
  EXPECT_TRUE(ReadArffString(text).status().IsInvalidArgument());
}

TEST(ArffReaderTest, RejectsOutOfDomainValue) {
  const std::string text =
      "@relation r\n@attribute c {a,b}\n@data\nz\n";
  EXPECT_TRUE(ReadArffString(text).status().IsCorruption());
}

TEST(ArffReaderTest, RejectsRaggedRow) {
  const std::string text =
      "@relation r\n@attribute c {a,b}\n@attribute d {a,b}\n@data\na\n";
  EXPECT_TRUE(ReadArffString(text).status().IsCorruption());
}

TEST(ArffReaderTest, RejectsMissingDataSection) {
  EXPECT_TRUE(ReadArffString("@relation r\n@attribute c {a}\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ReadArffString("@relation r\n@data\n").status().IsCorruption());
}

TEST(ArffReaderTest, MissingLabelValueIsUnlabeled) {
  const std::string text =
      "@relation r\n@attribute c {a,b}\n@attribute class {x,y}\n"
      "@data\na,?\nb,x\n";
  auto ds = ReadArffString(text);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->labels().label(0), kNoLabel);
  EXPECT_EQ(ds->labels().Name(ds->labels().label(1)), "x");
}

TEST(ArffReaderTest, FileNotFound) {
  EXPECT_TRUE(ReadArffFile("/no/such.arff").status().IsIOError());
}

}  // namespace
}  // namespace rock
