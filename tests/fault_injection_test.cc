// tests/fault_injection_test.cc — the fault-injection subsystem itself.
//
// Covers the failpoint schedule grammar (util/failpoint.h), the
// transient-retry backoff engine (util/retry.h), injected faults at every
// store and sealed-file I/O site, and a seeded corruption matrix proving
// that truncation, bit flips and appended garbage in store files always
// surface as Corruption/InvalidArgument — never a crash, never silent
// success (the sealed formats run the shared harness in test_support.h).
// The failpoint registry is process-global, so every fixture clears it on
// both sides of each test.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/checkpoint.h"
#include "core/labeling.h"
#include "core/model_bundle.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/disk_store.h"
#include "data/transaction.h"
#include "serve/model_handle.h"
#include "serve/stream.h"
#include "test_support.h"
#include "util/failpoint.h"
#include "util/retry.h"

namespace rock {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".bin"))
      .string();
}

std::vector<unsigned char> ReadAllBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<unsigned char> bytes;
  unsigned char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteAllBytes(const std::string& path,
                   const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// Three-group synthetic basket data: group g draws items from a disjoint
/// range, so the sample clusters cleanly and labeling is unambiguous.
TransactionDataset MakeGroupedDataset(size_t rows, uint64_t seed) {
  Rng rng(seed);
  TransactionDataset data;
  for (size_t i = 0; i < rows; ++i) {
    const uint32_t group = static_cast<uint32_t>(i % 3);
    std::vector<ItemId> items;
    const size_t k = 4 + static_cast<size_t>(rng.UniformUint64(4));
    for (size_t j = 0; j < k; ++j) {
      items.push_back(group * 100 +
                      static_cast<ItemId>(rng.UniformUint64(20)));
    }
    data.AddTransaction(Transaction(std::move(items)));
    data.labels().Append(std::string("g").append(std::to_string(group)));
  }
  return data;
}

/// A labeler built over `data` with one labeling set per group.
Result<TransactionLabeler> MakeGroupedLabeler(const TransactionDataset& data) {
  std::vector<ClusterIndex> assignment(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    assignment[i] = static_cast<ClusterIndex>(i % 3);
  }
  RockOptions rock;
  rock.theta = 0.1;
  LabelingOptions lab;
  lab.fraction = 1.0;
  lab.seed = 7;
  return TransactionLabeler::Build(
      data, Clustering::FromAssignment(std::move(assignment)), rock, lab);
}

/// Clears the process-global failpoint schedule around every test.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::Clear(); }
  void TearDown() override {
    fail::Clear();
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }

  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

// ---------------------------------------------------------------------------
// Schedule grammar.

TEST_F(FailpointTest, FireOnHitFiresExactlyOnce) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::Configure("x=fire_on_hit_2:error").ok());
  EXPECT_EQ(fail::Consult("x"), fail::Action::kNone);
  EXPECT_EQ(fail::Consult("x"), fail::Action::kError);
  EXPECT_EQ(fail::Consult("x"), fail::Action::kNone);
  EXPECT_EQ(fail::Consult("x"), fail::Action::kNone);
  EXPECT_EQ(fail::HitCount("x"), 4u);
  EXPECT_EQ(fail::FiredCount("x"), 1u);
}

TEST_F(FailpointTest, FireEveryFiresPeriodically) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::Configure("x=fire_every_2:short_read").ok());
  std::vector<fail::Action> got;
  for (int i = 0; i < 6; ++i) got.push_back(fail::Consult("x"));
  const std::vector<fail::Action> want = {
      fail::Action::kNone,      fail::Action::kShortRead,
      fail::Action::kNone,      fail::Action::kShortRead,
      fail::Action::kNone,      fail::Action::kShortRead};
  EXPECT_EQ(got, want);
  EXPECT_EQ(fail::FiredCount("x"), 3u);
}

TEST_F(FailpointTest, UnconfiguredSitesNeverFire) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::Configure("x=fire_on_hit_1:crash").ok());
  EXPECT_EQ(fail::Consult("y"), fail::Action::kNone);
  EXPECT_EQ(fail::FiredCount("y"), 0u);
}

TEST_F(FailpointTest, ConfigureReplacesScheduleAndResetsCounters) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::Configure("x=fire_on_hit_1:error").ok());
  EXPECT_EQ(fail::Consult("x"), fail::Action::kError);
  ASSERT_TRUE(fail::Configure("x=fire_on_hit_1:short_read").ok());
  EXPECT_EQ(fail::HitCount("x"), 0u) << "Configure must reset hit counters";
  EXPECT_EQ(fail::Consult("x"), fail::Action::kShortRead);
  ASSERT_TRUE(fail::Configure("").ok());
  EXPECT_EQ(fail::Consult("x"), fail::Action::kNone);
}

TEST_F(FailpointTest, MultiEntrySchedulesAndWhitespaceParse) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::Configure(" a = fire_on_hit_1 : error ; "
                              "b=fire_every_3:torn_write;")
                  .ok());
  EXPECT_EQ(fail::Consult("a"), fail::Action::kError);
  EXPECT_EQ(fail::Consult("b"), fail::Action::kNone);
  EXPECT_EQ(fail::Consult("b"), fail::Action::kNone);
  EXPECT_EQ(fail::Consult("b"), fail::Action::kTornWrite);
}

TEST_F(FailpointTest, GrammarErrorsAreInvalidArgument) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  const char* bad[] = {
      "x",                           // no '='
      "=fire_on_hit_1:error",        // empty site
      "x=fire_on_hit_1",             // missing ':action'
      "x=fire_on_hit_1:explode",     // unknown action
      "x=whenever:error",            // unknown trigger
      "x=fire_on_hit_:error",        // missing count
      "x=fire_on_hit_0:error",       // zero count
      "x=fire_every_0:error",        // zero count
      "x=fire_on_hit_9x:error",      // non-numeric count
      "x=fire_on_hit_1:error;x=fire_every_2:crash",  // duplicate site
  };
  for (const char* spec : bad) {
    Status s = fail::Configure(spec);
    EXPECT_TRUE(s.IsInvalidArgument()) << spec << " -> " << s.ToString();
  }
  // A failed Configure must not leave a partial schedule armed.
  EXPECT_EQ(fail::Consult("x"), fail::Action::kNone);
}

TEST_F(FailpointTest, FiredSnapshotListsOnlyFiredSites) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(
      fail::Configure("a=fire_on_hit_1:error;b=fire_on_hit_99:error").ok());
  (void)fail::Consult("a");
  (void)fail::Consult("b");
  auto snapshot = fail::FiredSnapshot();
  ASSERT_EQ(snapshot.count("a"), 1u);
  EXPECT_EQ(snapshot.at("a"), 1u);
  EXPECT_EQ(snapshot.count("b"), 0u);
}

TEST_F(FailpointTest, ConsultReadMapsActionsToStatusCodes) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::Configure("x=fire_on_hit_1:error").ok());
  EXPECT_TRUE(fail::ConsultRead("x").IsIOError());
  ASSERT_TRUE(fail::Configure("x=fire_on_hit_1:short_read").ok());
  EXPECT_TRUE(fail::ConsultRead("x").IsCorruption());
  ASSERT_TRUE(fail::Configure("x=fire_on_hit_1:crash").ok());
  Status crash = fail::ConsultRead("x");
  EXPECT_TRUE(crash.IsInternal());
  EXPECT_TRUE(fail::IsInjectedCrash(crash));
  EXPECT_FALSE(fail::IsInjectedCrash(Status::Internal("unrelated")));
  EXPECT_FALSE(fail::IsInjectedCrash(Status::OK()));
}

TEST_F(FailpointTest, ConsultWritePersistsTornPrefix) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string path = Track(TempPath("rock_torn_prefix"));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(fail::Configure("w=fire_on_hit_1:torn_write").ok());
  const char payload[10] = "123456789";
  Status s = fail::ConsultWrite("w", f, payload, sizeof(payload));
  std::fclose(f);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(fs::file_size(path), sizeof(payload) / 2)
      << "torn_write must persist exactly half the payload";
}

// ---------------------------------------------------------------------------
// Retry engine.

TEST(RetryTest, FirstTrySuccessDoesNotSleep) {
  std::vector<double> sleeps;
  RetryStats stats;
  Status s = RetryTransient(
      RetryPolicy{}, []() { return Status::OK(); }, &stats,
      [&](double ms) { sleeps.push_back(ms); });
  EXPECT_TRUE(s.ok());
  EXPECT_TRUE(sleeps.empty());
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(RetryTest, TransientFailuresBackOffExponentially) {
  std::vector<double> sleeps;
  RetryStats stats;
  int calls = 0;
  Status s = RetryTransient(
      RetryPolicy{},
      [&]() -> Status {
        return ++calls <= 2 ? Status::IOError("blip") : Status::OK();
      },
      &stats, [&](double ms) { sleeps.push_back(ms); });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_DOUBLE_EQ(stats.backoff_ms, 3.0);
}

TEST(RetryTest, PersistentFailureExhaustsWithCappedBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_ms = 1.0;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 4.0;
  std::vector<double> sleeps;
  RetryStats stats;
  Status s = RetryTransient(
      policy, []() { return Status::IOError("disk on fire"); }, &stats,
      [&](double ms) { sleeps.push_back(ms); });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(sleeps, (std::vector<double>{1.0, 2.0, 4.0, 4.0, 4.0}));
  EXPECT_EQ(stats.attempts, 6u);
  EXPECT_EQ(stats.retries, 5u);
  EXPECT_EQ(stats.exhausted, 1u);
}

TEST(RetryTest, CorruptionIsNotTransient) {
  std::vector<double> sleeps;
  RetryStats stats;
  int calls = 0;
  Status s = RetryTransient(
      RetryPolicy{},
      [&]() -> Status {
        ++calls;
        return Status::Corruption("bit rot");
      },
      &stats, [&](double ms) { sleeps.push_back(ms); });
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(RetryTest, InjectedCrashAbortsImmediately) {
  int calls = 0;
  Status s = RetryTransient(
      RetryPolicy{},
      [&]() -> Status {
        ++calls;
        return fail::InjectedCrash("test.site");
      },
      nullptr, [](double) { FAIL() << "crash must not back off"; });
  EXPECT_TRUE(fail::IsInjectedCrash(s));
  EXPECT_EQ(calls, 1) << "a simulated process death is never retried";
}

TEST(RetryTest, MergeAddsCounts) {
  RetryStats a{3, 2, 1, 5.0};
  RetryStats b{4, 1, 0, 2.5};
  a.Merge(b);
  EXPECT_EQ(a.attempts, 7u);
  EXPECT_EQ(a.retries, 3u);
  EXPECT_EQ(a.exhausted, 1u);
  EXPECT_DOUBLE_EQ(a.backoff_ms, 7.5);
}

// ---------------------------------------------------------------------------
// Injected faults at the store / labeler I/O sites.

class StoreFaultTest : public FailpointTest {
 protected:
  void SetUp() override {
    FailpointTest::SetUp();
    path_ = Track(TempPath("rock_store_fault"));
    data_ = MakeGroupedDataset(24, /*seed=*/0xfa11);
    ASSERT_TRUE(WriteDatasetToStore(data_, path_).ok());
  }

  std::string path_;
  TransactionDataset data_;
};

TEST_F(StoreFaultTest, InjectedOpenErrorFailsOpen) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::Configure("store.open=fire_on_hit_1:error").ok());
  auto r = TransactionStoreReader::Open(path_);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
}

TEST_F(StoreFaultTest, InjectedReadErrorStopsTheScan) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::Configure("store.read=fire_on_hit_5:error").ok());
  auto r = TransactionStoreReader::Open(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  size_t rows = 0;
  while (r->Next()) ++rows;
  EXPECT_EQ(rows, 4u) << "the 5th read must be the injected failure";
  EXPECT_TRUE(r->status().IsIOError()) << r->status().ToString();
}

TEST_F(StoreFaultTest, InjectedShortReadIsCorruption) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::Configure("store.read=fire_on_hit_1:short_read").ok());
  auto r = TransactionStoreReader::Open(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->Next());
  EXPECT_TRUE(r->status().IsCorruption()) << r->status().ToString();
}

TEST_F(StoreFaultTest, InjectedCrashCarriesTheMarker) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(fail::Configure("store.read=fire_on_hit_1:crash").ok());
  auto r = TransactionStoreReader::Open(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->Next());
  EXPECT_TRUE(fail::IsInjectedCrash(r->status())) << r->status().ToString();
}

TEST_F(StoreFaultTest, TornAppendLeavesADetectableFile) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string torn = Track(TempPath("rock_store_torn"));
  auto w = TransactionStoreWriter::Open(torn);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_TRUE(w->Append(data_.transaction(0)).ok());
  ASSERT_TRUE(w->Append(data_.transaction(1)).ok());
  // Configure resets hit counters, so the next append is hit 1.
  ASSERT_TRUE(fail::Configure("store.append=fire_on_hit_1:torn_write").ok());
  Status s = w->Append(data_.transaction(2));
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  fail::Clear();
  ASSERT_TRUE(w->Finish().ok());

  // The torn prefix of record 3 sits after the two committed records; the
  // whole-file reader must reject it as trailing garbage, not return a
  // silently short dataset.
  auto r = TransactionStoreReader::Open(torn);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  size_t rows = 0;
  while (r->Next()) ++rows;
  EXPECT_EQ(rows, 2u);
  EXPECT_TRUE(r->status().IsCorruption()) << r->status().ToString();
}

TEST_F(StoreFaultTest, SealedFileSaveAndLoadSitesInject) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  // The model bundle and the pipeline checkpoint share one sealed-file
  // envelope (util/bytes.h), so their save and load sites share one fault
  // contract.
  auto labeler = MakeGroupedLabeler(data_);
  ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();
  ModelBundle bundle;
  bundle.theta = labeler->theta();
  bundle.f_exponent = labeler->f_exponent();
  for (size_t c = 0; c < labeler->num_clusters(); ++c) {
    bundle.labeling_sets.push_back(labeler->labeling_set(c));
  }
  PipelineCheckpoint checkpoint;
  checkpoint.fingerprint.store_count = data_.size();
  checkpoint.assignments.assign(data_.size(), kUnassigned);
  checkpoint.ground_truth.assign(data_.size(), kNoLabel);

  struct Format {
    std::string save_site;
    std::string load_site;
    std::function<Status(const std::string&)> save;
    std::function<Status(const std::string&)> load;
  };
  const Format formats[] = {
      {"model.save", "model.load",
       [&](const std::string& p) { return SaveModelBundle(bundle, p); },
       [](const std::string& p) { return LoadModelBundle(p).status(); }},
      {"pipeline.checkpoint", "checkpoint.load",
       [&](const std::string& p) { return SaveCheckpoint(checkpoint, p); },
       [](const std::string& p) { return LoadCheckpoint(p).status(); }},
  };
  for (const Format& f : formats) {
    SCOPED_TRACE(f.save_site);
    const std::string path = Track(TempPath("rock_sealed_" + f.load_site));
    const std::string tmp = Track(path + ".tmp");

    // torn_write: half the file lands at the final path, and the loader
    // refuses it.
    ASSERT_TRUE(
        fail::Configure(f.save_site + "=fire_on_hit_1:torn_write").ok());
    Status s = f.save(path);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    fail::Clear();
    ASSERT_TRUE(fs::exists(path));
    s = f.load(path);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    std::remove(path.c_str());

    // crash: death between write and rename leaves only the complete tmp.
    ASSERT_TRUE(fail::Configure(f.save_site + "=fire_on_hit_1:crash").ok());
    s = f.save(path);
    EXPECT_TRUE(fail::IsInjectedCrash(s)) << s.ToString();
    fail::Clear();
    EXPECT_FALSE(fs::exists(path));
    ASSERT_TRUE(fs::exists(tmp));
    EXPECT_TRUE(f.load(tmp).ok());

    // A load-site error is a transient IOError; the file itself is fine.
    ASSERT_TRUE(f.save(path).ok());
    ASSERT_TRUE(fail::Configure(f.load_site + "=fire_on_hit_1:error").ok());
    s = f.load(path);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    fail::Clear();
    EXPECT_TRUE(f.load(path).ok());
  }
}

TEST_F(StoreFaultTest, LabelStoreRetriesATransientOpenFault) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto labeler = MakeGroupedLabeler(data_);
  ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();
  auto baseline = LabelStore(path_, *labeler);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  ASSERT_TRUE(fail::Configure("store.open=fire_on_hit_1:error").ok());
  std::atomic<int> sleeps{0};
  LabelStoreOptions options;
  options.retry_sleeper = [&](double) { sleeps.fetch_add(1); };
  auto retried = LabelStore(path_, *labeler, options);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_GE(retried->retry_stats.retries, 1u);
  EXPECT_GE(sleeps.load(), 1);
  EXPECT_EQ(retried->assignments, baseline->assignments)
      << "a retried scan must be bit-identical to a clean one";
  EXPECT_EQ(retried->ground_truth, baseline->ground_truth);
  EXPECT_EQ(retried->num_outliers, baseline->num_outliers);
}

TEST_F(StoreFaultTest, LabelStoreExhaustsOnPersistentFault) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto labeler = MakeGroupedLabeler(data_);
  ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();
  ASSERT_TRUE(fail::Configure("store.open=fire_every_1:error").ok());
  LabelStoreOptions options;
  options.retry_sleeper = [](double) {};
  auto r = LabelStore(path_, *labeler, options);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
}

// ---------------------------------------------------------------------------
// Corruption matrix: random truncation, bit flips and duplicated trailing
// blocks must always be detected, whatever byte they land on. The store
// shares the [u64 magic][u32 version] header prefix with the sealed files,
// so it runs their harness (test_support.h).

TEST_F(FailpointTest, StoreCorruptionMatrixNeverSilentlySucceeds) {
  const std::string good = Track(TempPath("rock_store_matrix_good"));
  const std::string bad = Track(TempPath("rock_store_matrix_bad"));
  ASSERT_TRUE(
      WriteDatasetToStore(MakeGroupedDataset(30, 0xbeef), good).ok());
  ExpectRejectsEveryCorruptionShape(
      good, bad,
      [](const std::string& path) {
        auto r = TransactionStoreReader::Open(path);
        if (!r.ok()) return r.status();
        while (r->Next()) {
        }
        return r->status();
      },
      0xc0de2026ULL);
}

// [[nodiscard] regression: the compiler now rejects `reader->Next(); // oops`
// style Status drops outright, so the only runtime-observable contract left
// is that error statuses survive until the caller checks them. Prove the
// store reader latches its first error rather than letting a later Next()
// overwrite it with a clean EOF.
TEST_F(FailpointTest, ReaderLatchesItsFirstError) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  const std::string path = Track(TempPath("rock_store_latch"));
  ASSERT_TRUE(
      WriteDatasetToStore(MakeGroupedDataset(6, 0x5eed), path).ok());
  ASSERT_TRUE(fail::Configure("store.read=fire_on_hit_2:short_read").ok());
  auto r = TransactionStoreReader::Open(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->Next());
  EXPECT_FALSE(r->Next());
  ASSERT_TRUE(r->status().IsCorruption());
  const std::string first = r->status().ToString();
  EXPECT_FALSE(r->Next()) << "a failed reader must stay failed";
  EXPECT_EQ(r->status().ToString(), first);
}

// ---------------------------------------------------------------------------
// Streaming appends and model swaps (DESIGN §11): a fault or crash at any
// injected site must leave the store byte-identical and the model either
// fully old or fully new — and a retry/resume must converge without
// duplicating or mixing labels.

/// Two fresh in-distribution rows for appending to the 24-row fixture store.
std::vector<Transaction> TwoAppendRows() {
  return {Transaction({1, 2, 3, 4}), Transaction({101, 102, 103})};
}

TEST_F(StoreFaultTest, AppendTornWriteLeavesStoreByteIdentical) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  Track(path_ + ".append.tmp");
  const std::vector<unsigned char> before = ReadAllBytes(path_);

  ASSERT_TRUE(fail::Configure("store.append=fire_on_hit_1:torn_write").ok());
  auto torn = AppendToStore(path_, TwoAppendRows(), nullptr);
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(torn.status().IsIOError()) << torn.status().ToString();
  EXPECT_EQ(ReadAllBytes(path_), before)
      << "a torn append must not disturb the committed store";

  // Retrying after the fault clears commits the batch exactly once.
  fail::Clear();
  auto retried = AppendToStore(path_, TwoAppendRows(), nullptr);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->base_count, 24u);
  EXPECT_EQ(retried->new_count, 26u);
  EXPECT_EQ(retried->generation, 1u);
  auto r = TransactionStoreReader::Open(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count(), 26u);
}

TEST_F(StoreFaultTest, AppendCrashBeforeRenameLeavesStoreByteIdentical) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  Track(path_ + ".append.tmp");
  const std::vector<unsigned char> before = ReadAllBytes(path_);

  // Crash at the commit (rename) boundary: the fully written tmp file never
  // replaces the original.
  ASSERT_TRUE(fail::Configure("store.commit=fire_on_hit_1:crash").ok());
  auto crashed = AppendToStore(path_, TwoAppendRows(), nullptr);
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(fail::IsInjectedCrash(crashed.status()))
      << crashed.status().ToString();
  EXPECT_EQ(ReadAllBytes(path_), before);

  // Resume-after-crash: the retry appends the rows once — never twice.
  fail::Clear();
  auto retried = AppendToStore(path_, TwoAppendRows(), nullptr);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->new_count, 26u);
  EXPECT_EQ(retried->generation, 1u);
  size_t rows = 0;
  auto r = TransactionStoreReader::Open(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  while (r->Next()) ++rows;
  ASSERT_TRUE(r->status().ok()) << r->status().ToString();
  EXPECT_EQ(rows, 26u) << "a crashed-then-retried append must not duplicate";
}

TEST_F(StoreFaultTest, AppendRefusesToExtendACorruptStore) {
  ROCK_SEEDED_RNG(rng, 0xc0bb);
  std::vector<unsigned char> bytes = ReadAllBytes(path_);
  // Flip one payload bit: the copy-on-append CRC re-verify must refuse to
  // extend (and thereby re-checksum, masking the damage) a corrupt store.
  const size_t pos =
      48 + static_cast<size_t>(rng.UniformUint64(bytes.size() - 48));
  bytes[pos] ^= 0x10;
  WriteAllBytes(path_, bytes);

  auto appended = AppendToStore(path_, TwoAppendRows(), nullptr);
  ASSERT_FALSE(appended.ok());
  EXPECT_TRUE(appended.status().IsCorruption())
      << appended.status().ToString();
  EXPECT_EQ(ReadAllBytes(path_), bytes)
      << "a refused append must leave the (corrupt) file for forensics";
}

class StreamFaultTest : public StoreFaultTest {
 protected:
  void SetUp() override {
    StoreFaultTest::SetUp();
    model_path_ = Track(TempPath("rock_stream_fault_model"));
    Track(model_path_ + ".tmp");
    Track(path_ + ".append.tmp");
    checkpoint_path_ = Track(TempPath("rock_stream_fault_ckpt"));
    Track(checkpoint_path_ + ".tmp");
  }

  ModelBuildOptions BuildOptions() const {
    ModelBuildOptions opt;
    opt.pipeline.rock.theta = 0.3;
    opt.pipeline.rock.num_clusters = 3;
    opt.pipeline.sample_size = 24;
    opt.pipeline.seed = 99;
    opt.pipeline.labeling.seed = 5;
    opt.model_path = model_path_;
    return opt;
  }

  std::string model_path_;
  std::string checkpoint_path_;
};

TEST_F(StreamFaultTest, ModelSwapCrashPublishesButKeepsServingOldModel) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(BuildModel(path_, BuildOptions()).ok());

  StreamOptions opt;
  opt.build = BuildOptions();
  opt.background_rebuild = false;
  auto session = StreamingSession::Open(path_, model_path_, opt);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto appended = (*session)->Append(TwoAppendRows(), nullptr);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();

  // Crash in the "published but not yet serving" window: the re-clustered
  // bundle is durable on disk, the in-process model is still entirely the
  // old one.
  ASSERT_TRUE(fail::Configure("model.swap=fire_on_hit_1:crash").ok());
  Status swap = (*session)->Rebuild();
  ASSERT_FALSE(swap.ok());
  EXPECT_TRUE(fail::IsInjectedCrash(swap)) << swap.ToString();
  fail::Clear();

  EXPECT_EQ((*session)->Acquire()->fingerprint().store_count, 24u)
      << "the session must keep serving the old model after a swap crash";
  auto on_disk = ModelHandle::Load(model_path_);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status().ToString();
  EXPECT_EQ(on_disk->fingerprint().store_count, 26u)
      << "the rebuilt bundle must already be durable on disk";

  // Resume: MaybeReload finds the published fingerprint and converges.
  auto reloaded = (*session)->MaybeReload();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(*reloaded);
  EXPECT_EQ((*session)->Acquire()->fingerprint().store_count, 26u);
}

TEST_F(StreamFaultTest, RebuildResumeAfterModelSaveCrashIsByteIdentical) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  // Reference: an uninterrupted build of the same store.
  const std::string reference = Track(TempPath("rock_stream_fault_ref"));
  Track(reference + ".tmp");
  ModelBuildOptions ref = BuildOptions();
  ref.model_path = reference;
  ASSERT_TRUE(BuildModel(path_, ref).ok());

  // Crash while freezing the bundle; the labeling checkpoint survives.
  ModelBuildOptions crash = BuildOptions();
  crash.pipeline.checkpoint_path = checkpoint_path_;
  ASSERT_TRUE(fail::Configure("model.save=fire_on_hit_1:crash").ok());
  auto crashed = BuildModel(path_, crash);
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(fail::IsInjectedCrash(crashed.status()))
      << crashed.status().ToString();
  fail::Clear();

  ModelBuildOptions resume = crash;
  resume.pipeline.resume = true;
  auto resumed = BuildModel(path_, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed) << "the rebuild must ride the checkpoint";
  EXPECT_EQ(ReadAllBytes(model_path_), ReadAllBytes(reference))
      << "a resumed rebuild must freeze a byte-identical bundle";
}

}  // namespace
}  // namespace rock
