// Tests for the sharded labeling engine: store shard planning / range
// readers (data/disk_store.h), the pruned Assign path vs its brute-force
// oracle, the packed label kernel (the need[] threshold table, every ISA
// variant of the sweep, and a packed / ScanCount / oracle grid over
// universe widths and degenerate shapes), and the serial-vs-parallel
// LabelStore differential across thread counts × θ — the parallel path
// must be bit-identical to the serial one, including on an empty store and
// a store smaller than the shard count.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/labeling.h"
#include "data/disk_store.h"
#include "diag/metrics.h"
#include "similarity/jaccard.h"
#include "similarity/packed.h"
#include "synth/basket_generator.h"
#include "test_support.h"

namespace rock {
namespace {

class ShardedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rock_shard_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".bin");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path() const { return path_.string(); }

  /// Writes `n` small transactions with varying sizes and a label per row.
  TransactionDataset WriteStore(size_t n, uint64_t seed) {
    ROCK_SEEDED_RNG(rng, seed);
    TransactionDataset ds;
    for (size_t i = 0; i < n; ++i) {
      const size_t len = 1 + static_cast<size_t>(rng.UniformUint64(6));
      std::vector<std::string> items;
      for (size_t k = 0; k < len; ++k) {
        items.push_back("item" + std::to_string(rng.UniformUint64(40)));
      }
      ds.AddTransaction(items);
      ds.labels().Append("class" + std::to_string(i % 3));
    }
    EXPECT_TRUE(WriteDatasetToStore(ds, path()).ok());
    return ds;
  }

 private:
  std::filesystem::path path_;
};

TEST_F(ShardedStoreTest, PlanShardsPartitionsEveryRowExactlyOnce) {
  WriteStore(97, 11);
  for (uint64_t max_shards : {1u, 2u, 3u, 7u, 16u, 97u, 200u}) {
    auto shards = TransactionStoreReader::PlanShards(path(), max_shards);
    ASSERT_TRUE(shards.ok()) << shards.status().ToString();
    ASSERT_FALSE(shards->empty());
    EXPECT_LE(shards->size(), std::min<uint64_t>(max_shards, 97));
    uint64_t row = 0;
    for (const StoreShardRange& range : *shards) {
      EXPECT_EQ(range.first_row, row) << "max_shards=" << max_shards;
      EXPECT_GT(range.num_rows, 0u);
      row += range.num_rows;
    }
    EXPECT_EQ(row, 97u) << "max_shards=" << max_shards;
  }
}

TEST_F(ShardedStoreTest, PlanShardsEmptyStoreYieldsNoShards) {
  WriteStore(0, 12);
  auto shards = TransactionStoreReader::PlanShards(path(), 8);
  ASSERT_TRUE(shards.ok());
  EXPECT_TRUE(shards->empty());
}

TEST_F(ShardedStoreTest, PlanShardsRejectsZeroAndMissingFile) {
  WriteStore(3, 13);
  EXPECT_TRUE(TransactionStoreReader::PlanShards(path(), 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(TransactionStoreReader::PlanShards("/no/such/store.bin", 4)
                  .status()
                  .IsIOError());
}

TEST_F(ShardedStoreTest, RangeReadersReproduceTheSerialScan) {
  TransactionDataset ds = WriteStore(41, 14);
  auto shards = TransactionStoreReader::PlanShards(path(), 5);
  ASSERT_TRUE(shards.ok());

  std::vector<Transaction> rows;
  std::vector<LabelId> labels;
  for (const StoreShardRange& range : *shards) {
    auto reader = TransactionStoreReader::OpenRange(path(), range);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->count(), range.num_rows);
    size_t got = 0;
    while (reader->Next()) {
      rows.push_back(reader->transaction());
      labels.push_back(reader->label());
      ++got;
    }
    ASSERT_TRUE(reader->status().ok()) << reader->status().ToString();
    EXPECT_EQ(got, range.num_rows);
  }
  ASSERT_EQ(rows.size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(rows[i], ds.transaction(i)) << "row " << i;
    EXPECT_EQ(labels[i], ds.labels().label(i)) << "row " << i;
  }
}

TEST_F(ShardedStoreTest, RangeReaderRewindReturnsToRangeStart) {
  WriteStore(20, 15);
  auto shards = TransactionStoreReader::PlanShards(path(), 4);
  ASSERT_TRUE(shards.ok());
  ASSERT_GT(shards->size(), 1u);
  const StoreShardRange& range = (*shards)[1];
  auto reader = TransactionStoreReader::OpenRange(path(), range);
  ASSERT_TRUE(reader.ok());
  std::vector<Transaction> first_pass;
  while (reader->Next()) first_pass.push_back(reader->transaction());
  ASSERT_TRUE(reader->Rewind().ok());
  std::vector<Transaction> second_pass;
  while (reader->Next()) second_pass.push_back(reader->transaction());
  EXPECT_EQ(first_pass, second_pass);
  EXPECT_EQ(first_pass.size(), range.num_rows);
}

TEST_F(ShardedStoreTest, OpenRangeRejectsIllFittingRanges) {
  WriteStore(10, 16);
  StoreShardRange bad;
  bad.byte_offset = 0;  // inside the header
  bad.first_row = 0;
  bad.num_rows = 1;
  EXPECT_TRUE(TransactionStoreReader::OpenRange(path(), bad)
                  .status()
                  .IsInvalidArgument());
  StoreShardRange beyond;
  beyond.byte_offset = 20;
  beyond.first_row = 8;
  beyond.num_rows = 5;  // 8 + 5 > 10 rows
  EXPECT_TRUE(TransactionStoreReader::OpenRange(path(), beyond)
                  .status()
                  .IsInvalidArgument());
}

// ------------------------------------------------ pruned Assign vs oracle --

/// Clustered sample + labeler over basket-style data.
Result<TransactionLabeler> MakeLabeler(double theta, uint64_t seed,
                                       TransactionDataset* sample_out) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {50, 35, 25};
  gen.items_per_cluster = {14, 12, 10};
  gen.num_outliers = 8;
  gen.seed = seed;
  TransactionDataset sample = std::move(GenerateBasketData(gen)).value();
  // Ground-truth-shaped clustering is fine here: the labeler only needs
  // *some* partition of the sample.
  std::vector<ClusterIndex> assignment(sample.size());
  for (size_t i = 0; i < sample.size(); ++i) {
    assignment[i] = static_cast<ClusterIndex>(i % 3);
  }
  RockOptions rock;
  rock.theta = theta;
  rock.num_clusters = 3;
  LabelingOptions opt;
  opt.fraction = 0.5;
  if (sample_out != nullptr) *sample_out = sample;
  return TransactionLabeler::Build(
      sample, Clustering::FromAssignment(std::move(assignment)), rock, opt);
}

TEST(PrunedAssignTest, MatchesBruteForceOracleAcrossThetas) {
  for (double theta : {0.0, 0.2, 0.5, 0.73, 0.95}) {
    ROCK_TRACE_SEED(21);
    TransactionDataset sample;
    auto labeler = MakeLabeler(theta, 21, &sample);
    ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();

    TransactionLabeler::Scratch scratch;
    TransactionLabeler::AssignStats stats;
    ROCK_SEEDED_RNG(rng, 22);
    for (int trial = 0; trial < 300; ++trial) {
      // Probes drawn from the sample's own id space plus alien ids.
      const size_t len = static_cast<size_t>(rng.UniformUint64(9));
      std::vector<ItemId> items;
      for (size_t k = 0; k < len; ++k) {
        items.push_back(static_cast<ItemId>(rng.UniformUint64(80)));
      }
      const Transaction probe(std::move(items));
      EXPECT_EQ(labeler->Assign(probe, &scratch, &stats),
                labeler->AssignUnpruned(probe))
          << "theta=" << theta << " trial=" << trial;
    }
    // Edge probes: empty, all-alien, and a full sample transaction.
    EXPECT_EQ(labeler->Assign(Transaction{}, &scratch, nullptr),
              labeler->AssignUnpruned(Transaction{}));
    const Transaction alien({5000, 5001, 5002});
    EXPECT_EQ(labeler->Assign(alien, &scratch, nullptr),
              labeler->AssignUnpruned(alien));
    EXPECT_EQ(labeler->Assign(sample.transaction(0), &scratch, nullptr),
              labeler->AssignUnpruned(sample.transaction(0)));
  }
}

TEST(PrunedAssignTest, PruningActuallyFiresAtPositiveTheta) {
  TransactionDataset sample;
  auto labeler = MakeLabeler(0.5, 31, &sample);
  ASSERT_TRUE(labeler.ok());
  ASSERT_TRUE(labeler->uses_packed_sweep());
  TransactionLabeler::AssignStats stats;
  TransactionLabeler::Scratch scratch;
  // An alien probe shares no items: every cluster's item union misses it,
  // so every cluster is pruned and no point is looked at.
  labeler->Assign(Transaction({9000, 9001}), &scratch, &stats);
  EXPECT_EQ(stats.clusters_pruned, labeler->num_clusters());
  EXPECT_EQ(stats.clusters_scored, 0u);
  EXPECT_EQ(stats.similarities_computed, 0u);
  EXPECT_EQ(stats.points_skipped_length, 0u);
  // A one-item probe at θ = 0.5 reaches only points of at most 2 items
  // (1/|q| >= 0.5), and every labeling point here is larger: each point of
  // every cluster that holds the item is unreachable, so none is
  // popcounted.
  ASSERT_FALSE(sample.transaction(0).empty());
  const ItemId item = sample.transaction(0).items()[0];
  TransactionLabeler::AssignStats small;
  labeler->Assign(Transaction({item}), &scratch, &small);
  uint64_t holding = 0;
  uint64_t holding_points = 0;
  for (size_t c = 0; c < labeler->num_clusters(); ++c) {
    bool holds = false;
    for (const Transaction& q : labeler->labeling_set(c)) {
      ASSERT_GT(q.size(), 2u);
      holds = holds || std::binary_search(q.begin(), q.end(), item);
    }
    if (holds) {
      ++holding;
      holding_points += labeler->labeling_set_size(c);
    }
  }
  EXPECT_EQ(small.clusters_scored, holding);
  EXPECT_EQ(small.clusters_pruned, labeler->num_clusters() - holding);
  EXPECT_EQ(small.similarities_computed, 0u);
  EXPECT_EQ(small.points_skipped_length, holding_points);
  EXPECT_GT(small.points_skipped_length, 0u);
}

// ------------------------------------------------- packed label kernel --

// need[] decides exactly like the division it replaces, for every
// intersection a t-item and an s-item set can have.
TEST(LabelKernelTest, NeedTableAgreesWithTheDivisionExhaustively) {
  for (double theta :
       {0.01, 0.1, 1.0 / 3.0, 0.5, 0.6, 2.0 / 3.0, 0.73, 0.999, 1.0}) {
    for (uint64_t t = 0; t <= 64; ++t) {
      for (uint64_t s = 0; s <= 64; ++s) {
        const uint64_t need = LeastPassingIntersection(t, s, theta);
        ASSERT_TRUE(need == kUnreachableIntersection || need <= std::min(t, s))
            << "theta=" << theta << " t=" << t << " s=" << s;
        for (uint64_t k = 0; k <= std::min(t, s); ++k) {
          const double kd = static_cast<double>(k);
          const bool passes =
              kd / (static_cast<double>(t) + static_cast<double>(s) - kd) >=
              theta;
          ASSERT_EQ(k >= need, passes) << "theta=" << theta << " t=" << t
                                       << " s=" << s << " k=" << k;
        }
      }
    }
  }
}

// The same agreement for large sets, where the real bound θ(t+s)/(1+θ)
// that LeastPassingIntersection starts from carries rounding error: the
// returned k passes and k − 1 does not.
TEST(LabelKernelTest, NeedTableAgreesWithTheDivisionForLargeSets) {
  ROCK_SEEDED_RNG(rng, 20261020);
  const uint64_t big = uint64_t{1} << 24;
  for (double theta :
       {0.01, 0.1, 1.0 / 3.0, 0.5, 0.6, 2.0 / 3.0, 0.73, 0.999, 1.0}) {
    for (int trial = 0; trial < 2000; ++trial) {
      const uint64_t t = rng.UniformUint64(big + 1);
      // Half the pairs nearly equal in size, where θ near 1 is reachable.
      const uint64_t s = trial % 2 == 0
                             ? rng.UniformUint64(big + 1)
                             : t + rng.UniformUint64(3);
      const double sum = static_cast<double>(t) + static_cast<double>(s);
      auto passes = [&](uint64_t k) {
        const double kd = static_cast<double>(k);
        return kd / (sum - kd) >= theta;
      };
      const uint64_t need = LeastPassingIntersection(t, s, theta);
      SCOPED_TRACE(::testing::Message()
                   << "theta=" << theta << " t=" << t << " s=" << s);
      if (need == kUnreachableIntersection) {
        ASSERT_FALSE(passes(std::min(t, s)));
      } else {
        ASSERT_LE(need, std::min(t, s));
        ASSERT_TRUE(passes(need));
        if (need > 0) {
          ASSERT_FALSE(passes(need - 1));
        }
      }
    }
  }
}

// Reference sweep: one point at a time, straight from the definition.
ThresholdSweepCounts ReferenceSweep(const PointPlane& plane, size_t begin,
                                    size_t end, const uint64_t* row,
                                    const uint64_t* need) {
  ThresholdSweepCounts out;
  for (size_t p = begin; p < end; ++p) {
    uint64_t inter = 0;
    for (size_t w = 0; w < plane.words; ++w) {
      inter += static_cast<uint64_t>(
          std::popcount(plane.bits[w * plane.stride + p] & row[w]));
    }
    const uint64_t threshold = need[plane.size_class[p]];
    if (threshold == kUnreachableIntersection) {
      ++out.unreachable;
    } else if (inter >= threshold) {
      ++out.passed;
    }
  }
  return out;
}

TEST(LabelKernelTest, EverySweepVariantMatchesTheReference) {
  ROCK_SEEDED_RNG(rng, 20261019);
  EXPECT_TRUE(SweepIsaSupported(ActiveSweepIsa()));
  const SweepIsa isas[] = {SweepIsa::kScalar, SweepIsa::kPopcnt,
                           SweepIsa::kAvx2, SweepIsa::kAvx512};
  for (const size_t words : {1u, 2u, 3u, 4u, 5u, 9u}) {
    const size_t points = 83;
    std::vector<uint64_t> bits(words * points);
    for (uint64_t& w : bits) w = rng.NextUint64() & rng.NextUint64();
    std::vector<uint32_t> size_class(points);
    for (uint32_t& c : size_class) {
      c = static_cast<uint32_t>(rng.UniformUint64(40));
    }
    // A need table mixing reachable thresholds with the sentinel.
    std::vector<uint64_t> need(40);
    for (uint64_t& n : need) {
      n = rng.UniformUint64(5) == 0 ? kUnreachableIntersection
                                    : rng.UniformUint64(24);
    }
    const PointPlane plane{bits.data(), points, words, size_class.data()};
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<uint64_t> row(words);
      for (uint64_t& w : row) w = rng.NextUint64() | rng.NextUint64();
      // Ranges of every length 0–37, at offsets that are not 8-aligned.
      const size_t begin = static_cast<size_t>(rng.UniformUint64(40));
      const size_t end = begin + static_cast<size_t>(trial % 38);
      const ThresholdSweepCounts want =
          ReferenceSweep(plane, begin, end, row.data(), need.data());
      for (SweepIsa isa : isas) {
        if (!SweepIsaSupported(isa)) continue;
        const ThresholdSweepCounts got = ThresholdSweepWith(
            isa, plane, begin, end, row.data(), need.data());
        EXPECT_EQ(got.passed, want.passed)
            << SweepIsaName(isa) << " words=" << words << " [" << begin
            << ", " << end << ")";
        EXPECT_EQ(got.unreachable, want.unreachable)
            << SweepIsaName(isa) << " words=" << words;
      }
      const ThresholdSweepCounts dispatched =
          ThresholdSweep(plane, begin, end, row.data(), need.data());
      EXPECT_EQ(dispatched.passed, want.passed);
      EXPECT_EQ(dispatched.unreachable, want.unreachable);
    }
  }
}

/// Labeling sets over `universe` items spread as ids 3j+1 (so ids in the
/// gaps and above 3·universe are outside the labeling universe). Cluster
/// sizes come from `cluster_sizes`; cluster 0 starts with points covering
/// the whole universe, so U′ is exactly `universe`. Set `empty_point` to
/// add an empty labeling point to the last cluster.
std::vector<std::vector<Transaction>> GridSets(
    size_t universe, const std::vector<size_t>& cluster_sizes,
    size_t min_size, size_t max_size, bool empty_point, Rng* rng) {
  std::vector<std::vector<Transaction>> sets(cluster_sizes.size());
  for (size_t first = 0; first < universe; first += 10) {
    std::vector<ItemId> items;
    for (size_t j = first; j < std::min(universe, first + 10); ++j) {
      items.push_back(static_cast<ItemId>(3 * j + 1));
    }
    sets[0].emplace_back(std::move(items));
  }
  for (size_t c = 0; c < cluster_sizes.size(); ++c) {
    // Each cluster favours its own slice of the universe, so clusters
    // differ and some probes prune some clusters.
    const size_t slice = std::max<size_t>(1, universe / cluster_sizes.size());
    while (sets[c].size() < cluster_sizes[c]) {
      const size_t len =
          min_size + static_cast<size_t>(rng->UniformUint64(
                         max_size - min_size + 1));
      std::vector<ItemId> items;
      for (size_t k = 0; k < len; ++k) {
        const size_t j =
            rng->UniformUint64(4) == 0
                ? static_cast<size_t>(rng->UniformUint64(universe))
                : (c * slice + static_cast<size_t>(rng->UniformUint64(slice))) %
                      universe;
        items.push_back(static_cast<ItemId>(3 * j + 1));
      }
      sets[c].emplace_back(std::move(items));
    }
  }
  if (empty_point) sets.back().emplace_back();
  return sets;
}

/// Probes: empty, alien, every labeling point, each point with items
/// dropped and added (hitting the exact thresholds), and random rows that
/// mix universe ids, gap ids and ids above the largest item.
std::vector<Transaction> GridProbes(
    const std::vector<std::vector<Transaction>>& sets, size_t universe,
    Rng* rng) {
  std::vector<Transaction> probes = {Transaction{},
                                     Transaction({0, 2, 3 * 100000})};
  for (const auto& set : sets) {
    for (const Transaction& q : set) {
      probes.push_back(q);
      std::vector<ItemId> items(q.begin(), q.end());
      for (int edit = 0; edit < 3; ++edit) {
        if (!items.empty() && rng->UniformUint64(2) == 0) {
          items.erase(items.begin() + static_cast<std::ptrdiff_t>(
                                          rng->UniformUint64(items.size())));
        } else {
          items.push_back(static_cast<ItemId>(
              rng->UniformUint64(3 * universe + 20)));
        }
        probes.emplace_back(items);
      }
    }
  }
  for (int r = 0; r < 60; ++r) {
    std::vector<ItemId> items;
    const size_t len = static_cast<size_t>(rng->UniformUint64(25));
    for (size_t k = 0; k < len; ++k) {
      items.push_back(static_cast<ItemId>(
          rng->UniformUint64(3 * universe + 20)));
    }
    probes.emplace_back(std::move(items));
  }
  return probes;
}

/// AssignDetailed against a brute-force outcome built from JaccardSimilarity
/// and the (|L_i|+1)^f normalizer, field by field, plus Assign ==
/// AssignUnpruned. Also checks the stats add up on the packed path.
void ExpectMatchesOracle(const TransactionLabeler& labeler,
                         const std::vector<Transaction>& probes) {
  TransactionLabeler::Scratch scratch;
  for (size_t i = 0; i < probes.size(); ++i) {
    const Transaction& tx = probes[i];
    TransactionLabeler::AssignOutcome want;
    for (size_t c = 0; c < labeler.num_clusters(); ++c) {
      uint32_t neighbors = 0;
      for (const Transaction& q : labeler.labeling_set(c)) {
        if (JaccardSimilarity(tx, q) >= labeler.theta()) ++neighbors;
      }
      if (neighbors == 0) continue;
      const double score =
          static_cast<double>(neighbors) /
          std::pow(static_cast<double>(labeler.labeling_set_size(c)) + 1.0,
                   labeler.f_exponent());
      if (score > want.score) {
        want.score = score;
        want.neighbors = neighbors;
        want.cluster = static_cast<ClusterIndex>(c);
      }
    }
    TransactionLabeler::AssignStats stats;
    const TransactionLabeler::AssignOutcome got =
        labeler.AssignDetailed(tx, &scratch, &stats);
    ASSERT_EQ(got.cluster, want.cluster) << "probe " << i;
    ASSERT_EQ(got.neighbors, want.neighbors) << "probe " << i;
    ASSERT_EQ(got.score, want.score) << "probe " << i;
    ASSERT_EQ(labeler.Assign(tx), labeler.AssignUnpruned(tx)) << "probe " << i;
    ASSERT_EQ(stats.clusters_pruned + stats.clusters_scored,
              labeler.num_clusters());
    if (labeler.uses_packed_sweep() && labeler.theta() > 0.0) {
      uint64_t scored_points = 0;
      for (size_t c = 0; c < labeler.num_clusters(); ++c) {
        bool shares = false;
        for (const Transaction& q : labeler.labeling_set(c)) {
          shares = shares || JaccardSimilarity(tx, q) > 0.0;
        }
        if (shares) scored_points += labeler.labeling_set_size(c);
      }
      ASSERT_EQ(stats.points_skipped_length + stats.similarities_computed,
                scored_points)
          << "probe " << i;
    }
  }
}

TEST(LabelKernelTest, PackedAndScanCountPathsMatchTheOracleAcrossGrid) {
  const double thetas[] = {0.0, 0.01, 0.2, 1.0 / 3.0, 0.5, 0.6, 0.73, 1.0};
  // Cluster sizes that are not multiples of 8, including a single point.
  const std::vector<size_t> cluster_sizes = {37, 1, 9, 15, 22};
  for (const size_t universe : {63u, 64u, 65u, 128u, 256u}) {
    ROCK_SEEDED_RNG(rng, 7000 + universe);
    const auto sets = GridSets(universe, cluster_sizes, 10, 20, true, &rng);
    const auto probes = GridProbes(sets, universe, &rng);
    for (double theta : thetas) {
      SCOPED_TRACE(::testing::Message()
                   << "universe=" << universe << " theta=" << theta);
      auto labeler = TransactionLabeler::FromParts(theta, 0.7, sets);
      ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();
      EXPECT_TRUE(labeler->uses_packed_sweep());
      ExpectMatchesOracle(*labeler, probes);
    }
  }
  // A wide, sparse universe: few shared items per point, so the cost model
  // keeps the ScanCount walk.
  ROCK_SEEDED_RNG(rng, 7999);
  const size_t universe = 5000;
  const auto sets = GridSets(universe, {13, 7, 30}, 1, 6, true, &rng);
  const auto probes = GridProbes(sets, universe, &rng);
  for (double theta : thetas) {
    SCOPED_TRACE(::testing::Message() << "wide universe, theta=" << theta);
    auto labeler = TransactionLabeler::FromParts(theta, 0.7, sets);
    ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();
    EXPECT_FALSE(labeler->uses_packed_sweep());
    ExpectMatchesOracle(*labeler, probes);
  }
}

TEST(LabelKernelTest, DegenerateLabelers) {
  const std::vector<Transaction> probes = {Transaction{}, Transaction({1}),
                                           Transaction({1, 2, 3})};
  // No clusters, clusters of only empty points, and an empty cluster.
  for (const auto& sets : std::vector<std::vector<std::vector<Transaction>>>{
           {},
           {{Transaction{}}, {Transaction{}, Transaction{}}},
           {{}, {Transaction({1, 2})}}}) {
    for (double theta : {0.0, 0.5}) {
      auto labeler = TransactionLabeler::FromParts(theta, 0.5, sets);
      ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();
      ExpectMatchesOracle(*labeler, probes);
    }
  }
}

// One Scratch serving several labelers (different θ, or the same θ over
// different point sizes, hence different size classes) must not carry a
// threshold table from one to another.
TEST(LabelKernelTest, ScratchSharedAcrossLabelers) {
  ROCK_SEEDED_RNG(rng, 8111);
  const auto small = GridSets(64, {9, 9}, 2, 5, false, &rng);
  const auto large = GridSets(64, {9, 9}, 10, 30, false, &rng);
  auto a = TransactionLabeler::FromParts(0.3, 0.5, small);
  auto b = TransactionLabeler::FromParts(0.6, 0.5, large);
  auto c = TransactionLabeler::FromParts(0.3, 0.5, large);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const auto probes = GridProbes(large, 64, &rng);
  TransactionLabeler::Scratch shared;
  for (const Transaction& tx : probes) {
    for (const TransactionLabeler* labeler : {&*a, &*b, &*c}) {
      const auto got = labeler->AssignDetailed(tx, &shared, nullptr);
      const auto fresh = labeler->AssignDetailed(tx, nullptr, nullptr);
      ASSERT_EQ(got.cluster, fresh.cluster);
      ASSERT_EQ(got.neighbors, fresh.neighbors);
      ASSERT_EQ(got.score, fresh.score);
    }
  }
}

// One very large labeling point among small ones, probed by rows of many
// sizes: the threshold table holds one entry per distinct point size, not
// one per size up to the largest, and the answers match the oracle.
TEST(LabelKernelTest, LargePointKeepsTheThresholdTableSmall) {
  ROCK_SEEDED_RNG(rng, 8222);
  const size_t universe = 200;
  auto sets = GridSets(universe, {11, 6}, 3, 12, false, &rng);
  std::vector<ItemId> huge(size_t{1} << 18);
  for (size_t j = 0; j < huge.size(); ++j) huge[j] = static_cast<ItemId>(j);
  sets[1].emplace_back(std::move(huge));
  size_t distinct = 0;
  {
    std::vector<size_t> sizes;
    for (const auto& set : sets) {
      for (const Transaction& q : set) sizes.push_back(q.size());
    }
    std::sort(sizes.begin(), sizes.end());
    distinct = static_cast<size_t>(
        std::unique(sizes.begin(), sizes.end()) - sizes.begin());
  }
  auto probes = GridProbes(sets, universe, &rng);
  // A few probes that are large too, so |T| spans small to huge.
  for (size_t len : {size_t{1000}, size_t{70000}, size_t{1} << 18}) {
    std::vector<ItemId> items(len);
    for (size_t j = 0; j < len; ++j) items[j] = static_cast<ItemId>(j);
    probes.emplace_back(std::move(items));
  }
  for (double theta : {0.2, 0.5, 0.9}) {
    SCOPED_TRACE(::testing::Message() << "theta=" << theta);
    auto labeler = TransactionLabeler::FromParts(theta, 0.7, sets);
    ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();
    TransactionLabeler::Scratch scratch;
    for (const Transaction& tx : probes) {
      labeler->Assign(tx, &scratch, nullptr);
      ASSERT_EQ(scratch.need.size(), distinct);
    }
    ExpectMatchesOracle(*labeler, probes);
  }
}

// --------------------------------------- serial vs parallel differential --

class ParallelLabelStoreTest : public ShardedStoreTest {};

TEST_F(ParallelLabelStoreTest, BitIdenticalAcrossThreadCountsAndThetas) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {120, 90, 60};
  gen.items_per_cluster = {14, 12, 10};
  gen.num_outliers = 20;
  gen.seed = 41;
  TransactionDataset store_data = std::move(GenerateBasketData(gen)).value();
  ASSERT_TRUE(WriteDatasetToStore(store_data, path()).ok());

  for (double theta : {0.3, 0.5, 0.73}) {
    ROCK_TRACE_SEED(42);
    auto labeler = MakeLabeler(theta, 42, nullptr);
    ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();

    LabelStoreOptions serial;
    serial.num_threads = 1;
    auto reference = LabelStore(path(), *labeler, serial);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(reference->assignments.size(), store_data.size());

    for (size_t threads : {2u, 3u, 4u, 5u, 8u}) {
      LabelStoreOptions parallel;
      parallel.num_threads = threads;
      auto result = LabelStore(path(), *labeler, parallel);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->assignments, reference->assignments)
          << "theta=" << theta << " threads=" << threads;
      EXPECT_EQ(result->ground_truth, reference->ground_truth);
      EXPECT_EQ(result->num_outliers, reference->num_outliers);
      // Pruning counters are per-row sums, so they are thread-invariant.
      EXPECT_EQ(result->stats.clusters_pruned,
                reference->stats.clusters_pruned);
      EXPECT_EQ(result->stats.clusters_scored,
                reference->stats.clusters_scored);
      EXPECT_EQ(result->stats.points_skipped_length,
                reference->stats.points_skipped_length);
      EXPECT_EQ(result->stats.similarities_computed,
                reference->stats.similarities_computed);
      EXPECT_EQ(result->threads_used, threads);
      EXPECT_GT(result->shards, 1u);
    }

    // And the whole engine agrees with the brute-force oracle per row.
    auto reader = TransactionStoreReader::Open(path());
    ASSERT_TRUE(reader.ok());
    size_t row = 0;
    while (reader->Next()) {
      ASSERT_EQ(reference->assignments[row],
                labeler->AssignUnpruned(reader->transaction()))
          << "row " << row << " theta=" << theta;
      ++row;
    }
  }
}

// The ScanCount path (wide universe) under the same sharded scan.
TEST_F(ParallelLabelStoreTest, ScanCountPathBitIdenticalAcrossThreadCounts) {
  ROCK_SEEDED_RNG(rng, 43);
  const size_t universe = 5000;
  const auto sets = GridSets(universe, {13, 7, 30}, 1, 6, false, &rng);
  TransactionDataset store_data;
  for (const Transaction& tx : GridProbes(sets, universe, &rng)) {
    store_data.AddTransaction(tx);
  }
  ASSERT_TRUE(WriteDatasetToStore(store_data, path()).ok());
  auto labeler = TransactionLabeler::FromParts(0.3, 0.6, sets);
  ASSERT_TRUE(labeler.ok());
  ASSERT_FALSE(labeler->uses_packed_sweep());
  std::vector<ClusterIndex> oracle;
  for (size_t r = 0; r < store_data.size(); ++r) {
    oracle.push_back(labeler->AssignUnpruned(store_data.transaction(r)));
  }
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    LabelStoreOptions opt;
    opt.num_threads = threads;
    auto result = LabelStore(path(), *labeler, opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->assignments, oracle) << "threads=" << threads;
  }
}

TEST_F(ParallelLabelStoreTest, EmptyStoreWorksAtAnyThreadCount) {
  WriteStore(0, 51);
  auto labeler = MakeLabeler(0.5, 51, nullptr);
  ASSERT_TRUE(labeler.ok());
  for (size_t threads : {1u, 4u, 8u}) {
    LabelStoreOptions opt;
    opt.num_threads = threads;
    auto result = LabelStore(path(), *labeler, opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->assignments.empty());
    EXPECT_TRUE(result->ground_truth.empty());
    EXPECT_EQ(result->num_outliers, 0u);
    EXPECT_EQ(result->shards, 0u);
  }
}

TEST_F(ParallelLabelStoreTest, StoreSmallerThanShardCount) {
  TransactionDataset tiny = WriteStore(3, 52);
  auto labeler = MakeLabeler(0.5, 52, nullptr);
  ASSERT_TRUE(labeler.ok());
  LabelStoreOptions serial;
  serial.num_threads = 1;
  auto reference = LabelStore(path(), *labeler, serial);
  ASSERT_TRUE(reference.ok());
  LabelStoreOptions wide;
  wide.num_threads = 16;  // 16 workers, 4×16 wanted shards, only 3 rows
  auto result = LabelStore(path(), *labeler, wide);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->assignments, reference->assignments);
  EXPECT_EQ(result->ground_truth, reference->ground_truth);
  EXPECT_LE(result->shards, 3u);
}

TEST_F(ParallelLabelStoreTest, RecordsLabelingMetrics) {
  WriteStore(30, 53);
  auto labeler = MakeLabeler(0.5, 53, nullptr);
  ASSERT_TRUE(labeler.ok());
  diag::MetricsRegistry registry;
  LabelStoreOptions opt;
  opt.num_threads = 2;
  opt.metrics = &registry;
  auto result = LabelStore(path(), *labeler, opt);
  ASSERT_TRUE(result.ok());
  const diag::RunMetrics m = registry.Snapshot();
  EXPECT_EQ(m.CounterOr("label.threads"), 2u);
  EXPECT_GT(m.CounterOr("label.shards"), 0u);
  EXPECT_EQ(m.CounterOr("label.clusters_scored") +
                m.CounterOr("label.clusters_pruned"),
            result->stats.clusters_scored + result->stats.clusters_pruned);
  EXPECT_NE(m.FindTimer("stage.label_scan"), nullptr);
  const double rate = m.GaugeOr("label.prune_hit_rate", -1.0);
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

TEST_F(ParallelLabelStoreTest, MissingStoreFailsCleanly) {
  auto labeler = MakeLabeler(0.5, 54, nullptr);
  ASSERT_TRUE(labeler.ok());
  LabelStoreOptions opt;
  opt.num_threads = 4;
  EXPECT_TRUE(
      LabelStore("/no/such/store.bin", *labeler, opt).status().IsIOError());
}

}  // namespace
}  // namespace rock
