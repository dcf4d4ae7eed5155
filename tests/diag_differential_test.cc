// Differential tests: the packed graph engines, run at any thread count,
// must be bit-identical to the serial oracles on randomized Jaccard
// datasets across θ, including the degenerate graphs (no edges, complete
// graph), and the production merge engine must match the hashed oracle.
// Equality is asserted structurally AND through the diag invariant oracles,
// so a disagreement reports which layer diverged.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "core/rock.h"
#include "data/disk_store.h"
#include "data/transaction.h"
#include "diag/invariants.h"
#include "graph/link_engine.h"
#include "graph/links.h"
#include "graph/neighbor_engine.h"
#include "graph/neighbors.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"
#include "test_support.h"
#include "util/failpoint.h"

namespace rock {
namespace {

// Builds a randomized transaction dataset with cluster structure plus
// outliers, so the neighbor graph has both dense and sparse regions.
TransactionDataset RandomDataset(uint64_t seed, size_t scale) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {30 * scale, 20 * scale, 15 * scale};
  gen.items_per_cluster = {12, 10, 14};
  gen.num_outliers = 5 * scale;
  gen.seed = seed;
  return std::move(GenerateBasketData(gen)).value();
}

void ExpectGraphsIdentical(const NeighborGraph& serial,
                           const NeighborGraph& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.nbrlist[i], parallel.nbrlist[i]) << "row " << i;
  }
}

void ExpectLinksIdentical(const LinkMatrix& serial,
                          const LinkMatrix& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial.NumNonZeroPairs(), parallel.NumNonZeroPairs());
  EXPECT_EQ(serial.TotalLinks(), parallel.TotalLinks());
  for (size_t i = 0; i < serial.size(); ++i) {
    const auto& row = serial.Row(static_cast<PointIndex>(i));
    ASSERT_EQ(row.size(), parallel.Row(static_cast<PointIndex>(i)).size())
        << "row " << i;
    for (const auto& [j, count] : row) {
      EXPECT_EQ(parallel.Count(static_cast<PointIndex>(i), j), count)
          << "entry (" << i << ", " << j << ")";
    }
  }
}

// θ × thread-count grid over a randomized dataset.
class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(DifferentialTest, ParallelMatchesSerial) {
  const auto [theta, threads] = GetParam();
  const uint64_t seed = 20260806;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 2);
  TransactionJaccard sim(ds);

  auto serial = ComputeNeighbors(sim, theta);
  ASSERT_TRUE(serial.ok());
  PackedNeighborOptions nbr;
  nbr.num_threads = threads;
  auto parallel = ComputeNeighborsPacked(sim, theta, nbr);
  ASSERT_TRUE(parallel.ok());
  ExpectGraphsIdentical(*serial, *parallel);

  // The parallel graph must satisfy the structural invariants on its own.
  diag::InvariantReport report;
  diag::CheckNeighborGraph(*parallel, &report);
  EXPECT_TRUE(report.ok()) << report.violations().front().detail;

  PackedLinkOptions lnk;
  lnk.num_threads = threads;
  const LinkMatrix serial_links = ComputeLinks(*serial);
  const LinkMatrix parallel_links = ComputeLinksPacked(*serial, lnk);
  ExpectLinksIdentical(serial_links, parallel_links);

  diag::InvariantReport link_report;
  diag::CheckLinkMatrixSymmetry(parallel_links, &link_report);
  diag::CheckLinksMatchGraph(*parallel, parallel_links, &link_report);
  EXPECT_TRUE(link_report.ok())
      << link_report.violations().front().detail;
}

INSTANTIATE_TEST_SUITE_P(
    ThetaByThreads, DifferentialTest,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{4},
                                         size_t{8})),
    [](const ::testing::TestParamInfo<DifferentialTest::ParamType>& param) {
      const double theta = std::get<0>(param.param);
      return "theta" + std::to_string(static_cast<int>(theta * 10)) +
             "_threads" + std::to_string(std::get<1>(param.param));
    });

// Varying seeds at a fixed mid-grid configuration, to shake out schedule-
// dependent bugs that a single dataset might mask.
class DifferentialSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialSeedTest, ParallelMatchesSerialAcrossSeeds) {
  const uint64_t seed = GetParam();
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 1);
  TransactionJaccard sim(ds);

  auto serial = ComputeNeighbors(sim, 0.5);
  ASSERT_TRUE(serial.ok());
  PackedNeighborOptions nbr;
  nbr.num_threads = 4;
  nbr.row_chunk = 3;  // force many scheduling steps on a small input
  auto parallel = ComputeNeighborsPacked(sim, 0.5, nbr);
  ASSERT_TRUE(parallel.ok());
  ExpectGraphsIdentical(*serial, *parallel);
  PackedLinkOptions lnk;
  lnk.num_threads = 4;
  lnk.row_chunk = 3;
  ExpectLinksIdentical(ComputeLinks(*serial),
                       ComputeLinksPacked(*serial, lnk));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSeedTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ------------------------------------------------- merge-engine differential --

// The parallel merge engine must reproduce the hashed oracle bit for bit:
// the same merge sequence record by record, the same clustering, the same
// stats. Any divergence in the relink algebra or heap ordering shows up as
// the first differing MergeRecord.

void ExpectRunsIdentical(const RockResult& expected,
                         const RockResult& actual) {
  ASSERT_EQ(expected.merges.size(), actual.merges.size());
  for (size_t m = 0; m < expected.merges.size(); ++m) {
    const MergeRecord& a = expected.merges[m];
    const MergeRecord& b = actual.merges[m];
    ASSERT_EQ(a.left, b.left) << "merge " << m;
    ASSERT_EQ(a.right, b.right) << "merge " << m;
    ASSERT_EQ(a.merged, b.merged) << "merge " << m;
    ASSERT_EQ(a.new_size, b.new_size) << "merge " << m;
    ASSERT_DOUBLE_EQ(a.goodness, b.goodness) << "merge " << m;
  }
  EXPECT_EQ(expected.clustering.assignment, actual.clustering.assignment);
  ASSERT_EQ(expected.clustering.num_clusters(),
            actual.clustering.num_clusters());
  for (size_t c = 0; c < expected.clustering.num_clusters(); ++c) {
    EXPECT_EQ(expected.clustering.clusters[c], actual.clustering.clusters[c])
        << "cluster " << c;
  }
  EXPECT_EQ(expected.stats.num_points, actual.stats.num_points);
  EXPECT_EQ(expected.stats.num_pruned_points, actual.stats.num_pruned_points);
  EXPECT_EQ(expected.stats.num_weeded_clusters,
            actual.stats.num_weeded_clusters);
  EXPECT_EQ(expected.stats.num_weeded_points, actual.stats.num_weeded_points);
  EXPECT_EQ(expected.stats.num_merges, actual.stats.num_merges);
  EXPECT_DOUBLE_EQ(expected.stats.criterion_value,
                   actual.stats.criterion_value);
}

// The parallel engine layers lazy best-cleaning with upper-bound
// priorities, elided heap fixups and periodic dead-entry compaction over
// the Fig. 3 loop, and every one of them must be invisible in the output:
// same MergeRecords, same clustering, same stats as the hashed oracle,
// whatever thread count the graph phases ran with.

RockOptions ParallelGridOptions(double theta, size_t threads, bool weeding) {
  RockOptions opt;
  opt.theta = theta;
  opt.num_clusters = 3;
  if (weeding) {
    opt.outlier_stop_multiple = 3.0;
    opt.min_cluster_support = 4;
  }
  opt.num_threads = threads;
  opt.diag.invariant_check_every = 7;
  return opt;
}

// θ × thread-count × weeding grid. The thread count drives the packed graph
// phases, with a tiny row chunk so they see many scheduling steps on a
// small input. The two oracles are the hashed merge engine over the same
// packed graph (isolating a merge bug) and the all-oracle configuration —
// scalar neighbors, hashed links, hashed merge, all serial — which pins
// the whole production path against the paper-faithful one.
class ParallelEngineDifferentialTest
    : public ::testing::TestWithParam<std::tuple<double, size_t, bool>> {};

TEST_P(ParallelEngineDifferentialTest, ParallelMatchesBothOracles) {
  const auto [theta, threads, weeding] = GetParam();
  const uint64_t seed = 20260806;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 2);
  TransactionJaccard sim(ds);

  RockOptions opt = ParallelGridOptions(theta, threads, weeding);
  opt.row_chunk = 5;
  opt.merge_engine = MergeEngineKind::kHashed;
  auto hashed = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(hashed.ok());
  opt.merge_engine = MergeEngineKind::kParallel;
  auto parallel = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(parallel.ok());

  RockOptions oracle_opt = ParallelGridOptions(theta, 1, weeding);
  oracle_opt.neighbor_engine = NeighborEngineKind::kScalar;
  oracle_opt.link_engine = LinkEngineKind::kHashed;
  oracle_opt.merge_engine = MergeEngineKind::kHashed;
  auto all_oracle = RockClusterer(oracle_opt).Cluster(sim);
  ASSERT_TRUE(all_oracle.ok());

  ExpectRunsIdentical(*hashed, *parallel);
  ExpectRunsIdentical(*all_oracle, *parallel);
  EXPECT_EQ(hashed->metrics.CounterOr("diag.invariant_violations"), 0u);
  EXPECT_EQ(all_oracle->metrics.CounterOr("diag.invariant_violations"), 0u);
  EXPECT_EQ(parallel->metrics.CounterOr("diag.invariant_violations"), 0u);
  EXPECT_GT(parallel->metrics.CounterOr("diag.invariant_checks"), 0u);
  // The thread count must actually have reached the graph phases — a
  // silently serial run would make the threads axis vacuous.
  EXPECT_EQ(parallel->metrics.GaugeOr("graph.threads", -1.0),
            static_cast<double>(threads));
}

INSTANTIATE_TEST_SUITE_P(
    ThetaByThreadsByWeeding, ParallelEngineDifferentialTest,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(size_t{1}, size_t{4}, size_t{8}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<
        ParallelEngineDifferentialTest::ParamType>& param) {
      const double theta = std::get<0>(param.param);
      return "theta" + std::to_string(static_cast<int>(theta * 10)) +
             "_threads" + std::to_string(std::get<1>(param.param)) +
             (std::get<2>(param.param) ? "_weeded" : "_unweeded");
    });

// Varying datasets at the most adversarial grid point (8 threads on ~70
// points, weeding on): different seeds shuffle the merge order and the
// dirty/clean pattern of the lazy best-cleaning.
class ParallelEngineSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEngineSeedTest, ParallelMatchesHashedAcrossDatasets) {
  const uint64_t seed = GetParam();
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 1);
  TransactionJaccard sim(ds);

  RockOptions opt = ParallelGridOptions(0.5, 8, true);
  opt.outlier_stop_multiple = 2.0;
  opt.min_cluster_support = 3;
  opt.diag.invariant_check_every = 5;

  opt.merge_engine = MergeEngineKind::kHashed;
  auto hashed = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(hashed.ok());
  opt.merge_engine = MergeEngineKind::kParallel;
  auto parallel = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(parallel.ok());

  ExpectRunsIdentical(*hashed, *parallel);
  EXPECT_EQ(hashed->metrics.CounterOr("diag.invariant_violations"), 0u);
  EXPECT_EQ(parallel->metrics.CounterOr("diag.invariant_violations"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEngineSeedTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// Degenerate graphs: a link-free graph (every point isolated → everything
// pruned), the complete graph at θ = 0 (densest rows), and a
// hub-and-spokes dataset where one point neighbors everyone (one giant row
// next to width-1 rows), all with weeding disabled.
TEST(ParallelEngineEdgeCaseTest, DegenerateGraphsAgree) {
  TransactionDataset disjoint;
  for (int t = 0; t < 30; ++t) {
    disjoint.AddTransaction({"item_" + std::to_string(2 * t),
                             "item_" + std::to_string(2 * t + 1)});
  }
  const uint64_t seed = 100;
  ROCK_TRACE_SEED(seed);
  TransactionDataset dense = RandomDataset(seed, 1);
  TransactionDataset star;
  star.AddTransaction({"hub_a", "hub_b"});
  for (int t = 0; t < 24; ++t) {
    star.AddTransaction({"hub_a", "spoke_" + std::to_string(t)});
  }

  struct Case {
    const char* name;
    const TransactionDataset* ds;
    double theta;
  };
  const Case cases[] = {{"disjoint", &disjoint, 0.5},
                        {"complete", &dense, 0.0},
                        {"star", &star, 0.3}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TransactionJaccard sim(*c.ds);
    RockOptions opt = ParallelGridOptions(c.theta, 8, false);
    opt.num_clusters = 2;
    opt.diag.invariant_check_every = 3;
    opt.merge_engine = MergeEngineKind::kHashed;
    auto hashed = RockClusterer(opt).Cluster(sim);
    ASSERT_TRUE(hashed.ok());
    opt.merge_engine = MergeEngineKind::kParallel;
    auto parallel = RockClusterer(opt).Cluster(sim);
    ASSERT_TRUE(parallel.ok());
    ExpectRunsIdentical(*hashed, *parallel);
    EXPECT_EQ(hashed->metrics.CounterOr("diag.invariant_violations"), 0u);
    EXPECT_EQ(parallel->metrics.CounterOr("diag.invariant_violations"), 0u);
  }
}

// ------------------------------------------------- link-engine differential --

// The bit-plane link engine must be invisible to everything downstream:
// with the link rows byte-identical, the merge sequence, clustering, stats
// and labels of a full run cannot depend on --link-engine. Exercised across
// both merge engines (parallel probes frozen CSR rows, hashed probes the
// lazily materialized hash rows) so both row representations of the packed
// output are covered end to end.
class LinkEngineClusterDifferentialTest
    : public ::testing::TestWithParam<std::tuple<double, MergeEngineKind>> {};

TEST_P(LinkEngineClusterDifferentialTest, PackedMatchesHashedEndToEnd) {
  const auto [theta, merge_engine] = GetParam();
  const uint64_t seed = 20260808;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 2);
  TransactionJaccard sim(ds);

  RockOptions opt;
  opt.theta = theta;
  opt.num_clusters = 3;
  opt.outlier_stop_multiple = 3.0;
  opt.min_cluster_support = 4;
  opt.num_threads = 4;
  opt.row_chunk = 5;
  opt.diag.invariant_check_every = 7;
  opt.merge_engine = merge_engine;

  opt.link_engine = LinkEngineKind::kHashed;
  auto hashed = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(hashed.ok());
  opt.link_engine = LinkEngineKind::kPacked;
  auto packed = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(packed.ok());

  ExpectRunsIdentical(*hashed, *packed);
  EXPECT_EQ(packed->metrics.CounterOr("diag.invariant_violations"), 0u);

  // Engine-selection accounting: only the packed run packs bit planes, and
  // its candidate enumeration is exact (every candidate pair is stored).
  EXPECT_EQ(packed->metrics.CounterOr("links.candidate_pairs"),
            packed->metrics.CounterOr("links.pairs_counted"));
  ASSERT_NE(packed->metrics.FindTimer("stage.links.pack"), nullptr);
  EXPECT_EQ(hashed->metrics.FindTimer("stage.links.pack"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    ThetaByMergeEngine, LinkEngineClusterDifferentialTest,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(MergeEngineKind::kParallel,
                                         MergeEngineKind::kHashed)),
    [](const ::testing::TestParamInfo<
        LinkEngineClusterDifferentialTest::ParamType>& param) {
      const double theta = std::get<0>(param.param);
      return "theta" + std::to_string(static_cast<int>(theta * 10)) +
             (std::get<1>(param.param) == MergeEngineKind::kParallel
                  ? "_parallel"
                  : "_hashed");
    });

// Full disk pipeline: --link-engine packed vs hashed must deliver identical
// MergeRecords and final labels, including when a packed run crashes at a
// checkpoint and is resumed with the *other* engine — the link engine is
// below the checkpoint's fingerprint, so a cross-engine resume must still
// reproduce the uninterrupted run bit for bit.
class LinkEnginePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::Clear();
    const auto dir = std::filesystem::temp_directory_path();
    const std::string pid = std::to_string(::getpid());
    store_path_ = (dir / ("rock_linkdiff_store_" + pid + ".bin")).string();
    ckpt_path_ = (dir / ("rock_linkdiff_ckpt_" + pid + ".bin")).string();

    // Three well-separated transaction groups (disjoint item ranges) so the
    // sample clusters cleanly and labeling is deterministic.
    Rng rng(0x1b1b);
    TransactionDataset data;
    for (size_t i = 0; i < 120; ++i) {
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
    ASSERT_TRUE(WriteDatasetToStore(data, store_path_).ok());
  }

  void TearDown() override {
    fail::Clear();
    std::remove(store_path_.c_str());
    std::remove(ckpt_path_.c_str());
    std::remove((ckpt_path_ + ".tmp").c_str());
  }

  PipelineOptions Options(LinkEngineKind engine) const {
    PipelineOptions opt;
    opt.rock.theta = 0.5;
    opt.rock.num_clusters = 3;
    opt.rock.link_engine = engine;
    opt.sample_size = 60;
    opt.seed = 2026;
    opt.labeling.seed = 11;
    return opt;
  }

  static void ExpectPipelinesIdentical(const PipelineResult& a,
                                       const PipelineResult& b) {
    EXPECT_EQ(a.sample_rows, b.sample_rows);
    EXPECT_EQ(a.sample_result.clustering.assignment,
              b.sample_result.clustering.assignment);
    EXPECT_EQ(a.sample_result.clustering.clusters,
              b.sample_result.clustering.clusters);
    ASSERT_EQ(a.sample_result.merges.size(), b.sample_result.merges.size());
    for (size_t m = 0; m < a.sample_result.merges.size(); ++m) {
      const MergeRecord& x = a.sample_result.merges[m];
      const MergeRecord& y = b.sample_result.merges[m];
      ASSERT_EQ(x.left, y.left) << "merge " << m;
      ASSERT_EQ(x.right, y.right) << "merge " << m;
      ASSERT_EQ(x.merged, y.merged) << "merge " << m;
      ASSERT_EQ(x.new_size, y.new_size) << "merge " << m;
      ASSERT_DOUBLE_EQ(x.goodness, y.goodness) << "merge " << m;
    }
    EXPECT_EQ(a.labeling.assignments, b.labeling.assignments);
    EXPECT_EQ(a.labeling.num_outliers, b.labeling.num_outliers);
  }

  std::string store_path_;
  std::string ckpt_path_;
};

TEST_F(LinkEnginePipelineTest, PackedAndHashedPipelinesAreIdentical) {
  auto packed = RunRockPipeline(store_path_, Options(LinkEngineKind::kPacked));
  ASSERT_TRUE(packed.ok()) << packed.status().ToString();
  auto hashed = RunRockPipeline(store_path_, Options(LinkEngineKind::kHashed));
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  ExpectPipelinesIdentical(*packed, *hashed);
}

TEST_F(LinkEnginePipelineTest, CrossEngineResumeMatchesUninterruptedRun) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline =
      RunRockPipeline(store_path_, Options(LinkEngineKind::kHashed));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Crash a packed-engine run at its second checkpoint write...
  auto crashed_opt = Options(LinkEngineKind::kPacked);
  crashed_opt.checkpoint_path = ckpt_path_;
  crashed_opt.rock.failpoints = "pipeline.checkpoint=fire_on_hit_2:crash";
  auto crashed = RunRockPipeline(store_path_, crashed_opt);
  ASSERT_FALSE(crashed.ok()) << "the injected crash must abort the run";
  ASSERT_TRUE(fail::IsInjectedCrash(crashed.status()))
      << crashed.status().ToString();

  // ...then "restart the process" and resume with the hashed engine.
  fail::Clear();
  auto resumed_opt = Options(LinkEngineKind::kHashed);
  resumed_opt.checkpoint_path = ckpt_path_;
  resumed_opt.resume = true;
  auto resumed = RunRockPipeline(store_path_, resumed_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  ExpectPipelinesIdentical(*resumed, *baseline);

  // And the mirror image: hashed crash, packed resume.
  auto crashed2_opt = Options(LinkEngineKind::kHashed);
  crashed2_opt.checkpoint_path = ckpt_path_;
  crashed2_opt.rock.failpoints = "pipeline.checkpoint=fire_on_hit_2:crash";
  auto crashed2 = RunRockPipeline(store_path_, crashed2_opt);
  ASSERT_FALSE(crashed2.ok());
  ASSERT_TRUE(fail::IsInjectedCrash(crashed2.status()));
  fail::Clear();
  auto resumed2_opt = Options(LinkEngineKind::kPacked);
  resumed2_opt.checkpoint_path = ckpt_path_;
  resumed2_opt.resume = true;
  auto resumed2 = RunRockPipeline(store_path_, resumed2_opt);
  ASSERT_TRUE(resumed2.ok()) << resumed2.status().ToString();
  EXPECT_TRUE(resumed2->resumed);
  ExpectPipelinesIdentical(*resumed2, *baseline);
}

// Crash/resume across *merge* engines: a run that crashes mid-pipeline
// under the parallel engine (graph phases on 4 threads) must resume under
// the hashed oracle into the exact uninterrupted result, and vice versa —
// the merge engine and the thread count, like the link engine, live below
// the checkpoint fingerprint.
TEST_F(LinkEnginePipelineTest, ParallelMergeResumeMatchesUninterruptedRun) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline_opt = Options(LinkEngineKind::kHashed);
  baseline_opt.rock.merge_engine = MergeEngineKind::kHashed;
  auto baseline = RunRockPipeline(store_path_, baseline_opt);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Crash a parallel-engine run at its second checkpoint write...
  auto crashed_opt = Options(LinkEngineKind::kHashed);
  crashed_opt.rock.merge_engine = MergeEngineKind::kParallel;
  crashed_opt.rock.num_threads = 4;
  crashed_opt.checkpoint_path = ckpt_path_;
  crashed_opt.rock.failpoints = "pipeline.checkpoint=fire_on_hit_2:crash";
  auto crashed = RunRockPipeline(store_path_, crashed_opt);
  ASSERT_FALSE(crashed.ok()) << "the injected crash must abort the run";
  ASSERT_TRUE(fail::IsInjectedCrash(crashed.status()))
      << crashed.status().ToString();

  // ...then resume it with the hashed engine.
  fail::Clear();
  auto resumed_opt = Options(LinkEngineKind::kHashed);
  resumed_opt.rock.merge_engine = MergeEngineKind::kHashed;
  resumed_opt.checkpoint_path = ckpt_path_;
  resumed_opt.resume = true;
  auto resumed = RunRockPipeline(store_path_, resumed_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  ExpectPipelinesIdentical(*resumed, *baseline);

  // Mirror image: hashed crash, parallel resume at 8 threads.
  auto crashed2_opt = Options(LinkEngineKind::kHashed);
  crashed2_opt.rock.merge_engine = MergeEngineKind::kHashed;
  crashed2_opt.checkpoint_path = ckpt_path_;
  crashed2_opt.rock.failpoints = "pipeline.checkpoint=fire_on_hit_2:crash";
  auto crashed2 = RunRockPipeline(store_path_, crashed2_opt);
  ASSERT_FALSE(crashed2.ok());
  ASSERT_TRUE(fail::IsInjectedCrash(crashed2.status()));
  fail::Clear();
  auto resumed2_opt = Options(LinkEngineKind::kHashed);
  resumed2_opt.rock.merge_engine = MergeEngineKind::kParallel;
  resumed2_opt.rock.num_threads = 8;
  resumed2_opt.checkpoint_path = ckpt_path_;
  resumed2_opt.resume = true;
  auto resumed2 = RunRockPipeline(store_path_, resumed2_opt);
  ASSERT_TRUE(resumed2.ok()) << resumed2.status().ToString();
  EXPECT_TRUE(resumed2->resumed);
  ExpectPipelinesIdentical(*resumed2, *baseline);
}

// ------------------------------------------------------------- edge cases --

// Pairwise-disjoint transactions → Jaccard 0 for every pair → empty
// neighbor graph at any θ > 0, zero links.
TEST(DifferentialEdgeCaseTest, EmptyGraph) {
  TransactionDataset ds;
  for (int t = 0; t < 40; ++t) {
    ds.AddTransaction({"item_" + std::to_string(2 * t),
                       "item_" + std::to_string(2 * t + 1)});
  }
  TransactionJaccard sim(ds);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PackedNeighborOptions nbr;
    nbr.num_threads = threads;
    auto serial = ComputeNeighbors(sim, 0.5);
    ASSERT_TRUE(serial.ok());
    auto parallel = ComputeNeighborsPacked(sim, 0.5, nbr);
    ASSERT_TRUE(parallel.ok());
    ExpectGraphsIdentical(*serial, *parallel);
    EXPECT_EQ(parallel->NumEdges(), 0u);
    PackedLinkOptions lnk;
    lnk.num_threads = threads;
    const LinkMatrix links = ComputeLinksPacked(*parallel, lnk);
    EXPECT_EQ(links.NumNonZeroPairs(), 0u);
    EXPECT_EQ(links.TotalLinks(), 0u);
    ExpectLinksIdentical(ComputeLinks(*serial), links);
  }
}

// θ = 0 → every pair of points is a neighbor (complete graph): the densest
// possible link structure, n−2 links on every pair.
TEST(DifferentialEdgeCaseTest, AllNeighborsGraph) {
  const uint64_t seed = 100;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 1);
  TransactionJaccard sim(ds);
  const size_t n = ds.size();
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PackedNeighborOptions nbr;
    nbr.num_threads = threads;
    auto serial = ComputeNeighbors(sim, 0.0);
    ASSERT_TRUE(serial.ok());
    auto parallel = ComputeNeighborsPacked(sim, 0.0, nbr);
    ASSERT_TRUE(parallel.ok());
    ExpectGraphsIdentical(*serial, *parallel);
    EXPECT_EQ(parallel->NumEdges(), n * (n - 1) / 2);
    PackedLinkOptions lnk;
    lnk.num_threads = threads;
    const LinkMatrix links = ComputeLinksPacked(*parallel, lnk);
    ExpectLinksIdentical(ComputeLinks(*serial), links);
    // Complete graph: link(i, j) = n − 2 for every pair.
    EXPECT_EQ(links.Count(0, 1), static_cast<LinkCount>(n - 2));
    EXPECT_EQ(links.TotalLinks(),
              static_cast<uint64_t>(n) * (n - 1) / 2 * (n - 2));
  }
}

// Tiny inputs: fewer points than threads, and the empty / single-point /
// two-point graphs must not trip range or scheduling bugs.
TEST(DifferentialEdgeCaseTest, FewerPointsThanThreads) {
  for (size_t n : {0u, 1u, 2u, 3u}) {
    NeighborGraph g;
    g.nbrlist.resize(n);
    if (n >= 2) {
      // Path graph 0 – 1 – … – (n−1).
      for (size_t i = 0; i + 1 < n; ++i) {
        g.nbrlist[i].push_back(static_cast<PointIndex>(i + 1));
        g.nbrlist[i + 1].push_back(static_cast<PointIndex>(i));
      }
      for (auto& row : g.nbrlist) std::sort(row.begin(), row.end());
    }
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      PackedLinkOptions lnk;
      lnk.num_threads = threads;
      ExpectLinksIdentical(ComputeLinks(g), ComputeLinksPacked(g, lnk));
    }
  }
}

}  // namespace
}  // namespace rock
