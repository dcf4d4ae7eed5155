// Tests for similarity/packed.h + graph/neighbor_engine.h — the packed
// neighbor engine must produce bit-identical NeighborGraphs to the scalar
// per-pair oracle across θ, seeds, thread counts, pruning strategies and
// dataset shapes (empty rows, duplicate rows, missing values, θ ∈ {0, 1}).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/rock.h"
#include "data/dataset.h"
#include "diag/metrics.h"
#include "graph/neighbor_engine.h"
#include "graph/neighbors.h"
#include "similarity/jaccard.h"
#include "similarity/minhash.h"
#include "similarity/packed.h"
#include "similarity/similarity_table.h"
#include "test_support.h"

namespace rock {
namespace {

// ------------------------------------------------------ dataset factories --

// Random basket data: `empty_per_mille` rows are empty, and row 1 (when
// present) duplicates row 0 so identical sets exist at every θ.
TransactionDataset RandomBaskets(size_t n, uint32_t universe, size_t max_items,
                                 uint32_t empty_per_mille, Rng* rng) {
  TransactionDataset dataset;
  for (size_t r = 0; r < n; ++r) {
    if (r == 1) {
      dataset.AddTransaction(dataset.transaction(0));
      continue;
    }
    if (rng->UniformUint64(1000) < empty_per_mille) {
      dataset.AddTransaction(Transaction{});
      continue;
    }
    std::vector<ItemId> items;
    const size_t count = 1 + static_cast<size_t>(rng->UniformUint64(max_items));
    for (size_t k = 0; k < count; ++k) {
      items.push_back(static_cast<ItemId>(rng->UniformUint64(universe)));
    }
    dataset.AddTransaction(Transaction(std::move(items)));
  }
  return dataset;
}

// Random categorical data over d attributes with missing cells (including,
// at missing_per_mille == 1000, all-missing records).
CategoricalDataset RandomRecords(size_t n, size_t d, uint32_t domain,
                                 uint32_t missing_per_mille, Rng* rng) {
  std::vector<std::string> names;
  for (size_t a = 0; a < d; ++a) {
    names.push_back(std::string("a").append(std::to_string(a)));
  }
  CategoricalDataset dataset{Schema(names)};
  for (size_t r = 0; r < n; ++r) {
    std::vector<ValueId> values;
    for (size_t a = 0; a < d; ++a) {
      if (rng->UniformUint64(1000) < missing_per_mille) {
        values.push_back(kMissingValue);
      } else {
        values.push_back(static_cast<ValueId>(rng->UniformUint64(domain)));
      }
    }
    EXPECT_TRUE(dataset.AddRecord(Record(std::move(values))).ok());
  }
  return dataset;
}

// --------------------------------------------------- packed kernel (unit) --

TEST(PackedKernelTest, IntersectPopcountMatchesScalarReference) {
  ROCK_SEEDED_RNG(rng, 20260806);
  // Lengths straddle the AVX2 block size (4 words) to cover every tail.
  for (const size_t words : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 12u, 33u}) {
    std::vector<uint64_t> a(words), b(words);
    uint64_t expected = 0;
    for (size_t w = 0; w < words; ++w) {
      a[w] = rng.NextUint64();
      b[w] = rng.NextUint64();
      expected += static_cast<uint64_t>(std::popcount(a[w] & b[w]));
    }
    EXPECT_EQ(IntersectPopcount(a.data(), b.data(), words), expected)
        << "words = " << words;
  }
}

TEST(PackedJaccardTest, TransactionValuesBitIdenticalToOracle) {
  ROCK_SEEDED_RNG(rng, 7);
  const TransactionDataset dataset = RandomBaskets(60, 300, 20, 100, &rng);
  const TransactionJaccard oracle(dataset);
  const auto batch = oracle.MakeBatch();
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->size(), dataset.size());
  ASSERT_NE(batch->prune_sizes(), nullptr);
  ASSERT_NE(batch->items(), nullptr);
  for (size_t i = 0; i < dataset.size(); ++i) {
    std::vector<uint32_t> js;
    for (size_t j = 0; j < dataset.size(); ++j) {
      js.push_back(static_cast<uint32_t>(j));
    }
    std::vector<double> got(js.size());
    batch->SimilarityBatch(i, js.data(), js.size(), got.data());
    for (size_t j = 0; j < js.size(); ++j) {
      EXPECT_EQ(got[j], oracle.Similarity(i, j)) << i << "," << j;
    }
    EXPECT_EQ((*batch->prune_sizes())[i],
              static_cast<uint32_t>(dataset.transaction(i).size()));
  }
}

TEST(PackedJaccardTest, CategoricalValuesBitIdenticalToOracle) {
  ROCK_SEEDED_RNG(rng, 11);
  const CategoricalDataset dataset = RandomRecords(50, 9, 6, 250, &rng);
  const CategoricalJaccard oracle(dataset);
  const auto batch = oracle.MakeBatch();
  ASSERT_NE(batch, nullptr);
  ASSERT_NE(batch->prune_sizes(), nullptr);
  for (size_t i = 0; i < dataset.size(); ++i) {
    for (size_t j = 0; j < dataset.size(); ++j) {
      const auto jj = static_cast<uint32_t>(j);
      double got = -1;
      batch->SimilarityBatch(i, &jj, 1, &got);
      EXPECT_EQ(got, oracle.Similarity(i, j)) << i << "," << j;
    }
  }
}

TEST(PackedJaccardTest, PairwiseMissingValuesBitIdenticalToOracle) {
  ROCK_SEEDED_RNG(rng, 13);
  const CategoricalDataset dataset = RandomRecords(50, 9, 6, 400, &rng);
  const PairwiseMissingJaccard oracle(dataset);
  const auto batch = oracle.MakeBatch();
  ASSERT_NE(batch, nullptr);
  // No length bound exists for pairwise-missing semantics, but the item
  // view does (sim > 0 needs a shared present-and-equal value).
  EXPECT_EQ(batch->prune_sizes(), nullptr);
  ASSERT_NE(batch->items(), nullptr);
  for (size_t i = 0; i < dataset.size(); ++i) {
    for (size_t j = 0; j < dataset.size(); ++j) {
      const auto jj = static_cast<uint32_t>(j);
      double got = -1;
      batch->SimilarityBatch(i, &jj, 1, &got);
      EXPECT_EQ(got, oracle.Similarity(i, j)) << i << "," << j;
    }
  }
}

TEST(PackedJaccardTest, OverBudgetPackingReturnsNull) {
  ROCK_SEEDED_RNG(rng, 17);
  const TransactionDataset dataset = RandomBaskets(64, 1024, 12, 0, &rng);
  EXPECT_EQ(PackedJaccard::PackTransactions(dataset, /*max_bytes=*/64),
            nullptr);
  EXPECT_NE(PackedJaccard::PackTransactions(dataset), nullptr);
}

TEST(PackedJaccardTest, EmptyDatasetPacks) {
  const TransactionDataset dataset;
  const auto batch = PackedJaccard::PackTransactions(dataset);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->size(), 0u);
  EXPECT_EQ(batch->words_per_row(), 0u);
}

// ------------------------------------------------------- engine (differential)

std::vector<PackedStrategy> AllStrategies() {
  return {PackedStrategy::kAuto, PackedStrategy::kWindow,
          PackedStrategy::kCandidates};
}

// Asserts the packed engine reproduces the scalar oracle exactly and that
// the pairs accounting covers the full triangle.
void ExpectEngineMatchesOracle(const PointSimilarity& sim, double theta) {
  const auto oracle = ComputeNeighbors(sim, theta);
  ASSERT_TRUE(oracle.ok());
  const size_t n = sim.size();
  const uint64_t total =
      n < 2 ? 0 : static_cast<uint64_t>(n) * static_cast<uint64_t>(n - 1) / 2;
  for (const PackedStrategy strategy : AllStrategies()) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "theta=" << theta << " strategy="
                   << static_cast<int>(strategy) << " threads=" << threads);
      diag::MetricsRegistry metrics;
      PackedNeighborOptions options;
      options.num_threads = threads;
      options.row_chunk = 3;  // ragged chunks on purpose
      options.strategy = strategy;
      options.metrics = &metrics;
      const auto packed = ComputeNeighborsPacked(sim, theta, options);
      ASSERT_TRUE(packed.ok());
      EXPECT_EQ(packed->nbrlist, oracle->nbrlist);
      const auto snap = metrics.Snapshot();
      EXPECT_EQ(snap.CounterOr("neighbors.pairs_evaluated") +
                    snap.CounterOr("neighbors.pairs_pruned"),
                total);
      EXPECT_NE(snap.FindTimer("stage.neighbors.pack"), nullptr);
    }
  }
}

TEST(NeighborEngineTest, TransactionGridMatchesOracle) {
  const double thetas[] = {0.0, 0.2, 0.5, 0.73, 1.0};
  const uint64_t seeds[] = {1, 2, 3};
  for (const uint64_t seed : seeds) {
    ROCK_SEEDED_RNG(rng, seed);
    // Shapes: dense small universe, sparse large universe, heavy empties.
    const TransactionDataset shapes[] = {
        RandomBaskets(40, 24, 10, 50, &rng),
        RandomBaskets(70, 900, 8, 0, &rng),
        RandomBaskets(30, 60, 6, 400, &rng),
    };
    for (const auto& dataset : shapes) {
      const TransactionJaccard sim(dataset);
      for (const double theta : thetas) {
        ExpectEngineMatchesOracle(sim, theta);
      }
    }
  }
}

TEST(NeighborEngineTest, CategoricalGridMatchesOracle) {
  for (const uint64_t seed : {5u, 6u}) {
    ROCK_SEEDED_RNG(rng, seed);
    const CategoricalDataset dataset = RandomRecords(45, 8, 5, 300, &rng);
    const CategoricalJaccard sim(dataset);
    const PairwiseMissingJaccard pairwise(dataset);
    for (const double theta : {0.0, 0.4, 0.8, 1.0}) {
      ExpectEngineMatchesOracle(sim, theta);
      ExpectEngineMatchesOracle(pairwise, theta);
    }
  }
}

TEST(NeighborEngineTest, DegenerateShapes) {
  // Empty and single-point datasets.
  TransactionDataset empty;
  ExpectEngineMatchesOracle(TransactionJaccard(empty), 0.5);
  TransactionDataset one;
  one.AddTransaction(Transaction{1, 2, 3});
  ExpectEngineMatchesOracle(TransactionJaccard(one), 0.5);

  // All rows identical: every pair is a neighbor even at θ = 1.
  TransactionDataset identical;
  for (int r = 0; r < 12; ++r) {
    identical.AddTransaction(Transaction{4, 9, 17});
  }
  ExpectEngineMatchesOracle(TransactionJaccard(identical), 1.0);
  ExpectEngineMatchesOracle(TransactionJaccard(identical), 0.0);

  // All rows empty: sim == 0 everywhere, so the complete graph at θ = 0
  // and no edges at θ > 0.
  TransactionDataset empties;
  for (int r = 0; r < 9; ++r) empties.AddTransaction(Transaction{});
  ExpectEngineMatchesOracle(TransactionJaccard(empties), 0.0);
  ExpectEngineMatchesOracle(TransactionJaccard(empties), 0.25);
  ExpectEngineMatchesOracle(TransactionJaccard(empties), 1.0);
}

TEST(NeighborEngineTest, FallsBackToScalarWithoutBatchKernel) {
  // SimilarityTable has no MakeBatch — the engine must fall back and say so.
  SimilarityTable table(4);
  ASSERT_TRUE(table.Set(0, 1, 0.9).ok());
  ASSERT_TRUE(table.Set(2, 3, 0.8).ok());
  diag::MetricsRegistry metrics;
  PackedNeighborOptions options;
  options.metrics = &metrics;
  const auto packed = ComputeNeighborsPacked(table, 0.5, options);
  ASSERT_TRUE(packed.ok());
  const auto oracle = ComputeNeighbors(table, 0.5);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(packed->nbrlist, oracle->nbrlist);
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterOr("neighbors.fallback_scalar"), 1u);
  EXPECT_EQ(snap.CounterOr("neighbors.pairs_evaluated"), 6u);
  EXPECT_EQ(snap.CounterOr("neighbors.pairs_pruned"), 0u);
}

TEST(NeighborEngineTest, CandidatePassCounterFires) {
  ROCK_SEEDED_RNG(rng, 23);
  const TransactionDataset dataset = RandomBaskets(50, 400, 6, 0, &rng);
  const TransactionJaccard sim(dataset);
  diag::MetricsRegistry metrics;
  PackedNeighborOptions options;
  options.strategy = PackedStrategy::kCandidates;
  options.metrics = &metrics;
  ASSERT_TRUE(ComputeNeighborsPacked(sim, 0.5, options).ok());
  EXPECT_EQ(metrics.Snapshot().CounterOr("neighbors.candidate_pass"), 1u);
  // θ = 0 needs the complete graph; the engine must refuse the candidate
  // pass even when asked for it.
  diag::MetricsRegistry metrics0;
  options.metrics = &metrics0;
  ASSERT_TRUE(ComputeNeighborsPacked(sim, 0.0, options).ok());
  EXPECT_EQ(metrics0.Snapshot().CounterOr("neighbors.candidate_pass"), 0u);
}

// ---------------------------------------------------------------- LSH pass --

// The LSH contract (see graph/neighbor_engine.h): every emitted edge is
// exact (precision 1), recall follows the banding curve 1 − (1 − s^r)^b,
// and for a fixed seed the graph is identical at any thread count.

std::vector<uint64_t> EdgeList(const NeighborGraph& graph) {
  std::vector<uint64_t> edges;
  for (size_t i = 0; i < graph.size(); ++i) {
    for (const PointIndex j : graph.nbrlist[i]) {
      if (j > i) edges.push_back((uint64_t{i} << 32) | j);
    }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

// Basket mix engineered so every tested θ sees many genuine edges: random
// background rows plus near-duplicate groups, each drawn from a 13-item
// pool with one item dropped per row so in-group similarities sit in
// {11/13 ≈ 0.846, 1} — above every θ in the grid.
TransactionDataset LshRecallBaskets(Rng* rng) {
  TransactionDataset dataset;
  for (size_t r = 0; r < 40; ++r) {
    std::vector<ItemId> items;
    const size_t count = 1 + static_cast<size_t>(rng->UniformUint64(10));
    for (size_t k = 0; k < count; ++k) {
      items.push_back(static_cast<ItemId>(rng->UniformUint64(30)));
    }
    dataset.AddTransaction(Transaction(std::move(items)));
  }
  for (uint32_t g = 0; g < 15; ++g) {
    const ItemId base = 100 + 13 * g;
    for (size_t m = 0; m < 4; ++m) {
      const auto drop = static_cast<ItemId>(rng->UniformUint64(13));
      std::vector<ItemId> items;
      for (ItemId k = 0; k < 13; ++k) {
        if (k != drop) items.push_back(base + k);
      }
      dataset.AddTransaction(Transaction(std::move(items)));
    }
  }
  return dataset;
}

// Deliberately weak banding (b = 4, r = 4) makes recall genuinely
// fractional, so the observed rate actually exercises the prediction
// instead of saturating at 1. Everything is deterministic for fixed
// seeds; the tolerance absorbs the correlation between pairs that share
// a row's signature.
TEST(NeighborEngineLshTest, RecallTracksCollisionProbability) {
  for (const double theta : {0.3, 0.5, 0.73, 0.8}) {
    SCOPED_TRACE(::testing::Message() << "theta = " << theta);
    double expected_sum = 0.0;
    uint64_t oracle_edges = 0;
    uint64_t recalled = 0;
    for (const uint64_t seed : {101u, 202u, 303u}) {
      ROCK_SEEDED_RNG(rng, seed);
      const TransactionDataset dataset = LshRecallBaskets(&rng);
      const TransactionJaccard sim(dataset);
      const auto oracle = ComputeNeighbors(sim, theta);
      ASSERT_TRUE(oracle.ok());

      LshOptions weak;
      weak.num_bands = 4;
      weak.rows_per_band = 4;
      weak.seed = seed;
      PackedNeighborOptions options;
      options.strategy = PackedStrategy::kLsh;
      options.lsh = weak;
      const auto packed = ComputeNeighborsPacked(sim, theta, options);
      ASSERT_TRUE(packed.ok());

      const std::vector<uint64_t> got = EdgeList(*packed);
      const std::vector<uint64_t> want = EdgeList(*oracle);
      for (const uint64_t edge : got) {
        EXPECT_TRUE(std::binary_search(want.begin(), want.end(), edge))
            << "LSH edge (" << (edge >> 32) << ", " << (edge & 0xffffffffu)
            << ") not in the exact graph — precision must be 1";
      }
      for (const uint64_t edge : want) {
        ++oracle_edges;
        expected_sum += LshCollisionProbability(
            sim.Similarity(edge >> 32, edge & 0xffffffffu), weak);
        if (std::binary_search(got.begin(), got.end(), edge)) ++recalled;
      }
    }
    ASSERT_GT(oracle_edges, 50u) << "dataset must produce real statistics";
    const double observed =
        static_cast<double>(recalled) / static_cast<double>(oracle_edges);
    const double predicted = expected_sum / static_cast<double>(oracle_edges);
    EXPECT_NEAR(observed, predicted, 0.1);
  }
}

TEST(NeighborEngineLshTest, DeterministicAcrossThreadCountsAndRuns) {
  ROCK_SEEDED_RNG(rng, 71);
  const TransactionDataset dataset = LshRecallBaskets(&rng);
  const TransactionJaccard sim(dataset);
  const auto oracle_edges = [&] {
    const auto oracle = ComputeNeighbors(sim, 0.5);
    EXPECT_TRUE(oracle.ok());
    return EdgeList(*oracle);
  }();

  for (const uint64_t lsh_seed : {123u, 456u}) {
    SCOPED_TRACE(::testing::Message() << "lsh_seed = " << lsh_seed);
    NeighborGraph golden;
    uint64_t golden_candidates = 0;
    uint64_t golden_evaluated = 0;
    bool have_golden = false;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        SCOPED_TRACE(::testing::Message()
                     << "threads = " << threads << " repeat = " << repeat);
        diag::MetricsRegistry metrics;
        PackedNeighborOptions options;
        options.strategy = PackedStrategy::kLsh;
        options.lsh = TuneLshOptions(0.5, lsh_seed);
        options.num_threads = threads;
        options.row_chunk = 3;
        options.metrics = &metrics;
        const auto packed = ComputeNeighborsPacked(sim, 0.5, options);
        ASSERT_TRUE(packed.ok());
        const auto snap = metrics.Snapshot();
        EXPECT_EQ(snap.CounterOr("neighbors.lsh_pass"), 1u);
        if (!have_golden) {
          golden = *packed;
          golden_candidates = snap.CounterOr("neighbors.lsh_candidates");
          golden_evaluated = snap.CounterOr("neighbors.pairs_evaluated");
          have_golden = true;
          // The golden run must itself be a subgraph of the exact oracle.
          for (const uint64_t edge : EdgeList(golden)) {
            ASSERT_TRUE(std::binary_search(oracle_edges.begin(),
                                           oracle_edges.end(), edge));
          }
          continue;
        }
        EXPECT_EQ(packed->nbrlist, golden.nbrlist)
            << "LSH must be deterministic for a fixed seed";
        EXPECT_EQ(snap.CounterOr("neighbors.lsh_candidates"),
                  golden_candidates);
        EXPECT_EQ(snap.CounterOr("neighbors.pairs_evaluated"),
                  golden_evaluated);
      }
    }
  }
}

TEST(NeighborEngineLshTest, SkipsEmptyRowsAtBandingTime) {
  // All-max signatures of empty rows collide in every band; skipping them
  // at banding time keeps that quadratic candidate mass out of the pass
  // entirely. With 60 empties and one genuine pair, the candidate count
  // must be exactly 1 — the regression (banding the empties) would report
  // 1 + C(60, 2) = 1771.
  TransactionDataset sharp;
  for (int r = 0; r < 60; ++r) sharp.AddTransaction(Transaction{});
  sharp.AddTransaction(Transaction{1, 2, 3});
  sharp.AddTransaction(Transaction{1, 2, 3});
  const TransactionJaccard sharp_sim(sharp);
  diag::MetricsRegistry sharp_metrics;
  PackedNeighborOptions options;
  options.strategy = PackedStrategy::kLsh;
  options.metrics = &sharp_metrics;
  const auto pair_graph = ComputeNeighborsPacked(sharp_sim, 0.5, options);
  ASSERT_TRUE(pair_graph.ok());
  const auto sharp_snap = sharp_metrics.Snapshot();
  EXPECT_EQ(sharp_snap.CounterOr("neighbors.lsh_skipped_empty"), 60u);
  EXPECT_EQ(sharp_snap.CounterOr("neighbors.lsh_candidates"), 1u);
  EXPECT_EQ(pair_graph->nbrlist[60], (std::vector<PointIndex>{61}));
  EXPECT_EQ(pair_graph->nbrlist[61], (std::vector<PointIndex>{60}));

  // Random mixed data: the counter equals the exact empty-row count and
  // every empty row stays isolated.
  ROCK_SEEDED_RNG(rng, 29);
  const TransactionDataset dataset = RandomBaskets(90, 24, 8, 400, &rng);
  uint64_t empties = 0;
  for (size_t r = 0; r < dataset.size(); ++r) {
    if (dataset.transaction(r).empty()) ++empties;
  }
  ASSERT_GT(empties, 0u);
  const TransactionJaccard sim(dataset);
  diag::MetricsRegistry metrics;
  options.metrics = &metrics;
  const auto packed = ComputeNeighborsPacked(sim, 0.5, options);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(metrics.Snapshot().CounterOr("neighbors.lsh_skipped_empty"),
            empties);
  for (size_t r = 0; r < dataset.size(); ++r) {
    if (dataset.transaction(r).empty()) {
      EXPECT_TRUE(packed->nbrlist[r].empty()) << "row " << r;
    }
  }
}

TEST(NeighborEngineLshTest, DegradesToWindowAtThetaZero) {
  // θ = 0 needs the complete graph (empty rows neighbor everything while
  // sharing no items), so a forced kLsh must degrade to the exact window
  // pass rather than emit a candidate-limited subgraph.
  ROCK_SEEDED_RNG(rng, 31);
  const TransactionDataset dataset = RandomBaskets(40, 24, 8, 100, &rng);
  const TransactionJaccard sim(dataset);
  const auto oracle = ComputeNeighbors(sim, 0.0);
  ASSERT_TRUE(oracle.ok());
  diag::MetricsRegistry metrics;
  PackedNeighborOptions options;
  options.strategy = PackedStrategy::kLsh;
  options.metrics = &metrics;
  const auto packed = ComputeNeighborsPacked(sim, 0.0, options);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->nbrlist, oracle->nbrlist);
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterOr("neighbors.lsh_pass"), 0u);
  const auto n = static_cast<uint64_t>(dataset.size());
  EXPECT_EQ(snap.CounterOr("neighbors.pairs_evaluated") +
                snap.CounterOr("neighbors.pairs_pruned"),
            n * (n - 1) / 2);
}

TEST(NeighborEngineLshTest, AutoKeepsExactPassesOnSmallUniverses) {
  // Small dense universes are inverted-index country: the sampled cost
  // model must leave kAuto on an exact pass even with LSH allowed, so
  // the result stays bit-identical to the oracle.
  ROCK_SEEDED_RNG(rng, 37);
  const TransactionDataset dataset = RandomBaskets(60, 32, 8, 50, &rng);
  const TransactionJaccard sim(dataset);
  const auto oracle = ComputeNeighbors(sim, 0.5);
  ASSERT_TRUE(oracle.ok());
  diag::MetricsRegistry metrics;
  PackedNeighborOptions options;
  options.allow_lsh = true;
  options.lsh = TuneLshOptions(0.5, 0x5eed);
  options.metrics = &metrics;
  const auto packed = ComputeNeighborsPacked(sim, 0.5, options);
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(packed->nbrlist, oracle->nbrlist);
  EXPECT_EQ(metrics.Snapshot().CounterOr("neighbors.lsh_pass"), 0u);
}

TEST(NeighborEngineLshTest, AutoPicksLshOnHeavyHitterBaskets) {
  // 200 clusters × 10 rows; each row carries 8 of its cluster's 10
  // private items plus 4 global heavy-hitter items. The heavy hitters
  // cost the inverted-index ScanCount ~4 · C(2000, 2) increments and the
  // uniform row sizes disarm the window length bound, while banding
  // collapses the candidate mass to in-cluster pairs — the regime where
  // the sampled cost model must flip kAuto to LSH.
  ROCK_SEEDED_RNG(rng, 43);
  TransactionDataset dataset;
  for (uint32_t c = 0; c < 200; ++c) {
    for (size_t m = 0; m < 10; ++m) {
      auto drop_a = static_cast<ItemId>(rng.UniformUint64(10));
      auto drop_b = static_cast<ItemId>(rng.UniformUint64(10));
      if (drop_a == drop_b) drop_b = (drop_b + 1) % 10;
      std::vector<ItemId> items{2000, 2001, 2002, 2003};
      for (ItemId k = 0; k < 10; ++k) {
        if (k != drop_a && k != drop_b) items.push_back(10 * c + k);
      }
      dataset.AddTransaction(Transaction(std::move(items)));
    }
  }
  const TransactionJaccard sim(dataset);
  const double theta = 0.73;
  const auto oracle = ComputeNeighbors(sim, theta);
  ASSERT_TRUE(oracle.ok());
  const std::vector<uint64_t> want = EdgeList(*oracle);

  NeighborGraph golden;
  bool have_golden = false;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads = " << threads);
    diag::MetricsRegistry metrics;
    PackedNeighborOptions options;
    options.allow_lsh = true;
    options.lsh = LshOptions{4, 4, 9};
    options.num_threads = threads;
    options.metrics = &metrics;
    const auto packed = ComputeNeighborsPacked(sim, theta, options);
    ASSERT_TRUE(packed.ok());
    EXPECT_EQ(metrics.Snapshot().CounterOr("neighbors.lsh_pass"), 1u)
        << "the cost model must choose LSH on heavy-hitter data";
    const std::vector<uint64_t> got = EdgeList(*packed);
    EXPECT_GT(got.size(), 0u);
    for (const uint64_t edge : got) {
      ASSERT_TRUE(std::binary_search(want.begin(), want.end(), edge))
          << "precision must be 1";
    }
    if (!have_golden) {
      golden = *packed;
      have_golden = true;
    } else {
      EXPECT_EQ(packed->nbrlist, golden.nbrlist);
    }
  }
}

TEST(NeighborEngineTest, RejectsBadTheta) {
  TransactionDataset dataset;
  dataset.AddTransaction(Transaction{1});
  const TransactionJaccard sim(dataset);
  EXPECT_FALSE(ComputeNeighborsPacked(sim, -0.1).ok());
  EXPECT_FALSE(ComputeNeighborsPacked(sim, 1.5).ok());
}

// --------------------------------------------------- clusterer integration --

TEST(NeighborEngineTest, ClustererEnginesProduceIdenticalResults) {
  ROCK_SEEDED_RNG(rng, 41);
  const TransactionDataset dataset = RandomBaskets(80, 48, 12, 50, &rng);
  const TransactionJaccard sim(dataset);
  RockOptions options;
  options.theta = 0.4;
  options.num_clusters = 5;
  for (const size_t threads : {size_t{1}, size_t{3}}) {
    options.num_threads = threads;
    options.neighbor_engine = NeighborEngineKind::kPacked;
    const auto packed = RockClusterer(options).Cluster(sim);
    ASSERT_TRUE(packed.ok());
    options.neighbor_engine = NeighborEngineKind::kScalar;
    const auto scalar = RockClusterer(options).Cluster(sim);
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(packed->clustering.assignment, scalar->clustering.assignment);
    EXPECT_EQ(packed->merges.size(), scalar->merges.size());
    // The packed run reports its pruning accounting through RockResult.
    EXPECT_GT(packed->metrics.CounterOr("neighbors.pairs_evaluated"), 0u);
    EXPECT_NE(packed->metrics.FindTimer("stage.neighbors.pack"), nullptr);
  }
}

// ------------------------------------------------- jaccard presence counts --

TEST(CategoricalJaccardTest, PrecomputedPresenceMatchesDefinition) {
  CategoricalDataset dataset{Schema({"a", "b", "c", "d"})};
  ASSERT_TRUE(dataset.AddRecord(Record({1, 2, kMissingValue, 3})).ok());
  ASSERT_TRUE(dataset.AddRecord(Record({1, kMissingValue, 5, 4})).ok());
  ASSERT_TRUE(
      dataset
          .AddRecord(Record({kMissingValue, kMissingValue, kMissingValue,
                             kMissingValue}))
          .ok());
  const CategoricalJaccard sim(dataset);
  // Rows 0/1: equal = 1 (attr a), union = 3 + 3 − 1 = 5.
  EXPECT_EQ(sim.Similarity(0, 1), 1.0 / 5.0);
  // Both-missing attributes must not count as equal.
  EXPECT_EQ(sim.Similarity(0, 2), 0.0);
  EXPECT_EQ(sim.Similarity(2, 2), 0.0);
}

}  // namespace
}  // namespace rock
