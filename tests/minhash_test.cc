// Tests for similarity/minhash.h — MinHash estimation quality, LSH
// banding math, and the exact-precision / high-recall contract of the
// MinHash LSH neighbor builder (the packed engine's kLsh pass) against the
// brute-force neighbor graph.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "graph/neighbor_engine.h"
#include "similarity/jaccard.h"
#include "similarity/minhash.h"
#include "synth/basket_generator.h"
#include "test_support.h"

namespace rock {
namespace {

// The MinHash LSH neighbor builder: banded candidates + exact verification
// through the packed engine's kLsh pass.
Result<NeighborGraph> LshNeighbors(const TransactionDataset& dataset,
                                   double theta, const LshOptions& lsh = {}) {
  TransactionJaccard sim(dataset);
  PackedNeighborOptions opt;
  opt.strategy = PackedStrategy::kLsh;
  opt.lsh = lsh;
  return ComputeNeighborsPacked(sim, theta, opt);
}

TEST(MinHashTest, IdenticalSetsHaveIdenticalSignatures) {
  MinHasher hasher(64, 1);
  Transaction a({1, 5, 9, 12});
  EXPECT_EQ(hasher.Signature(a), hasher.Signature(Transaction({12, 9, 5, 1})));
  EXPECT_DOUBLE_EQ(
      MinHasher::EstimateJaccard(hasher.Signature(a), hasher.Signature(a)),
      1.0);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  MinHasher hasher(128, 2);
  Transaction a({1, 2, 3, 4, 5});
  Transaction b({100, 101, 102, 103, 104});
  EXPECT_LT(MinHasher::EstimateJaccard(hasher.Signature(a),
                                       hasher.Signature(b)),
            0.1);
}

TEST(MinHashTest, EstimateTracksTrueJaccard) {
  // Random pairs of medium-size sets: the 256-hash estimate should sit
  // within ±0.12 of the exact Jaccard (binomial sd ≈ 0.03).
  MinHasher hasher(256, 3);
  ROCK_SEEDED_RNG(rng, 7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<ItemId> universe(40);
    for (ItemId i = 0; i < 40; ++i) universe[i] = i;
    auto pick = [&](size_t k) {
      std::vector<ItemId> items;
      for (size_t idx : rng.SampleWithoutReplacement(universe.size(), k)) {
        items.push_back(universe[idx]);
      }
      return Transaction(std::move(items));
    };
    Transaction a = pick(15);
    Transaction b = pick(15);
    const double exact = JaccardSimilarity(a, b);
    const double estimate = MinHasher::EstimateJaccard(hasher.Signature(a),
                                                       hasher.Signature(b));
    EXPECT_NEAR(estimate, exact, 0.12) << "trial " << trial;
  }
}

TEST(MinHashTest, EmptyTransactionSignature) {
  MinHasher hasher(16, 4);
  auto sig = hasher.Signature(Transaction{});
  for (uint64_t v : sig) {
    EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());
  }
  // Degenerate equality of two empty signatures estimates 1; the exact
  // Jaccard of empty sets is 0 — callers verify exactly, so this cannot
  // produce a false edge.
}

TEST(LshTest, CollisionProbabilityMath) {
  LshOptions opt;
  opt.num_bands = 20;
  opt.rows_per_band = 5;
  // s = 1 always collides; s = 0 never.
  EXPECT_NEAR(LshCollisionProbability(1.0, opt), 1.0, 1e-12);
  EXPECT_NEAR(LshCollisionProbability(0.0, opt), 0.0, 1e-12);
  // Monotone in s.
  double prev = 0.0;
  for (double s = 0.0; s <= 1.0; s += 0.05) {
    const double p = LshCollisionProbability(s, opt);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
  // Default options give >= 99% collision probability at s = 0.5.
  EXPECT_GT(LshCollisionProbability(0.5, LshOptions{}), 0.99);
}

TEST(LshTest, ValidatesOptions) {
  TransactionDataset ds;
  ds.AddTransaction({"a"});
  LshOptions opt;
  opt.num_bands = 0;
  EXPECT_TRUE(LshNeighbors(ds, 0.5, opt).status().IsInvalidArgument());
  EXPECT_TRUE(LshNeighbors(ds, 1.5).status().IsInvalidArgument());
}

TEST(LshTest, ExactPrecisionHighRecallOnBaskets) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {300, 300};
  gen.items_per_cluster = {20, 20};
  gen.num_outliers = 30;
  gen.seed = 11;
  auto ds = GenerateBasketData(gen);
  ASSERT_TRUE(ds.ok());

  TransactionJaccard sim(*ds);
  auto exact = ComputeNeighbors(sim, 0.5);
  ASSERT_TRUE(exact.ok());
  auto lsh = LshNeighbors(*ds, 0.5);
  ASSERT_TRUE(lsh.ok());

  // Precision: every LSH edge is a true edge.
  size_t lsh_edges = 0, true_edges = 0, recovered = 0;
  for (size_t i = 0; i < exact->size(); ++i) {
    for (PointIndex j : lsh->nbrlist[i]) {
      if (j > i) {
        ++lsh_edges;
        EXPECT_TRUE(exact->AreNeighbors(static_cast<PointIndex>(i), j));
      }
    }
    for (PointIndex j : exact->nbrlist[i]) {
      if (j > i) {
        ++true_edges;
        if (lsh->AreNeighbors(static_cast<PointIndex>(i), j)) ++recovered;
      }
    }
  }
  ASSERT_GT(true_edges, 0u);
  const double recall =
      static_cast<double>(recovered) / static_cast<double>(true_edges);
  EXPECT_GT(recall, 0.95) << "edges " << lsh_edges << "/" << true_edges;
}

TEST(LshTest, RecallDegradesGracefullyWithFewBands) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {200};
  gen.items_per_cluster = {20};
  gen.num_outliers = 0;
  gen.seed = 13;
  auto ds = GenerateBasketData(gen);
  ASSERT_TRUE(ds.ok());
  TransactionJaccard sim(*ds);
  auto exact = ComputeNeighbors(sim, 0.5);
  ASSERT_TRUE(exact.ok());

  LshOptions weak;
  weak.num_bands = 2;
  weak.rows_per_band = 8;
  auto lsh = LshNeighbors(*ds, 0.5, weak);
  ASSERT_TRUE(lsh.ok());
  // Still a subgraph (precision 1), just sparser.
  size_t true_edges = 0, lsh_edges = 0;
  for (size_t i = 0; i < exact->size(); ++i) {
    true_edges += exact->nbrlist[i].size();
    lsh_edges += lsh->nbrlist[i].size();
  }
  EXPECT_LE(lsh_edges, true_edges);
}

TEST(LshTest, TuneLshOptionsHitsRecallTargetWithinSignatureBudget) {
  size_t prev_rows = 0;
  for (const double theta : {0.1, 0.3, 0.5, 0.73, 0.9}) {
    SCOPED_TRACE(::testing::Message() << "theta = " << theta);
    const LshOptions tuned = TuneLshOptions(theta, /*seed=*/99);
    EXPECT_EQ(tuned.seed, 99u);
    EXPECT_TRUE(tuned.Validate().ok());
    EXPECT_LE(tuned.num_bands * tuned.rows_per_band, 256u)
        << "signature length must stay within the budget";
    EXPECT_GE(LshCollisionProbability(theta, tuned), 0.9995)
        << "a pair at similarity exactly θ must still be recalled";
    // Higher thresholds afford sharper S-curves (more rows per band), so
    // below-θ pairs generate fewer junk candidates.
    EXPECT_GE(tuned.rows_per_band, prev_rows);
    prev_rows = tuned.rows_per_band;
  }
  // Out-of-range thresholds (complete graph at θ = 0, exact-match at
  // θ = 1) cannot be helped by banding: fall back to the defaults.
  const LshOptions defaults;
  for (const double theta : {0.0, 1.0}) {
    const LshOptions tuned = TuneLshOptions(theta, /*seed=*/7);
    EXPECT_EQ(tuned.num_bands, defaults.num_bands);
    EXPECT_EQ(tuned.rows_per_band, defaults.rows_per_band);
    EXPECT_EQ(tuned.seed, 7u);
  }
}

TEST(LshTest, EmptyTransactionsAreSkippedAtBandingTime) {
  // Empty transactions carry all-max signatures, so before the banding
  // skip they collided with each other in every band — a quadratic
  // candidate blow-up that exact verification silently absorbed. The skip
  // must isolate them without dropping any genuine edge.
  TransactionDataset ds;
  for (int r = 0; r < 50; ++r) ds.AddTransaction(Transaction{});
  for (int r = 0; r < 3; ++r) ds.AddTransaction(Transaction{1, 2, 3});
  ds.AddTransaction(Transaction{7, 8, 9, 10});
  ds.AddTransaction(Transaction{7, 8, 9, 11});

  const auto lsh = LshNeighbors(ds, 0.5);
  ASSERT_TRUE(lsh.ok());
  for (size_t r = 0; r < 50; ++r) {
    EXPECT_TRUE(lsh->nbrlist[r].empty()) << "empty row " << r;
  }
  // Identical rows always collide (identical signatures), so the triple
  // must come back fully connected; the 3/5-overlap pair likewise clears
  // θ = 0.5 and the default banding recalls it with certainty ≈ 1.
  EXPECT_EQ(lsh->nbrlist[50], (std::vector<PointIndex>{51, 52}));
  EXPECT_EQ(lsh->nbrlist[51], (std::vector<PointIndex>{50, 52}));
  EXPECT_EQ(lsh->nbrlist[52], (std::vector<PointIndex>{50, 51}));
  EXPECT_EQ(lsh->nbrlist[53], (std::vector<PointIndex>{54}));
  EXPECT_EQ(lsh->nbrlist[54], (std::vector<PointIndex>{53}));
}

TEST(LshTest, Deterministic) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {100};
  gen.items_per_cluster = {15};
  gen.num_outliers = 10;
  auto ds = GenerateBasketData(gen);
  ASSERT_TRUE(ds.ok());
  auto a = LshNeighbors(*ds, 0.5);
  auto b = LshNeighbors(*ds, 0.5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(a->nbrlist[i], b->nbrlist[i]);
  }
}

}  // namespace
}  // namespace rock
