// Tests for core/dendrogram.h — cuts of the ROCK merge tree and Newick
// export.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/dendrogram.h"
#include "data/dataset.h"
#include "similarity/jaccard.h"
#include "similarity/similarity_table.h"

namespace rock {
namespace {

/// Figure 1 data (two overlapping transaction clusters, 14 points).
TransactionDataset Figure1Data() {
  TransactionDataset ds;
  auto add_triples = [&](const std::vector<ItemId>& items) {
    for (size_t i = 0; i < items.size(); ++i)
      for (size_t j = i + 1; j < items.size(); ++j)
        for (size_t l = j + 1; l < items.size(); ++l)
          ds.AddTransaction(Transaction({items[i], items[j], items[l]}));
  };
  add_triples({1, 2, 3, 4, 5});
  add_triples({1, 2, 6, 7});
  return ds;
}

RockResult RunRock(const PointSimilarity& sim, size_t k,
                   std::function<double(double)> f = MarketBasketF) {
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = k;
  opt.f = std::move(f);
  auto result = RockClusterer(opt).Cluster(sim);
  EXPECT_TRUE(result.ok());
  return std::move(*result);
}

TEST(DendrogramTest, FullCutMatchesFinalClustering) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockResult result = RunRock(sim, 2, ConservativeMarketBasketF);
  auto dendro = Dendrogram::FromRockResult(result, ds.size());
  ASSERT_TRUE(dendro.ok());
  EXPECT_EQ(dendro->num_participants(), 14u);
  EXPECT_EQ(dendro->num_merges(), 12u);

  Clustering full = dendro->CutAfterMerges(dendro->num_merges());
  // Same partition as the run's final clustering (cluster ids may differ,
  // but SortBySizeDescending makes them comparable here).
  EXPECT_EQ(full.assignment, result.clustering.assignment);
}

TEST(DendrogramTest, CutAtKCountsClusters) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockResult result = RunRock(sim, 2, ConservativeMarketBasketF);
  auto dendro = Dendrogram::FromRockResult(result, ds.size());
  ASSERT_TRUE(dendro.ok());
  for (size_t k : {2u, 3u, 5u, 9u, 14u}) {
    Clustering cut = dendro->CutAtK(k);
    EXPECT_EQ(cut.num_clusters(), k) << "k=" << k;
  }
  // k beyond the participant count: everything singleton.
  EXPECT_EQ(dendro->CutAtK(100).num_clusters(), 14u);
  // k = 0 is clamped to 1-ish (the run stopped at 2, so 2 remain).
  EXPECT_EQ(dendro->CutAtK(0).num_clusters(), 2u);
}

TEST(DendrogramTest, CutsAreNestedRefinements) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockResult result = RunRock(sim, 2);
  auto dendro = Dendrogram::FromRockResult(result, ds.size());
  ASSERT_TRUE(dendro.ok());
  // Every later cut must be a coarsening: points together at m merges stay
  // together at m+1.
  for (size_t m = 0; m < dendro->num_merges(); ++m) {
    Clustering fine = dendro->CutAfterMerges(m);
    Clustering coarse = dendro->CutAfterMerges(m + 1);
    for (size_t p = 0; p < ds.size(); ++p) {
      for (size_t q = p + 1; q < ds.size(); ++q) {
        if (fine.assignment[p] == fine.assignment[q]) {
          EXPECT_EQ(coarse.assignment[p], coarse.assignment[q])
              << "m=" << m << " pair " << p << "," << q;
        }
      }
    }
  }
}

TEST(DendrogramTest, ZeroCutIsAllSingletons) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockResult result = RunRock(sim, 2);
  auto dendro = Dendrogram::FromRockResult(result, ds.size());
  ASSERT_TRUE(dendro.ok());
  Clustering cut = dendro->CutAfterMerges(0);
  EXPECT_EQ(cut.num_clusters(), 14u);
  for (const auto& members : cut.clusters) {
    EXPECT_EQ(members.size(), 1u);
  }
}

TEST(DendrogramTest, PrunedPointsStayUnassigned) {
  // A graph with two linked triangles and one isolated point.
  SimilarityTable t(7);
  for (auto [i, j] : {std::pair<size_t, size_t>{0, 1}, {0, 2}, {1, 2},
                      {3, 4}, {3, 5}, {4, 5}}) {
    ASSERT_TRUE(t.Set(i, j, 1.0).ok());
  }
  RockResult result = RunRock(t, 2);
  auto dendro = Dendrogram::FromRockResult(result, 7);
  ASSERT_TRUE(dendro.ok());
  EXPECT_EQ(dendro->num_participants(), 6u);
  Clustering cut = dendro->CutAtK(2);
  EXPECT_EQ(cut.assignment[6], kUnassigned);
  EXPECT_EQ(cut.num_clusters(), 2u);
}

TEST(DendrogramTest, MismatchedPointCountRejected) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockResult result = RunRock(sim, 2);
  EXPECT_TRUE(Dendrogram::FromRockResult(result, 99)
                  .status()
                  .IsInvalidArgument());
}

TEST(DendrogramTest, NewickShapeAndLeaves) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockResult result = RunRock(sim, 2, ConservativeMarketBasketF);
  auto dendro = Dendrogram::FromRockResult(result, ds.size());
  ASSERT_TRUE(dendro.ok());
  const std::string newick = dendro->ToNewick();

  EXPECT_EQ(newick.back(), ';');
  // Balanced parentheses.
  int depth = 0;
  for (char c : newick) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  // Every participating point appears exactly once as a leaf token.
  for (size_t p = 0; p < ds.size(); ++p) {
    const std::string token = std::string("p").append(std::to_string(p));
    size_t count = 0;
    size_t pos = 0;
    while ((pos = newick.find(token, pos)) != std::string::npos) {
      // Avoid prefix matches (p1 inside p12).
      const size_t end = pos + token.size();
      if (end >= newick.size() ||
          !std::isdigit(static_cast<unsigned char>(newick[end]))) {
        ++count;
      }
      pos = end;
    }
    EXPECT_EQ(count, 1u) << token;
  }
  // Internal nodes carry goodness labels.
  EXPECT_NE(newick.find(")g="), std::string::npos);
}

TEST(DendrogramTest, NewickForestJoinsRoots) {
  // Two components → two roots under a virtual root.
  SimilarityTable t(6);
  for (auto [i, j] : {std::pair<size_t, size_t>{0, 1}, {0, 2}, {1, 2},
                      {3, 4}, {3, 5}, {4, 5}}) {
    ASSERT_TRUE(t.Set(i, j, 1.0).ok());
  }
  RockResult result = RunRock(t, 1);  // stops at 2 (no cross links)
  auto dendro = Dendrogram::FromRockResult(result, 6);
  ASSERT_TRUE(dendro.ok());
  const std::string newick = dendro->ToNewick();
  // Virtual root wraps exactly two subtrees → ends with ");" and the top
  // level has one comma.
  EXPECT_EQ(newick.substr(newick.size() - 2), ");");
  int depth = 0;
  int top_commas = 0;
  for (char c : newick) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 1) ++top_commas;
  }
  EXPECT_EQ(top_commas, 1);
}

}  // namespace
}  // namespace rock
