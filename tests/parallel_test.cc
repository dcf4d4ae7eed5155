// Tests for util/thread_pool.h and the thread-count contract of the packed
// graph engines — ComputeNeighborsPacked / ComputeLinksPacked must be
// bit-identical to the serial oracles (ComputeNeighbors / ComputeLinks) at
// any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/random.h"
#include "data/transaction.h"
#include "graph/link_engine.h"
#include "graph/neighbor_engine.h"
#include "similarity/jaccard.h"
#include "similarity/similarity_table.h"
#include "util/thread_pool.h"
#include "test_support.h"

namespace rock {
namespace {

// ------------------------------------------------------------ thread pool --

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(ResolveThreads(4), 4u);
  EXPECT_GE(ResolveThreads(0), 1u);
}

TEST(ThreadPoolTest, ParallelInvokeRunsEveryWorker) {
  std::vector<std::atomic<int>> hits(8);
  ParallelInvoke(8, [&](size_t worker) { hits[worker].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelInvokeSingleThreadRunsInline) {
  std::atomic<int> count{0};
  ParallelInvoke(1, [&](size_t worker) {
    EXPECT_EQ(worker, 0u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelChunksCoversRangeExactlyOnce) {
  const size_t total = 1013;  // prime → ragged last chunk
  for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads = " << threads);
    std::vector<std::atomic<int>> seen(total);
    std::atomic<bool> worker_in_range{true};
    ParallelChunks(threads, total, 17,
                   [&](size_t worker, size_t begin, size_t end) {
                     if (worker >= ResolveThreads(threads)) {
                       worker_in_range.store(false);
                     }
                     for (size_t i = begin; i < end; ++i) seen[i].fetch_add(1);
                   });
    EXPECT_TRUE(worker_in_range.load());
    for (size_t i = 0; i < total; ++i) {
      EXPECT_EQ(seen[i].load(), 1) << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelChunksEmptyAndTiny) {
  int calls = 0;
  ParallelChunks(4, 0, 8, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<size_t> covered{0};
  std::atomic<bool> worker_in_range{true};
  ParallelChunks(4, 5, 100, [&](size_t worker, size_t begin, size_t end) {
    if (worker >= ResolveThreads(4)) worker_in_range.store(false);
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 5u);
  EXPECT_TRUE(worker_in_range.load());
}

// ------------------------------------------- packed engines vs the oracles --

SimilarityTable RandomTable(size_t n, double density, uint64_t seed) {
  ROCK_SEEDED_RNG(rng, seed);
  SimilarityTable t(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(density)) {
        EXPECT_TRUE(t.Set(i, j, 0.9).ok());
      }
    }
  }
  return t;
}

// Baskets over a 40-item universe, each item present with probability
// `density`: sparse densities leave many rows empty, dense ones make most
// pairs neighbors.
TransactionDataset RandomBaskets(size_t n, double density, uint64_t seed) {
  ROCK_SEEDED_RNG(rng, seed);
  TransactionDataset ds;
  for (size_t r = 0; r < n; ++r) {
    std::vector<ItemId> items;
    for (ItemId item = 0; item < 40; ++item) {
      if (rng.Bernoulli(density)) items.push_back(item);
    }
    ds.AddTransaction(Transaction(std::move(items)));
  }
  return ds;
}

void ExpectLinksMatchOracle(const NeighborGraph& graph,
                            const LinkMatrix& packed) {
  const LinkMatrix oracle = ComputeLinks(graph);
  ASSERT_EQ(packed.size(), oracle.size());
  EXPECT_EQ(packed.NumNonZeroPairs(), oracle.NumNonZeroPairs());
  const auto n = static_cast<PointIndex>(graph.size());
  for (PointIndex i = 0; i < n; ++i) {
    for (PointIndex j = static_cast<PointIndex>(i + 1); j < n; ++j) {
      ASSERT_EQ(packed.Count(i, j), oracle.Count(i, j))
          << "pair (" << i << "," << j << ")";
    }
  }
}

class ParallelGraphTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(ParallelGraphTest, NeighborsMatchSerial) {
  const auto [threads, density] = GetParam();
  const TransactionDataset ds = RandomBaskets(150, density, 31 + threads);
  const TransactionJaccard sim(ds);
  auto serial = ComputeNeighbors(sim, 0.5);
  ASSERT_TRUE(serial.ok());
  PackedNeighborOptions opt;
  opt.num_threads = threads;
  opt.row_chunk = 7;
  auto packed = ComputeNeighborsPacked(sim, 0.5, opt);
  ASSERT_TRUE(packed.ok());
  ASSERT_EQ(packed->size(), serial->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ(packed->nbrlist[i], serial->nbrlist[i]) << "row " << i;
  }
}

TEST_P(ParallelGraphTest, LinksMatchSerial) {
  const auto [threads, density] = GetParam();
  SimilarityTable t = RandomTable(150, density, 77 + threads);
  auto graph = ComputeNeighbors(t, 0.5);
  ASSERT_TRUE(graph.ok());
  for (const PackedLinkStrategy strategy :
       {PackedLinkStrategy::kPlane, PackedLinkStrategy::kScatter}) {
    PackedLinkOptions opt;
    opt.num_threads = threads;
    opt.strategy = strategy;
    ExpectLinksMatchOracle(*graph, ComputeLinksPacked(*graph, opt));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndDensities, ParallelGraphTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4},
                                         size_t{7}),
                       ::testing::Values(0.02, 0.2, 0.7)));

TEST(ParallelGraphTest, InvalidThetaRejected) {
  const TransactionDataset ds = RandomBaskets(3, 0.5, 1);
  const TransactionJaccard sim(ds);
  SimilarityTable t(3);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PackedNeighborOptions opt;
    opt.num_threads = threads;
    EXPECT_TRUE(ComputeNeighborsPacked(sim, 1.5, opt)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(
        ComputeNeighborsPacked(t, -0.1, opt).status().IsInvalidArgument());
  }
}

TEST(ParallelGraphTest, EmptyAndSingletonGraphs) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PackedLinkOptions opt;
    opt.num_threads = threads;
    NeighborGraph empty;
    EXPECT_EQ(ComputeLinksPacked(empty, opt).size(), 0u);
    NeighborGraph one;
    one.nbrlist.resize(1);
    EXPECT_EQ(ComputeLinksPacked(one, opt).size(), 1u);
  }
}

TEST(ParallelGraphTest, MoreThreadsThanRows) {
  const TransactionDataset ds = RandomBaskets(5, 0.6, 3);
  const TransactionJaccard sim(ds);
  auto serial = ComputeNeighbors(sim, 0.3);
  ASSERT_TRUE(serial.ok());
  SimilarityTable t = RandomTable(5, 0.8, 3);
  auto graph = ComputeNeighbors(t, 0.5);
  ASSERT_TRUE(graph.ok());
  for (size_t threads : {1u, 2u, 4u, 8u, 32u}) {
    SCOPED_TRACE(::testing::Message() << "threads = " << threads);
    PackedNeighborOptions nopt;
    nopt.num_threads = threads;
    auto packed = ComputeNeighborsPacked(sim, 0.3, nopt);
    ASSERT_TRUE(packed.ok());
    EXPECT_EQ(packed->nbrlist, serial->nbrlist);
    PackedLinkOptions lopt;
    lopt.num_threads = threads;
    ExpectLinksMatchOracle(*graph, ComputeLinksPacked(*graph, lopt));
  }
}

}  // namespace
}  // namespace rock
