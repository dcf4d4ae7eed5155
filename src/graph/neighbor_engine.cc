#include "graph/neighbor_engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "diag/metrics.h"
#include "similarity/batch.h"
#include "util/thread_pool.h"

namespace rock {
namespace {

using EdgeList = std::vector<std::pair<PointIndex, PointIndex>>;

// Upper bound on sim(i, j) from the two set sizes alone. Exact under IEEE
// round-to-nearest: inter ≤ s_min and uni ≥ s_max give inter/uni ≤
// s_min/s_max as rationals, and fl() is monotone, so fl(sim) ≤ fl(bound) —
// a pair with fl(bound) < θ can never satisfy fl(sim) ≥ θ. Two empty sets
// score 0 in every oracle, hence the s_max == 0 special case (which also
// keeps 0/0 NaN out of the comparison).
double SizeBound(uint64_t s_min, uint64_t s_max) {
  if (s_max == 0) return 0.0;
  return static_cast<double>(s_min) / static_cast<double>(s_max);
}

uint64_t TotalPairs(size_t n) {
  if (n < 2) return 0;
  return static_cast<uint64_t>(n) * static_cast<uint64_t>(n - 1) / 2;
}

// One worker's reusable buffers for the exact and LSH-verify passes,
// indexed by ParallelChunks' worker argument. Cache-line aligned: the hot
// loops grow these vectors, and workers writing vector headers that share
// a line would contend on it.
struct alignas(64) WorkerScratch {
  std::vector<uint32_t> count;    // ScanCount intersection counts
  std::vector<uint32_t> touched;  // rows to evaluate for the current row
  std::vector<double> vals;       // batch similarity results
};

// Per-worker edge buffers → degree count, reserve, fill, sort rows. Buffer
// order varies with scheduling, but the sorted rows (and so the graph) do
// not.
NeighborGraph ScatterEdges(size_t n, const std::vector<EdgeList>& edges) {
  NeighborGraph graph;
  graph.nbrlist.resize(n);
  std::vector<size_t> degree(n, 0);
  for (const auto& local : edges) {
    for (const auto& [i, j] : local) {
      ++degree[i];
      ++degree[j];
    }
  }
  for (size_t i = 0; i < n; ++i) graph.nbrlist[i].reserve(degree[i]);
  for (const auto& local : edges) {
    for (const auto& [i, j] : local) {
      graph.nbrlist[i].push_back(j);
      graph.nbrlist[j].push_back(i);
    }
  }
  for (auto& l : graph.nbrlist) std::sort(l.begin(), l.end());
  return graph;
}

// Size-sorted window sweep: along the (size asc, index asc) order, the
// length bound for a fixed p is monotone in q, so each position scans the
// contiguous prefix [p+1, hi) and batch-evaluates it with the packed
// kernel. Without a length bound (pairwise-missing) the window is all of
// [p+1, n) and the pass degrades to a batched full sweep.
NeighborGraph WindowPass(const BatchSimilarity& batch, double theta,
                         const PackedNeighborOptions& options,
                         uint64_t* pairs_evaluated) {
  const size_t n = batch.size();
  const std::vector<uint32_t>* sizes = batch.prune_sizes();
  const bool bounded = sizes != nullptr && theta > 0.0;
  std::vector<PointIndex> order(n);
  std::iota(order.begin(), order.end(), PointIndex{0});
  if (bounded) {
    std::sort(order.begin(), order.end(), [&](PointIndex a, PointIndex b) {
      const uint32_t sa = (*sizes)[a];
      const uint32_t sb = (*sizes)[b];
      return sa != sb ? sa < sb : a < b;
    });
  }

  const size_t workers = ResolveThreads(options.num_threads);
  std::vector<EdgeList> edges(workers);
  std::vector<uint64_t> evaluated(workers, 0);
  std::vector<WorkerScratch> scratch(workers);
  ParallelChunks(workers, n, options.row_chunk, [&](size_t worker,
                                                   size_t begin,
                                                   size_t end) {
    EdgeList& local = edges[worker];
    std::vector<double>& v = scratch[worker].vals;
    for (size_t p = begin; p < end; ++p) {
      const PointIndex i = order[p];
      size_t hi = n;
      if (bounded) {
        // First position whose size fails the bound (sizes ascend along
        // `order`, so the predicate is monotone).
        const uint64_t sp = (*sizes)[i];
        size_t lo = p + 1;
        while (lo < hi) {
          const size_t mid = lo + (hi - lo) / 2;
          if (SizeBound(sp, (*sizes)[order[mid]]) >= theta) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        hi = lo;
      }
      if (hi <= p + 1) continue;
      const size_t count = hi - (p + 1);
      v.resize(count);
      batch.SimilarityBatch(i, order.data() + (p + 1), count, v.data());
      evaluated[worker] += count;
      for (size_t t = 0; t < count; ++t) {
        if (v[t] >= theta) {
          const PointIndex j = order[p + 1 + t];
          local.emplace_back(std::min(i, j), std::max(i, j));
        }
      }
    }
  });
  *pairs_evaluated = 0;
  for (const uint64_t e : evaluated) *pairs_evaluated += e;
  scratch.clear();
  return ScatterEdges(n, edges);
}

// Inverted-index ScanCount pass: per-item postings (rows ascending)
// enumerate exactly the pairs sharing an item — for θ > 0 every other pair
// has sim == 0 (batch.h items() contract) and is pruned without being
// touched. Under the set-Jaccard contract the intersection count already
// determines the exact similarity; otherwise survivors are batch-evaluated.
NeighborGraph CandidatePass(const BatchSimilarity& batch, double theta,
                            const PackedNeighborOptions& options,
                            uint64_t* pairs_evaluated) {
  const size_t n = batch.size();
  const SparseItemView& view = *batch.items();
  const std::vector<uint32_t>* sizes = batch.prune_sizes();

  // Postings CSR; filling rows in ascending order keeps each list sorted.
  const size_t universe = view.universe;
  std::vector<uint64_t> post_off(universe + 1, 0);
  for (const uint32_t item : view.items) ++post_off[item + 1];
  for (size_t v = 0; v < universe; ++v) post_off[v + 1] += post_off[v];
  std::vector<uint32_t> post(view.items.size());
  std::vector<uint64_t> cursor(post_off.begin(), post_off.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    for (uint64_t k = view.row_offsets[r]; k < view.row_offsets[r + 1]; ++k) {
      const uint32_t item = view.items[static_cast<size_t>(k)];
      post[static_cast<size_t>(cursor[item]++)] = static_cast<uint32_t>(r);
    }
  }

  // `count` is sized on the worker's first chunk, so workers that never
  // claim one allocate nothing.
  const size_t workers = ResolveThreads(options.num_threads);
  std::vector<EdgeList> edges(workers);
  std::vector<uint64_t> evaluated(workers, 0);
  std::vector<WorkerScratch> scratch(workers);
  ParallelChunks(workers, n, options.row_chunk, [&](size_t worker,
                                                   size_t begin,
                                                   size_t end) {
    EdgeList& local = edges[worker];
    WorkerScratch& w = scratch[worker];
    if (w.count.empty()) w.count.assign(n, 0);
    uint32_t* const count = w.count.data();
    for (size_t r = begin; r < end; ++r) {
      const auto i = static_cast<PointIndex>(r);
      w.touched.clear();
      for (uint64_t k = view.row_offsets[r]; k < view.row_offsets[r + 1];
           ++k) {
        const uint32_t item = view.items[static_cast<size_t>(k)];
        const uint32_t* plo = post.data() + post_off[item];
        const uint32_t* phi = post.data() + post_off[item + 1];
        // Rows > r form a suffix of the ascending posting list.
        for (const uint32_t* it = std::upper_bound(plo, phi, i); it != phi;
             ++it) {
          if (count[*it]++ == 0) w.touched.push_back(*it);
        }
      }
      if (sizes != nullptr) {
        const uint64_t si = (*sizes)[r];
        for (const uint32_t j : w.touched) {
          const uint64_t inter = count[j];
          count[j] = 0;
          const uint64_t sj = (*sizes)[j];
          if (SizeBound(std::min(si, sj), std::max(si, sj)) < theta) {
            continue;
          }
          ++evaluated[worker];
          // Set-Jaccard contract (batch.h): this is the exact double the
          // per-pair oracle computes. uni ≥ 1 because an item is shared.
          const uint64_t uni = si + sj - inter;
          const double s =
              static_cast<double>(inter) / static_cast<double>(uni);
          if (s >= theta) local.emplace_back(i, j);
        }
      } else {
        w.vals.resize(w.touched.size());
        if (!w.touched.empty()) {
          batch.SimilarityBatch(r, w.touched.data(), w.touched.size(),
                                w.vals.data());
        }
        evaluated[worker] += w.touched.size();
        for (size_t t = 0; t < w.touched.size(); ++t) {
          count[w.touched[t]] = 0;
          if (w.vals[t] >= theta) local.emplace_back(i, w.touched[t]);
        }
      }
    }
  });
  *pairs_evaluated = 0;
  for (const uint64_t e : evaluated) *pairs_evaluated += e;
  scratch.clear();
  return ScatterEdges(n, edges);
}

// Sorts `keys` ascending and drops duplicates, sharded over `num_threads`
// workers (segment sorts in parallel, then a merge ladder). The result is
// the sorted unique multiset — identical at any thread count — which is
// what the LSH pass's determinism contract relies on.
void SortUniqueParallel(std::vector<uint64_t>* keys, size_t num_threads) {
  const size_t n = keys->size();
  // Below ~64k keys the fork-join overhead beats the sort it would shard.
  if (num_threads <= 1 || n < (size_t{1} << 16)) {
    std::sort(keys->begin(), keys->end());
    keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
    return;
  }

  // Near-equal segments, sorted in parallel.
  std::vector<size_t> bounds(num_threads + 1);
  for (size_t t = 0; t <= num_threads; ++t) bounds[t] = n * t / num_threads;
  ParallelInvoke(num_threads, [&](size_t t) {
    std::sort(keys->begin() + static_cast<ptrdiff_t>(bounds[t]),
              keys->begin() + static_cast<ptrdiff_t>(bounds[t + 1]));
  });

  // Merge ladder: segment width doubles per round, each merge claimed by
  // one worker. The final sorted order is independent of scheduling.
  for (size_t width = 1; width < num_threads; width *= 2) {
    std::vector<std::array<size_t, 3>> merges;  // {lo, mid, hi}
    for (size_t t = 0; t + width < num_threads; t += 2 * width) {
      merges.push_back({bounds[t], bounds[t + width],
                        bounds[std::min(t + 2 * width, num_threads)]});
    }
    ParallelChunks(std::min(num_threads, merges.size()), merges.size(), 1,
                   [&](size_t, size_t m0, size_t m1) {
                     for (size_t m = m0; m < m1; ++m) {
                       const auto [lo, mid, hi] = merges[m];
                       std::inplace_merge(
                           keys->begin() + static_cast<ptrdiff_t>(lo),
                           keys->begin() + static_cast<ptrdiff_t>(mid),
                           keys->begin() + static_cast<ptrdiff_t>(hi));
                     }
                   });
  }
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
}

// MinHash LSH banding pass: per-row signatures → per-band bucket keys →
// bucket co-membership candidates → sorted dedup → exact θ-verification of
// every candidate through the packed kernel. Precision is 1 by
// construction; recall follows LshCollisionProbability. Every stage is
// sharded over the thread pool, and every stage's output is a function of
// the data + seed alone (per-band buffers, a scheduling-independent sorted
// dedup, and the same ScatterEdges assembly as the exact passes), so the
// graph is deterministic for a fixed seed at any thread count.
NeighborGraph LshPass(const BatchSimilarity& batch, double theta,
                      const PackedNeighborOptions& options,
                      uint64_t* pairs_evaluated, uint64_t* candidates_out,
                      uint64_t* skipped_empty) {
  const size_t n = batch.size();
  const SparseItemView& view = *batch.items();
  const std::vector<uint32_t>* sizes = batch.prune_sizes();
  const size_t bands = options.lsh.num_bands;
  const size_t rows_per_band = options.lsh.rows_per_band;
  const size_t sig_len = bands * rows_per_band;
  const size_t workers = ResolveThreads(options.num_threads);
  const auto row_empty = [&view](size_t r) {
    return view.row_offsets[r + 1] == view.row_offsets[r];
  };

  // Signatures, sharded by row into flat storage. Empty rows are skipped
  // outright: their all-max signatures would all collide with each other
  // in every band — a quadratic candidate blow-up in one bucket at scale —
  // yet their exact similarity is 0 < θ with everything, so for the θ > 0
  // this pass requires, skipping them loses no edge.
  std::vector<uint64_t> sigs(n * sig_len);
  const MinHasher hasher(sig_len, options.lsh.seed);
  size_t empty_rows = 0;
  for (size_t r = 0; r < n; ++r) {
    if (row_empty(r)) ++empty_rows;
  }
  *skipped_empty = empty_rows;
  ParallelChunks(workers, n, options.row_chunk,
                 [&](size_t, size_t begin, size_t end) {
                   for (size_t r = begin; r < end; ++r) {
                     if (row_empty(r)) continue;
                     const uint64_t off = view.row_offsets[r];
                     hasher.SignatureInto(
                         view.items.data() + off,
                         static_cast<size_t>(view.row_offsets[r + 1] - off),
                         sigs.data() + r * sig_len);
                   }
                 });

  // Banding, sharded by band: rows sorted by bucket key, each equal-key run
  // emits its C(m, 2) member pairs as (lo << 32) | hi keys into that band's
  // buffer. Output is keyed by band — not by worker — so the concatenation
  // below is schedule-independent.
  std::vector<std::vector<uint64_t>> band_pairs(bands);
  ParallelChunks(workers, bands, 1, [&](size_t, size_t b0, size_t b1) {
    std::vector<std::pair<uint64_t, uint32_t>> keys;
    keys.reserve(n - empty_rows);
    for (size_t band = b0; band < b1; ++band) {
      keys.clear();
      for (size_t r = 0; r < n; ++r) {
        if (row_empty(r)) continue;
        keys.emplace_back(
            LshBandKey(sigs.data() + r * sig_len + band * rows_per_band,
                       rows_per_band, band),
            static_cast<uint32_t>(r));
      }
      std::sort(keys.begin(), keys.end());
      std::vector<uint64_t>& out = band_pairs[band];
      size_t lo = 0;
      while (lo < keys.size()) {
        size_t hi = lo + 1;
        while (hi < keys.size() && keys[hi].first == keys[lo].first) ++hi;
        // Members ascend within the run (ties sort by row), so a < b below.
        for (size_t a = lo; a < hi; ++a) {
          for (size_t b = a + 1; b < hi; ++b) {
            out.push_back((uint64_t{keys[a].second} << 32) | keys[b].second);
          }
        }
        lo = hi;
      }
    }
  });
  sigs.clear();
  sigs.shrink_to_fit();

  // Cross-band dedup: one sorted unique candidate list. Sorting also groups
  // the verification batches by their lower row.
  size_t raw = 0;
  for (const auto& bp : band_pairs) raw += bp.size();
  std::vector<uint64_t> candidates;
  candidates.reserve(raw);
  for (auto& bp : band_pairs) {
    candidates.insert(candidates.end(), bp.begin(), bp.end());
    bp.clear();
    bp.shrink_to_fit();
  }
  SortUniqueParallel(&candidates, workers);
  *candidates_out = candidates.size();

  // Exact verification, sharded over the candidate array. Runs of equal
  // lower row become one packed batch call; a run split across chunk
  // boundaries just becomes two calls with identical results. The θ length
  // bound prunes a candidate before it reaches the kernel (exact, same
  // argument as the window pass).
  std::vector<EdgeList> edges(workers);
  std::vector<uint64_t> evaluated(workers, 0);
  std::vector<WorkerScratch> scratch(workers);
  constexpr size_t kVerifyChunk = 1024;
  ParallelChunks(workers, candidates.size(), kVerifyChunk, [&](size_t worker,
                                                              size_t begin,
                                                              size_t end) {
    EdgeList& local = edges[worker];
    std::vector<uint32_t>& js = scratch[worker].touched;
    std::vector<double>& vals = scratch[worker].vals;
    size_t p = begin;
    while (p < end) {
      const auto i = static_cast<PointIndex>(candidates[p] >> 32);
      size_t run = p;
      js.clear();
      while (run < end &&
             static_cast<PointIndex>(candidates[run] >> 32) == i) {
        const auto j = static_cast<uint32_t>(candidates[run] & 0xffffffffu);
        if (sizes == nullptr ||
            SizeBound(std::min((*sizes)[i], (*sizes)[j]),
                      std::max((*sizes)[i], (*sizes)[j])) >= theta) {
          js.push_back(j);
        }
        ++run;
      }
      if (!js.empty()) {
        vals.resize(js.size());
        batch.SimilarityBatch(i, js.data(), js.size(), vals.data());
        evaluated[worker] += js.size();
        for (size_t t = 0; t < js.size(); ++t) {
          if (vals[t] >= theta) {
            local.emplace_back(i, static_cast<PointIndex>(js[t]));
          }
        }
      }
      p = run;
    }
  });
  *pairs_evaluated = 0;
  for (const uint64_t e : evaluated) *pairs_evaluated += e;
  scratch.clear();
  return ScatterEdges(n, edges);
}

// The window pass's exact evaluated-pair count, in O(n log n): same sorted
// order + binary searches over sizes alone.
uint64_t WindowPairsExact(const BatchSimilarity& batch, double theta) {
  const size_t n = batch.size();
  const std::vector<uint32_t>* sizes = batch.prune_sizes();
  if (sizes == nullptr || theta <= 0.0) return TotalPairs(n);
  std::vector<uint32_t> sorted(*sizes);
  std::sort(sorted.begin(), sorted.end());
  uint64_t pairs = 0;
  for (size_t p = 0; p < n; ++p) {
    const uint64_t sp = sorted[p];
    size_t lo = p + 1;
    size_t hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (SizeBound(sp, sorted[mid]) >= theta) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    pairs += lo - (p + 1);
  }
  return pairs;
}

// ≈ upper-triangular ScanCount increments: Σ_item C(df, 2).
uint64_t CandidateScanOps(const SparseItemView& view) {
  std::vector<uint64_t> df(view.universe, 0);
  for (const uint32_t item : view.items) ++df[item];
  uint64_t ops = 0;
  for (const uint64_t d : df) {
    if (d > 1) ops += d * (d - 1) / 2;
  }
  return ops;
}

// Estimated LSH-pass op count, in the same rough one-memory-touch units as
// the two exact estimates above. The fixed part (signature build + per-band
// bucketing) follows from the shapes alone; the data-dependent part — raw
// bucket collisions to dedup and unique candidates to verify — is the
// banding curve integrated over the similarity distribution, estimated
// from a small deterministic sample of pairs (seeded by the LSH seed).
// This is how kAuto sees density and θ, not just n, and it is a function
// of data + seed alone, so the choice is identical at any thread count.
uint64_t LshOpsEstimate(const BatchSimilarity& batch, const LshOptions& lsh,
                        uint64_t nnz, uint64_t words) {
  const size_t n = batch.size();
  const auto b = static_cast<double>(lsh.num_bands);
  const auto r = static_cast<double>(lsh.rows_per_band);
  const uint64_t sig_len = lsh.num_bands * lsh.rows_per_band;
  double ops = static_cast<double>(nnz * sig_len) +
               static_cast<double>(n) * b;
  constexpr size_t kSamples = 256;
  if (n >= 2) {
    SplitMix64 sm(lsh.seed ^ (uint64_t{n} * 0x9e3779b97f4a7c15ULL));
    double raw = 0.0;
    double cand = 0.0;
    for (size_t s = 0; s < kSamples; ++s) {
      const auto i = static_cast<size_t>(sm.Next() % n);
      auto j = static_cast<uint32_t>(sm.Next() % (n - 1));
      if (j >= i) ++j;
      double v = 0.0;
      batch.SimilarityBatch(i, &j, 1, &v);
      const double per_band = std::pow(std::clamp(v, 0.0, 1.0), r);
      raw += b * per_band;                        // duplicate collisions
      cand += 1.0 - std::pow(1.0 - per_band, b);  // unique candidate?
    }
    const double scale = static_cast<double>(TotalPairs(n)) /
                         static_cast<double>(kSamples);
    // Dedup charges ~log₂(raw) comparisons per raw pair (call it 8); every
    // unique candidate pays one popcount sweep.
    ops += scale * (raw * 8.0 + cand * static_cast<double>(words));
  }
  return ops >= 1e19 ? std::numeric_limits<uint64_t>::max()
                     : static_cast<uint64_t>(ops);
}

}  // namespace

Result<NeighborGraph> ComputeNeighborsPacked(
    const PointSimilarity& sim, double theta,
    const PackedNeighborOptions& options) {
  if (!(theta >= 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  diag::SetGauge(options.metrics, "graph.threads",
                 static_cast<double>(ResolveThreads(options.num_threads)));
  std::unique_ptr<BatchSimilarity> batch;
  {
    diag::ScopedTimer pack_timer(options.metrics, "stage.neighbors.pack");
    batch = sim.MakeBatch();
  }
  if (batch == nullptr) {
    // No batch kernel (expert similarity, or packing over budget): the
    // serial scalar oracle is the answer, not an error.
    diag::AddCounter(options.metrics, "neighbors.fallback_scalar", 1);
    auto graph = ComputeNeighbors(sim, theta);
    if (graph.ok()) {
      diag::AddCounter(options.metrics, "neighbors.pairs_evaluated",
                       TotalPairs(sim.size()));
      diag::AddCounter(options.metrics, "neighbors.pairs_pruned", 0);
    }
    return graph;
  }

  const size_t n = batch->size();
  const uint64_t total = TotalPairs(n);
  PackedStrategy strategy = options.strategy;
  const bool candidates_ok = theta > 0.0 && batch->items() != nullptr;
  if (candidates_ok && (strategy == PackedStrategy::kLsh ||
                        (strategy == PackedStrategy::kAuto &&
                         options.allow_lsh))) {
    ROCK_RETURN_IF_ERROR(options.lsh.Validate());
  }
  if (!candidates_ok) {
    // θ = 0 needs the complete graph (nothing shares an item with an empty
    // row, yet everything neighbors it), so only the window pass is exact.
    strategy = PackedStrategy::kWindow;
  } else if (strategy == PackedStrategy::kAuto) {
    // Window cost ≈ surviving pairs × words per popcount sweep; candidate
    // cost ≈ postings increments. Both depend only on the data, so the
    // choice — and with it every neighbors.* metric — is identical at any
    // thread count.
    const uint64_t words = std::max<uint64_t>(
        1, (uint64_t{batch->items()->universe} + 63) / 64);
    const uint64_t window_pairs = WindowPairsExact(*batch, theta);
    const uint64_t window_cost =
        window_pairs > std::numeric_limits<uint64_t>::max() / words
            ? std::numeric_limits<uint64_t>::max()
            : window_pairs * words;
    const uint64_t scan_ops = CandidateScanOps(*batch->items());
    strategy = scan_ops < window_cost ? PackedStrategy::kCandidates
                                      : PackedStrategy::kWindow;
    if (options.allow_lsh) {
      const uint64_t lsh_ops = LshOpsEstimate(
          *batch, options.lsh, batch->items()->items.size(), words);
      const uint64_t exact_ops = std::min(window_cost, scan_ops);
      if (lsh_ops <
              std::numeric_limits<uint64_t>::max() / kLshAutoFactor &&
          exact_ops > kLshAutoFactor * lsh_ops) {
        strategy = PackedStrategy::kLsh;
      }
    }
  }

  uint64_t evaluated = 0;
  NeighborGraph graph;
  if (strategy == PackedStrategy::kLsh) {
    uint64_t lsh_candidates = 0;
    uint64_t skipped_empty = 0;
    graph = LshPass(*batch, theta, options, &evaluated, &lsh_candidates,
                    &skipped_empty);
    diag::AddCounter(options.metrics, "neighbors.lsh_pass", 1);
    diag::AddCounter(options.metrics, "neighbors.lsh_candidates",
                     lsh_candidates);
    diag::AddCounter(options.metrics, "neighbors.lsh_skipped_empty",
                     skipped_empty);
  } else if (strategy == PackedStrategy::kCandidates) {
    graph = CandidatePass(*batch, theta, options, &evaluated);
    diag::AddCounter(options.metrics, "neighbors.candidate_pass", 1);
  } else {
    graph = WindowPass(*batch, theta, options, &evaluated);
  }
  diag::AddCounter(options.metrics, "neighbors.pairs_evaluated", evaluated);
  diag::AddCounter(options.metrics, "neighbors.pairs_pruned",
                   total - evaluated);
  return graph;
}

}  // namespace rock
