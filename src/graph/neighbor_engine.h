// librock — graph/neighbor_engine.h
//
// θ-pruned packed neighbor-graph engine. The scalar oracle in neighbors.h
// evaluates all n²/2 pairs through a virtual per-pair call; this engine
// consumes a similarity's BatchSimilarity (similarity/batch.h) and cuts the
// work two independent ways while staying bit-identical to the scalar
// oracle at any thread count:
//
//   * window pruning — points sorted by set size; a pair (i, j) with sizes
//     s_min ≤ s_max can only reach sim ≥ θ when s_min/s_max ≥ θ (the §3.1
//     Jaccard length bound θ·|T_i| ≤ |T_j| ≤ |T_i|/θ, same bound the
//     labeler uses), so each point only scans a contiguous size window.
//     Surviving pairs are evaluated via the packed popcount kernel.
//   * inverted-index candidates — for θ > 0, sim(i, j) > 0 requires a
//     shared item, so a ScanCount pass over per-item postings enumerates
//     exactly the pairs with nonzero intersection; for plain set-Jaccard
//     the intersection count already determines the similarity.
//
// Both prunes are exact (see similarity/batch.h for the rounding argument),
// so the output NeighborGraph equals ComputeNeighbors(sim, theta) bit for
// bit. Pruning effectiveness is reported through the metrics registry:
// neighbors.pairs_evaluated + neighbors.pairs_pruned == n(n−1)/2 always.
//
// A third, sub-quadratic pass exists for scale (paper §4.5's O(n²) wall):
//
//   * MinHash LSH banding (similarity/minhash.h) — per-row signatures,
//     banded bucket keys, and bucket co-membership generate candidate
//     pairs in ~O(n · signature) instead of touching all n²/2 pairs; every
//     candidate is then θ-verified by the same packed kernel, so precision
//     stays 1 by construction while recall follows the banding curve
//     1 − (1 − θ^r)^b (LshOptions; a recall-vs-oracle differential gate
//     lives in tools/perf_smoke.sh). The pass is approximate — it is only
//     ever selected when explicitly requested (kLsh) or permitted
//     (allow_lsh with kAuto) — and deterministic for a fixed LshOptions
//     seed at any thread count.

#ifndef ROCK_GRAPH_NEIGHBOR_ENGINE_H_
#define ROCK_GRAPH_NEIGHBOR_ENGINE_H_

#include <cstddef>

#include "graph/neighbors.h"
#include "similarity/minhash.h"
#include "similarity/similarity.h"

namespace rock::diag {
class MetricsRegistry;
}  // namespace rock::diag

namespace rock {

/// Which pruning pass the packed engine runs.
enum class PackedStrategy {
  /// Pick per dataset: candidates when the estimated postings-scan work
  /// undercuts the windowed popcount sweep, window otherwise. With
  /// PackedNeighborOptions::allow_lsh the cost model may also pick the
  /// LSH pass when the exact passes' estimated work dwarfs the signature
  /// build (see kLshAutoFactor).
  kAuto,
  /// Size-sorted window + popcount sweep (always available).
  kWindow,
  /// Inverted-index ScanCount candidates (requires θ > 0 and an item view;
  /// silently degrades to the window pass otherwise).
  kCandidates,
  /// MinHash LSH banding candidates + exact θ-verification (requires θ > 0
  /// and an item view; silently degrades to the window pass otherwise).
  /// Approximate: precision 1, recall ≈ LshCollisionProbability(θ).
  kLsh,
};

/// kAuto picks the LSH pass (when allowed) only if the cheapest exact
/// pass's estimated op count exceeds this multiple of the LSH estimate
/// (signature build + banding + expected dedup/verification mass, the
/// latter integrated over a deterministic similarity sample — n, density
/// and θ all enter). The margin makes the trade deliberately lopsided:
/// exactness is only given up when the model predicts a multiple-of-
/// kLshAutoFactor win, which on inverted-index-friendly data (small
/// universes, e.g. the Fig. 5 workload) means never — ScanCount already
/// enumerates only the non-zero pairs there. LSH takes over on wide
/// universes with heavy-hitter items, where Σ_item C(df, 2) explodes but
/// pairwise similarities stay low (bench_graph_scale measures both
/// regimes).
inline constexpr uint64_t kLshAutoFactor = 3;

/// Options for ComputeNeighborsPacked.
struct PackedNeighborOptions {
  /// Worker threads; 1 = serial, 0 = hardware concurrency. Exact passes
  /// are bit-identical at any value; the LSH pass is deterministic for a
  /// fixed lsh.seed at any value.
  size_t num_threads = 1;
  /// Rows claimed per scheduling step by the parallel passes.
  size_t row_chunk = 16;
  /// Pruning pass selection; kAuto outside tests.
  PackedStrategy strategy = PackedStrategy::kAuto;
  /// Banding parameters for the LSH pass (strategy kLsh, or kAuto with
  /// allow_lsh). Defaults target ≥ 99.9% pair recall at θ ≈ 0.73.
  LshOptions lsh;
  /// Lets kAuto trade exactness for the sub-quadratic LSH pass. Off by
  /// default so existing callers keep the bit-identical-to-oracle
  /// contract unless they opt in (RockOptions maps kAuto here).
  bool allow_lsh = false;
  /// Metrics sink (may be null): neighbors.pairs_evaluated,
  /// neighbors.pairs_pruned, neighbors.candidate_pass,
  /// neighbors.fallback_scalar, neighbors.lsh_pass,
  /// neighbors.lsh_candidates, neighbors.lsh_skipped_empty, graph.threads,
  /// stage.neighbors.pack.
  diag::MetricsRegistry* metrics = nullptr;
};

/// Builds the θ-thresholded neighbor graph through the packed engine;
/// equals ComputeNeighbors(sim, theta) bit for bit under the exact passes.
/// Under the LSH pass the graph is a subgraph of the oracle (precision 1,
/// recall per LshOptions), deterministic for a fixed seed at any thread
/// count. When the similarity has no batch kernel (MakeBatch() == nullptr,
/// e.g. expert-supplied similarities or a packing over the memory budget),
/// falls back to the serial scalar oracle and counts
/// neighbors.fallback_scalar.
Result<NeighborGraph> ComputeNeighborsPacked(
    const PointSimilarity& sim, double theta,
    const PackedNeighborOptions& options = {});

}  // namespace rock

#endif  // ROCK_GRAPH_NEIGHBOR_ENGINE_H_
