// librock — core/options.h
//
// User-facing knobs for the ROCK clusterer, mirroring the paper's
// parameters: the similarity threshold θ (§3.1), the link-expectation
// exponent function f(θ) (§3.3), the desired cluster count k, and the two
// outlier-handling controls of §4.6 (isolated-point pruning and small-
// cluster weeding at a stop multiple of k).

#ifndef ROCK_CORE_OPTIONS_H_
#define ROCK_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"

namespace rock {

/// Sentinel for RockOptions::graph_threads: inherit num_threads.
inline constexpr size_t kGraphThreadsInherit = static_cast<size_t>(-1);

/// The paper's market-basket estimate f(θ) = (1 − θ) / (1 + θ): each point
/// of a cluster C_i has ≈ n_i^{f(θ)} neighbors inside C_i. Satisfies the
/// paper's sanity checks f(1) = 0 (only identical points are neighbors) and
/// f(0) = 1 (everyone is everyone's neighbor).
double MarketBasketF(double theta);

/// Alternative reading of the paper's (typographically garbled) market-
/// basket formula: f(θ) = 1/(1+θ). Its larger exponent penalizes merges
/// into big clusters more aggressively; unlike MarketBasketF it recovers
/// the paper's Figure 1 example end-to-end (see EXPERIMENTS.md). Note it
/// fails the paper's own boundary check f(1) = 0, so MarketBasketF is the
/// canonical default.
double ConservativeMarketBasketF(double theta);

/// Which engine runs the Fig. 3 merge loop. Results (merge sequence,
/// clustering, stats) are bit-identical between the two; only memory
/// layout and speed differ.
enum class MergeEngineKind {
  /// The original per-cluster `unordered_map` link tables. Kept as the
  /// reference oracle for differential tests and perf baselines.
  kHashed,
  /// Interleaved (AoS) partner rows, elided no-op heap fixups, and a
  /// relink that fans out over disjoint partner-id shards when
  /// merge_threads > 1 — the default engine (core/merge_parallel.cc).
  /// The merge *sequence* stays serial, so results are byte-identical to
  /// the oracle at any thread count.
  kParallel,
};

/// Which engine builds the θ-thresholded neighbor graph. kPacked and
/// kScalar produce bit-identical graphs at any thread count; kLsh trades
/// a controlled amount of recall for sub-quadratic candidate generation
/// (precision stays 1 — every reported edge is exactly θ-verified), and
/// kAuto only makes that trade when the cost model predicts a clear win.
enum class NeighborEngineKind {
  /// Bit-packed popcount kernel + θ length-bound / inverted-index pruning
  /// (graph/neighbor_engine.h) — the default, always exact. Falls back to
  /// the scalar path for similarities without a batch kernel.
  kPacked,
  /// The original per-pair virtual-call sweep (graph/neighbors.h). Kept as
  /// the reference oracle for differential tests and perf baselines.
  kScalar,
  /// MinHash LSH banding candidates + exact θ-verification (the packed
  /// engine's kLsh strategy). Deterministic for a fixed lsh_seed at any
  /// thread count; recall follows 1 − (1 − θ^r)^b for the banding in use.
  kLsh,
  /// The packed engine's cost model, additionally allowed to pick the LSH
  /// pass when its estimated op count beats every exact pass by a wide
  /// margin (graph/neighbor_engine.h kLshAutoFactor).
  kAuto,
};

/// Which engine computes the pairwise link counts (paper §3.2 / Fig. 4).
/// Frozen CSR link rows are byte-identical between the two at any thread
/// count; only speed differs.
enum class LinkEngineKind {
  /// Bit-plane popcount engine (graph/link_engine.h): neighbor rows packed
  /// into 64-bit word planes, link(p, q) = popcount(row_p AND row_q) over
  /// exactly the pairs sharing ≥ 1 neighbor — the default. Falls back to
  /// the hashed scatter when the plane exceeds the packing budget.
  kPacked,
  /// The original Fig. 4 pair-counting scatter (graph/links.cc). Kept
  /// verbatim as the reference oracle for differential tests and perf
  /// baselines.
  kHashed,
};

/// Observability and self-checking knobs (see docs/OBSERVABILITY.md).
struct DiagOptions {
  /// Collect per-stage timers and counters into RockResult::metrics /
  /// PipelineResult::metrics. Costs a few dozen registry writes per run.
  bool collect_metrics = true;

  /// When > 0, the merge engine re-derives its link/heap bookkeeping from
  /// first principles after every Nth merge (plus once before the first and
  /// once after the last) and records violations under diag.invariant_*.
  /// 0 defers to the ROCK_DIAG_CHECKS environment variable / build option
  /// (diag::InvariantCheckInterval), which default to disabled.
  size_t invariant_check_every = 0;
};

/// Parameters of a ROCK clustering run.
struct RockOptions {
  /// Similarity threshold θ ∈ [0, 1]: pairs with sim ≥ θ are neighbors.
  double theta = 0.5;

  /// Desired number of clusters k. The algorithm may stop with more
  /// clusters if all cross-links are exhausted first (paper §5.2: mushroom
  /// stopped at 21 with k = 20), or fewer after outlier weeding.
  size_t num_clusters = 2;

  /// Link-expectation exponent f(θ). Defaults to MarketBasketF.
  std::function<double(double)> f = MarketBasketF;

  /// Outlier pruning (§4.6 first stage): points with fewer neighbors than
  /// this never participate in clustering. 0 disables pruning; the paper's
  /// default is to discard points "with very few or no neighbors".
  size_t min_neighbors = 1;

  /// Outlier weeding (§4.6 second stage): when > 0, clustering pauses at
  /// ceil(outlier_stop_multiple × k) clusters and discards clusters with
  /// fewer than min_cluster_support points before continuing to k.
  /// 0 disables the pause.
  double outlier_stop_multiple = 0.0;

  /// Minimum size a cluster must have to survive weeding.
  size_t min_cluster_support = 2;

  /// Worker threads for the neighbor-graph and link-computation phases
  /// (the O(n²)-ish parts; the merge loop is inherently sequential).
  /// 1 = serial (default), 0 = hardware concurrency. Results are
  /// identical regardless of thread count.
  size_t num_threads = 1;

  /// Rows claimed per scheduling step by the parallel graph phases
  /// (ParallelOptions::row_chunk). Smaller chunks balance better on skewed
  /// rows, larger chunks cut scheduling overhead. Ignored when
  /// num_threads == 1.
  size_t row_chunk = 16;

  /// Worker threads for just the neighbor-graph + link phases, overriding
  /// num_threads there when set (kGraphThreadsInherit = follow
  /// num_threads; 0 = hardware concurrency). Lets a pipeline keep the
  /// serial default elsewhere while the two graph phases fan out.
  size_t graph_threads = kGraphThreadsInherit;

  /// LSH banding for neighbor_engine kLsh / kAuto: bands b and rows per
  /// band r (signature length b·r, candidate recall 1 − (1 − θ^r)^b).
  /// Both 0 (the default) auto-tunes them from θ for ≥ 99.95% recall at
  /// similarity exactly θ under a bounded signature length
  /// (TuneLshOptions in similarity/minhash.h). Ignored by exact engines.
  size_t lsh_bands = 0;
  size_t lsh_rows = 0;

  /// Seed for the LSH hash family. Graphs from kLsh are deterministic
  /// functions of (data, banding, this seed) at any thread count.
  uint64_t lsh_seed = 0x5eed;

  /// Merge engine; see MergeEngineKind. Both engines produce
  /// bit-identical results.
  MergeEngineKind merge_engine = MergeEngineKind::kParallel;

  /// Worker threads for the parallel merge engine's per-merge work (the
  /// sharded relink and the periodic compaction sweep; the merge sequence
  /// itself is inherently serial). 1 = serial (default), 0 = hardware
  /// concurrency. Results are byte-identical at any count. Ignored by the
  /// hashed engine.
  size_t merge_threads = 1;

  /// Minimum combined live-entry count of the two merged clusters' rows
  /// for a relink to fan out over the shard pool; smaller relinks run the
  /// serial loop (waking workers costs more than a tiny merge). Only
  /// consulted when merge_threads > 1; determinism tests lower it to 1 to
  /// force the sharded path on small inputs.
  size_t merge_shard_min = 256;

  /// Neighbor-graph engine; see NeighborEngineKind. Both engines produce
  /// bit-identical graphs.
  NeighborEngineKind neighbor_engine = NeighborEngineKind::kPacked;

  /// Link-computation engine; see LinkEngineKind. Both engines produce
  /// byte-identical frozen link rows.
  LinkEngineKind link_engine = LinkEngineKind::kPacked;

  /// Worker threads for the disk labeling phase (§4.6, the only stage that
  /// touches the whole database). The store is split into row shards that
  /// workers claim dynamically; assignments are bit-identical across all
  /// thread counts. 1 = serial (default), 0 = hardware concurrency.
  size_t label_threads = 1;

  /// Metrics collection and runtime invariant checking.
  DiagOptions diag;

  /// Deterministic fault-injection schedule (util/failpoint.h grammar,
  /// e.g. "store.read=fire_on_hit_100:error"). Empty = leave the process
  /// schedule untouched. Applied by RunRockPipeline before any I/O; in
  /// builds compiled with -DROCK_FAILPOINTS=OFF a non-empty schedule is
  /// rejected with FailedPrecondition instead of being silently ignored.
  std::string failpoints;

  /// Thread count the graph phases actually run with: graph_threads
  /// unless it is kGraphThreadsInherit, in which case num_threads.
  size_t EffectiveGraphThreads() const {
    return graph_threads == kGraphThreadsInherit ? num_threads
                                                 : graph_threads;
  }

  /// Checks parameter sanity.
  Status Validate() const;
};

}  // namespace rock

#endif  // ROCK_CORE_OPTIONS_H_
