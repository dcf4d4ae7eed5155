// librock — core/merge_engine.h (internal)
//
// The two interchangeable implementations of the Fig. 3 agglomerative
// merge loop: one production engine and one oracle. Both consume a
// prebuilt neighbor graph, run the link phase, and return a complete
// RockResult; they differ only in data layout and bookkeeping, and both
// run the merge loop on one thread (Fig. 3 merges one globally best pair
// per step):
//
//   * parallel — interleaved (AoS) partner rows, elided no-op global-heap
//                fixups, memoized goodness, lazy best-cleaning and a
//                three-way sorted relink. The default engine
//                (core/merge_parallel.cc, DESIGN.md §12). Despite the
//                name it is serial; the name stays because
//                `--merge-engine=parallel` and the perf baselines use it.
//   * hashed   — per-cluster std::unordered_map link tables, the original
//                layout. Kept behind the same API as the reference oracle
//                for differential tests and perf baselines
//                (core/merge_hashed.cc).
//
// Results are bit-identical: the merge sequence, clustering, stats, and
// invariant-check outcomes agree element for element (enforced by
// tests/diag_differential_test.cc). RockClusterer dispatches on
// RockOptions::merge_engine; this header is not part of the public API.

#ifndef ROCK_CORE_MERGE_ENGINE_H_
#define ROCK_CORE_MERGE_ENGINE_H_

#include "core/rock.h"

namespace rock::internal {

/// Runs the original hash-table merge engine (reference oracle).
RockResult RunHashedMergeEngine(const NeighborGraph& graph,
                                const RockOptions& options);

/// Runs the production merge engine (interleaved rows, elided heap fixups,
/// lazy best-cleaning) — the default.
RockResult RunParallelMergeEngine(const NeighborGraph& graph,
                                  const RockOptions& options);

/// Link phase shared by both merge engines: dispatches on
/// RockOptions::link_engine (bit-plane popcount engine vs the Fig. 4
/// hashed scatter, graph/link_engine.h vs graph/links.cc) with the run's
/// thread count and metrics sink threaded through. Either engine yields a
/// matrix with byte-identical frozen CSR rows; the packed one returns it
/// already frozen.
LinkMatrix ComputeLinkStage(const NeighborGraph& graph,
                            const RockOptions& options,
                            diag::MetricsRegistry* metrics);

}  // namespace rock::internal

#endif  // ROCK_CORE_MERGE_ENGINE_H_
