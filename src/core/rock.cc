#include "core/rock.h"

#include "common/timer.h"
#include "core/merge_engine.h"
#include "diag/metrics.h"
#include "graph/neighbor_engine.h"
#include "graph/parallel.h"

namespace rock {

Result<RockResult> RockClusterer::Cluster(const PointSimilarity& sim) const {
  ROCK_RETURN_IF_ERROR(options_.Validate());
  diag::MetricsRegistry nbr_metrics;
  Timer nbr_timer;
  Result<NeighborGraph> graph = NeighborGraph{};
  const size_t graph_threads = options_.EffectiveGraphThreads();
  switch (options_.neighbor_engine) {
    case NeighborEngineKind::kScalar:
      graph = graph_threads == 1
                  ? ComputeNeighbors(sim, options_.theta)
                  : ComputeNeighborsParallel(
                        sim, options_.theta,
                        {graph_threads, options_.row_chunk});
      break;
    case NeighborEngineKind::kPacked:
    case NeighborEngineKind::kLsh:
    case NeighborEngineKind::kAuto: {
      PackedNeighborOptions nopts;
      nopts.num_threads = graph_threads;
      nopts.row_chunk = options_.row_chunk;
      if (options_.neighbor_engine == NeighborEngineKind::kLsh) {
        nopts.strategy = PackedStrategy::kLsh;
      } else if (options_.neighbor_engine == NeighborEngineKind::kAuto) {
        nopts.allow_lsh = true;
      }
      nopts.lsh = options_.lsh_bands == 0
                      ? TuneLshOptions(options_.theta, options_.lsh_seed)
                      : LshOptions{options_.lsh_bands, options_.lsh_rows,
                                   options_.lsh_seed};
      nopts.metrics = options_.diag.collect_metrics ? &nbr_metrics : nullptr;
      graph = ComputeNeighborsPacked(sim, options_.theta, nopts);
      break;
    }
  }
  ROCK_RETURN_IF_ERROR(graph.status());
  const double nbr_seconds = nbr_timer.ElapsedSeconds();
  auto result = ClusterGraph(*graph);
  ROCK_RETURN_IF_ERROR(result.status());
  result->stats.neighbor_seconds = nbr_seconds;
  result->stats.total_seconds += nbr_seconds;
  if (options_.diag.collect_metrics) {
    result->metrics.Merge(nbr_metrics.Snapshot());
    result->metrics.RecordSeconds("stage.neighbors", nbr_seconds);
    // stage.total must cover the whole run including this phase; replace
    // the engine's graph-only figure.
    auto& total = result->metrics.timers["stage.total"];
    total = diag::TimerStats{};
    total.Record(result->stats.total_seconds);
  }
  return result;
}

Result<RockResult> RockClusterer::ClusterGraph(
    const NeighborGraph& graph) const {
  ROCK_RETURN_IF_ERROR(options_.Validate());
  switch (options_.merge_engine) {
    case MergeEngineKind::kHashed:
      return internal::RunHashedMergeEngine(graph, options_);
    case MergeEngineKind::kParallel:
      break;
  }
  return internal::RunParallelMergeEngine(graph, options_);
}

}  // namespace rock
