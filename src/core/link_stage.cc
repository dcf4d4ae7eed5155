// The merge engines' shared link phase: RockOptions::link_engine decides
// whether Fig. 4 runs through the bit-plane popcount engine or the original
// hashed scatter (see core/merge_engine.h).

#include "core/merge_engine.h"
#include "graph/link_engine.h"

namespace rock::internal {

LinkMatrix ComputeLinkStage(const NeighborGraph& graph,
                            const RockOptions& options,
                            diag::MetricsRegistry* metrics) {
  if (options.link_engine == LinkEngineKind::kPacked) {
    PackedLinkOptions packed;
    packed.num_threads = options.num_threads;
    packed.row_chunk = options.row_chunk;
    packed.metrics = metrics;
    return ComputeLinksPacked(graph, packed);
  }
  return ComputeLinks(graph);
}

}  // namespace rock::internal
