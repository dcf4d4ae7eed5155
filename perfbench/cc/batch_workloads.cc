// The two batch workloads.
//
// pipeline_t5 — RunRockPipeline over the whole Table 5 store (sample 5000,
//   thread budget 4). The only workload where the §4.6 label scan over the
//   disk store dominates.
// build_s10k  — BuildModel on the same store (sample 10,000, thread budget
//   1): the Fig. 5 cluster phase, where neighbors, links and merge carry the
//   run and single-thread kernel changes show without scheduler noise.
//
// The traced run calls the layers one at a time through their public
// functions, mirroring what RunRockPipeline / BuildModel do internally:
// store scan → sample → ComputeNeighborsPacked → ClusterGraph →
// TransactionLabeler::Build → LabelStore (pipeline) or the model profile
// (build). ClusterGraph runs links and merge in one call; its span is split
// with the stage.links / stage.merge timers of the returned RockResult.

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/labeling.h"
#include "core/pipeline.h"
#include "core/rock.h"
#include "core/sampling.h"
#include "data/disk_store.h"
#include "diag/metrics.h"
#include "graph/neighbor_engine.h"
#include "graph/neighbors.h"
#include "harness.h"
#include "similarity/jaccard.h"
#include "similarity/minhash.h"

namespace perfbench {
namespace {

using rock::ClusterIndex;
using rock::Transaction;
using rock::TransactionDataset;

/// Writes the store once more and adds the write's seconds to `writes`.
/// The batch workloads' set-up is this write. It is repeated before every
/// timed call too, so store_write_ms samples the whole run rather than the
/// half second of set-up; the content, and so the call's input, is the same.
void WriteStore(const TransactionDataset& data, const std::string& path,
                Clock::time_point origin, Samples* writes) {
  const Clock::time_point t0 = Clock::now();
  Must(rock::WriteDatasetToStore(data, path), "WriteDatasetToStore");
  writes->Add(Seconds(origin, t0), Seconds(t0, Clock::now()));
}

void StampThreads(const rock::PipelineOptions& opt, Report* report) {
  report->Threads("host_cores", HostCores());
  report->Threads("rock.num_threads", opt.rock.num_threads);
  report->Threads("graph_threads", opt.rock.EffectiveGraphThreads());
  report->Threads("label_threads", opt.rock.label_threads);
  report->Threads("merge_threads", opt.rock.merge_threads);
}

TransactionDataset Rows(const TransactionDataset& data,
                        const std::vector<uint64_t>& rows) {
  TransactionDataset out;
  for (uint64_t r : rows) out.AddTransaction(data.transaction(r));
  return out;
}

std::vector<rock::LabelId> Truth(const TransactionDataset& data,
                                 const std::vector<uint64_t>& rows) {
  std::vector<rock::LabelId> out;
  out.reserve(rows.size());
  for (uint64_t r : rows) out.push_back(data.labels().label(r));
  return out;
}

/// What one traced layer chain measured.
struct ChainResult {
  double wall = 0.0;        ///< root span
  double top_level = 0.0;   ///< sum of the root's direct children
  double scan = 0.0;        ///< data.store_scan span (not in the library run)
  uint64_t rows = 0;
  uint64_t pairs_evaluated = 0;
  uint64_t pairs_pruned = 0;
  uint64_t edges = 0;
  uint64_t link_pairs = 0;
  uint64_t merges = 0;
  uint64_t best_rescans = 0;
  uint64_t goodness_updates = 0;
  std::vector<ClusterIndex> sample_clustering;
  rock::TransactionLabeler::AssignStats label_stats;
  std::vector<ClusterIndex> assignments;  ///< label scan, or sample
};

ChainResult TracedChain(Tracer* tracer, const std::string& store,
                        const rock::PipelineOptions& opt, bool label_scan) {
  ChainResult out;
  const int root = tracer->Begin("workload");
  {
    // One serial whole-file pass: decode + CRC, apart from labeling.
    Tracer::Scope span(tracer, "data.store_scan");
    auto reader =
        Must(rock::TransactionStoreReader::Open(store), "open store");
    while (reader.Next()) ++out.rows;
    Must(reader.status(), "store scan");
  }
  TransactionDataset sample;
  {
    // The reservoir pass RunRockPipeline / BuildModel draw their sample
    // with: same seed, same sampler, rows kept in store order.
    Tracer::Scope span(tracer, "core.sample");
    rock::Rng rng(opt.seed);
    auto reader =
        Must(rock::TransactionStoreReader::Open(store), "open store");
    rock::ReservoirSampler<Transaction> sampler(
        static_cast<size_t>(std::min<uint64_t>(opt.sample_size, out.rows)),
        &rng);
    while (reader.Next()) sampler.Offer(reader.transaction());
    Must(reader.status(), "sample scan");
    std::vector<size_t> order(sampler.sample().size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return sampler.sample_indices()[a] < sampler.sample_indices()[b];
    });
    for (size_t idx : order) sample.AddTransaction(sampler.sample()[idx]);
  }
  rock::TransactionJaccard sim(sample);
  rock::NeighborGraph graph;
  {
    rock::diag::MetricsRegistry registry;
    rock::PackedNeighborOptions nopts;
    nopts.num_threads = opt.rock.EffectiveGraphThreads();
    nopts.row_chunk = opt.rock.row_chunk;
    nopts.lsh = rock::TuneLshOptions(opt.rock.theta, opt.rock.lsh_seed);
    nopts.metrics = &registry;
    Tracer::Scope span(tracer, "graph.neighbors");
    graph = Must(rock::ComputeNeighborsPacked(sim, opt.rock.theta, nopts),
                 "ComputeNeighborsPacked");
    const rock::diag::RunMetrics m = registry.Snapshot();
    out.pairs_evaluated = m.CounterOr("neighbors.pairs_evaluated");
    out.pairs_pruned = m.CounterOr("neighbors.pairs_pruned");
    out.edges = graph.NumEdges();
  }
  rock::RockResult clustered;
  {
    const int span = tracer->Begin("core.cluster_graph");
    clustered = Must(rock::RockClusterer(opt.rock).ClusterGraph(graph),
                     "ClusterGraph");
    tracer->End(span);
    const rock::diag::RunMetrics& m = clustered.metrics;
    for (const char* stage : {"stage.links", "stage.merge"}) {
      const rock::diag::TimerStats* t = m.FindTimer(stage);
      tracer->AddDerived(span,
                         std::string(stage) == "stage.links" ? "graph.links"
                                                             : "core.merge",
                         t == nullptr ? 0.0 : t->total_seconds);
    }
    out.link_pairs = m.CounterOr("links.nonzero_pairs");
    out.merges = m.CounterOr("merge.merges");
    out.best_rescans = m.CounterOr("merge.relink_best_rescans");
    out.goodness_updates = m.CounterOr("merge.goodness_updates");
    out.sample_clustering = clustered.clustering.assignment;
  }
  rock::TransactionLabeler labeler = [&] {
    Tracer::Scope span(tracer, "core.labeler_build");
    return Must(rock::TransactionLabeler::Build(sample, clustered.clustering,
                                                opt.rock, opt.labeling),
                "TransactionLabeler::Build");
  }();
  if (label_scan) {
    // The shard plan RunRockPipeline pins for this thread count.
    const size_t threads = opt.rock.label_threads;
    rock::LabelStoreOptions lopts;
    lopts.num_threads = threads;
    lopts.num_shards =
        threads <= 1 ? 1 : std::min<uint64_t>(out.rows, threads * 4);
    Tracer::Scope span(tracer, "core.label_scan");
    rock::LabelingRunResult labeled =
        Must(rock::LabelStore(store, labeler, lopts), "LabelStore");
    out.label_stats = labeled.stats;
    out.assignments = std::move(labeled.assignments);
  } else {
    // BuildModel profiles the model against its own sample.
    Tracer::Scope span(tracer, "core.model_profile");
    rock::TransactionLabeler::Scratch scratch;
    for (const Transaction& tx : sample.transactions()) {
      out.assignments.push_back(
          labeler.AssignDetailed(tx, &scratch, &out.label_stats).cluster);
    }
  }
  tracer->End(root);
  out.wall = tracer->Duration(root);
  for (size_t i = 0; i < tracer->spans().size(); ++i) {
    const Tracer::Span& s = tracer->spans()[i];
    if (s.parent != root) continue;
    out.top_level += tracer->Duration(static_cast<int>(i));
    if (s.name == "data.store_scan") {
      out.scan = tracer->Duration(static_cast<int>(i));
    }
  }
  return out;
}

/// Per-layer metrics of one traced run: span medians over its chains, and
/// counts from the first chain (every chain runs the same input, so the
/// counts repeat exactly).
void ReportLayers(Report* report, const Tracer& tracer,
                  const std::vector<ChainResult>& chains,
                  const std::vector<double>& untraced,
                  const std::vector<double>& library_sample_s) {
  const auto span_s = [&](const char* name) {
    return Median(tracer.Durations(name));
  };
  const ChainResult& c = chains.front();
  const auto count = [](uint64_t n) { return static_cast<double>(n); };
  report->Metric("data.store_scan_s", span_s("data.store_scan"), "s");
  report->Metric("data.store_rows_per_s",
                 count(c.rows) / span_s("data.store_scan"), "1/s");
  // As the library itself times its sampling pass (the chain's own
  // core.sample span is in the trace and the self-time table).
  report->Metric("core.sample_s", Median(library_sample_s), "s");
  report->Metric("graph.neighbors_s", span_s("graph.neighbors"), "s");
  report->Metric("graph.pairs_evaluated", count(c.pairs_evaluated), "count");
  report->Metric("graph.pairs_pruned", count(c.pairs_pruned), "count");
  report->Metric("graph.edges", count(c.edges), "count");
  report->Metric("graph.neighbor_yield",
                 c.pairs_evaluated > 0
                     ? count(c.edges) / count(c.pairs_evaluated)
                     : 0.0,
                 "fraction");
  report->Metric("graph.links_s", span_s("graph.links"), "s");
  report->Metric("graph.link_pairs", count(c.link_pairs), "count");
  report->Metric("core.merge_s", span_s("core.merge"), "s");
  report->Metric("core.merges", count(c.merges), "count");
  report->Metric("core.relink_best_rescans", count(c.best_rescans), "count");
  report->Metric("core.goodness_updates", count(c.goodness_updates),
                 "count");
  report->Metric("core.labeler_build_s", span_s("core.labeler_build"), "s");
  if (!tracer.Durations("core.label_scan").empty()) {
    const double rows = count(c.assignments.size());
    const double computed = count(c.label_stats.similarities_computed);
    const double skipped = count(c.label_stats.points_skipped_length);
    report->Metric("core.label_scan_s", span_s("core.label_scan"), "s");
    report->Metric("core.label_rows_per_s", rows / span_s("core.label_scan"),
                   "1/s");
    report->Metric("core.label_sims_per_row", computed / rows, "count");
    report->Metric("core.label_length_skip_frac",
                   skipped + computed > 0 ? skipped / (skipped + computed)
                                          : 0.0,
                   "fraction");
  }
  std::vector<double> residual;
  std::vector<double> library_part;  // the chain without its extra scan
  for (const ChainResult& chain : chains) {
    residual.push_back(1.0 - chain.top_level / chain.wall);
    library_part.push_back(chain.wall - chain.scan);
  }
  report->Metric("bench.residual_frac", Median(residual), "fraction");
  report->Metric("bench.trace_overhead_frac",
                 Median(library_part) / Median(untraced) - 1.0, "fraction");
  tracer.PrintSelfTimes(*report);
}

/// One batch workload run: its timed samples and, when traced, its chains.
struct BatchRun {
  Samples setups;  ///< the set-up store writes
  Samples writes;  ///< the store write before each timed call
  Samples calls;   ///< each timed library call
  std::vector<double> sample_s;  ///< the library's own sample_seconds
  std::vector<ChainResult> chains;
  Tracer tracer;
  bool repeatable = true;
};

/// Set-up and timed loop of both batch workloads: nine set-up writes, then,
/// until --seconds have passed, a store write, one timed `call`, and in the
/// traced run the layer chain. Returns the first call's result; later
/// results must equal it by `same`.
template <typename Call, typename Same>
auto TimeCalls(const Args& args, const TransactionDataset& data,
               const std::string& store, const rock::PipelineOptions& opt,
               bool label_scan, const std::string& what, Call call, Same same,
               BatchRun* run, Report* report) {
  const Clock::time_point origin = Clock::now();
  for (int i = 0; i < 9; ++i) WriteStore(data, store, origin, &run->setups);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  decltype(Must(call(), what)) first;
  do {
    run->tracer.SetRun(static_cast<int>(run->calls.value.size()));
    WriteStore(data, store, origin, &run->writes);
    const Clock::time_point t0 = Clock::now();
    auto result = call();
    run->calls.Add(Seconds(origin, t0), Seconds(t0, Clock::now()));
    auto value = Must(std::move(result), what);
    report->Operations(1);
    run->sample_s.push_back(value.sample_seconds);
    if (run->calls.value.size() == 1) {
      first = std::move(value);
    } else {
      run->repeatable = run->repeatable && same(value, first);
    }
    if (args.trace) {
      run->chains.push_back(TracedChain(&run->tracer, store, opt, label_scan));
    }
  } while (Clock::now() < deadline);
  return first;
}

/// Prints the timings and reports the run's metrics: end-to-end ones, or
/// in the traced run the per-layer ones under `call_name`.
void ReportBatch(const Args& args, const std::string& call_name,
                 const BatchRun& run, double misclassified_frac,
                 Report* report) {
  report->Timing(call_name, run.calls.value, "s");
  report->Timing("setup_s (WriteDatasetToStore)", run.setups.value, "s");
  report->Timing("store_write_s (before each call)", run.writes.value, "s");
  if (!args.trace) {
    report->Metric("setup_s", Median(run.setups.value), "s");
    report->Metric("op_ms", run.calls.FastestSecond() * 1e3, "ms");
    report->Metric("store_write_ms", run.writes.FastestSecond() * 1e3, "ms");
    report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
    report->Metric("ok_frac", 1.0 - misclassified_frac, "fraction");
    return;
  }
  report->Metric(call_name, Median(run.calls.value), "s");
  report->Metric("misclassified_frac", misclassified_frac, "fraction");
  ReportLayers(report, run.tracer, run.chains, run.calls.value, run.sample_s);
  WriteTrace(args, run.tracer, report);
}

}  // namespace

void RunPipelineT5(const Args& args, Report* report) {
  const BasketInput input = MakeBasketInput(args.seed, args.scale);
  const std::string store = args.dir + "/store.bin";
  const rock::PipelineOptions opt =
      BaseOptions(args.seed, Scaled(5000, args.scale),
                  std::min<size_t>(4, HostCores()));
  StampThreads(opt, report);
  const size_t rows = input.data.size();
  BatchRun run;
  const rock::PipelineResult first = TimeCalls(
      args, input.data, store, opt, true, "RunRockPipeline",
      [&] { return rock::RunRockPipeline(store, opt); },
      [](const rock::PipelineResult& a, const rock::PipelineResult& b) {
        return a.labeling.assignments == b.labeling.assignments;
      },
      &run, report);

  // Answer checks, outside the timed regions.
  const std::vector<ClusterIndex>& labels = first.labeling.assignments;
  report->Check(labels.size() == rows, "pipeline labels every store row");
  report->Check(first.sample_result.clustering.num_clusters() ==
                    opt.rock.num_clusters,
                "pipeline finds k = 10 clusters");
  report->Check(run.repeatable, "repeated pipeline runs label identically");
  {
    const TransactionDataset sample = Rows(input.data, first.sample_rows);
    const rock::TransactionLabeler oracle =
        Must(rock::TransactionLabeler::Build(
                 sample, first.sample_result.clustering, opt.rock,
                 opt.labeling),
             "oracle labeler");
    const size_t stride = 97;
    size_t same = 0;
    size_t checked = 0;
    for (size_t r = 0; r < labels.size(); r += stride, ++checked) {
      same += oracle.AssignUnpruned(input.data.transaction(r)) == labels[r];
    }
    report->Check(checked > 0 && same == checked,
                  "every 97th store row: AssignUnpruned oracle == pipeline (" +
                      std::to_string(same) + "/" + std::to_string(checked) +
                      ")");
  }
  if (args.trace) {
    bool chains_match = true;
    for (const ChainResult& c : run.chains) {
      chains_match =
          chains_match && c.assignments == labels &&
          c.sample_clustering == first.sample_result.clustering.assignment;
    }
    report->Check(chains_match,
                  "layer-by-layer chain labels exactly as RunRockPipeline");
  }
  const uint64_t missed =
      Misclassified(labels, first.labeling.ground_truth,
                    first.sample_result.clustering.num_clusters(), input);
  report->Note("misclassified " + std::to_string(missed) + " of " +
               std::to_string(rows) + " store rows");
  ReportBatch(args, "pipeline_s", run,
              static_cast<double>(missed) / static_cast<double>(rows),
              report);
}

void RunBuildS10k(const Args& args, Report* report) {
  const BasketInput input = MakeBasketInput(args.seed, args.scale);
  const std::string store = args.dir + "/store.bin";
  rock::ModelBuildOptions build;
  build.pipeline = BaseOptions(args.seed, Scaled(10000, args.scale), 1);
  const rock::PipelineOptions& opt = build.pipeline;
  StampThreads(opt, report);
  BatchRun run;
  const rock::ModelBuildResult first = TimeCalls(
      args, input.data, store, opt, false, "BuildModel",
      [&] { return rock::BuildModel(store, build); },
      [](const rock::ModelBuildResult& a, const rock::ModelBuildResult& b) {
        return a.sample_result.clustering.assignment ==
               b.sample_result.clustering.assignment;
      },
      &run, report);

  // Answer checks, outside the timed regions.
  const rock::Clustering& clustering = first.sample_result.clustering;
  report->Check(clustering.num_clusters() == opt.rock.num_clusters &&
                    first.bundle.labeling_sets.size() ==
                        opt.rock.num_clusters,
                "build finds k = 10 clusters");
  report->Check(run.repeatable, "repeated builds cluster identically");
  {
    // Neighbor graph of a fixed sub-sample: packed engine vs the scalar
    // per-pair oracle.
    const size_t n = std::min(first.sample_rows.size(),
                              Scaled(2000, args.scale));
    const TransactionDataset sub = Rows(
        input.data, std::vector<uint64_t>(first.sample_rows.begin(),
                                          first.sample_rows.begin() +
                                              static_cast<ptrdiff_t>(n)));
    const rock::TransactionJaccard sim(sub);
    const rock::NeighborGraph packed = Must(
        rock::ComputeNeighborsPacked(sim, opt.rock.theta), "packed graph");
    const rock::NeighborGraph scalar =
        Must(rock::ComputeNeighbors(sim, opt.rock.theta), "scalar graph");
    report->Check(packed.nbrlist == scalar.nbrlist,
                  "first " + std::to_string(n) +
                      " sampled rows: ComputeNeighborsPacked == "
                      "ComputeNeighbors oracle (" +
                      std::to_string(scalar.NumEdges()) + " edges)");
  }
  if (args.trace) {
    bool chains_match = true;
    for (const ChainResult& c : run.chains) {
      chains_match =
          chains_match && c.sample_clustering == clustering.assignment;
    }
    report->Check(chains_match,
                  "layer-by-layer chain clusters exactly as BuildModel");
  }
  const uint64_t missed =
      Misclassified(clustering.assignment, Truth(input.data, first.sample_rows),
                    clustering.num_clusters(), input);
  report->Note("misclassified " + std::to_string(missed) + " of " +
               std::to_string(first.sample_rows.size()) + " sampled rows");
  ReportBatch(args, "build_s", run,
              static_cast<double>(missed) /
                  static_cast<double>(first.sample_rows.size()),
              report);
}

}  // namespace perfbench
