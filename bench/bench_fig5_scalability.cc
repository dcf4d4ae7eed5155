// bench_fig5_scalability — reproduces paper Figure 5: ROCK execution time
// on the synthetic database as a function of the random-sample size, for
// four θ settings. As in the paper, the final labeling phase is excluded;
// time covers neighbor computation, link computation and the merge loop.
//
// Expected shape (paper): roughly quadratic growth in sample size; larger
// θ is faster because each transaction has fewer neighbors, making link
// computation cheaper.
//
// Usage: bench_fig5_scalability [scale] [--compare-engines]
//                               [--threads=N] [--merge-threads=N]
//   scale             — multiplies the generated database size (default 1.0)
//   --compare-engines — run every cell under both merge engines (parallel
//                       and the hashed oracle) and report the
//                       hashed/parallel stage.merge speedup
//   --threads=N       — worker threads for the graph phases (neighbor +
//                       link engines). Used by EXPERIMENTS.md's multi-core
//                       stage table.
//   --merge-threads=N — relink shards for the parallel merge engine; the
//                       merge *sequence* stays serial at any setting.
//
// The headline table times the parallel engine (the default).
//
// Every run appends to the machine-readable perf trajectory
// (BENCH_rock.json, or $ROCK_BENCH_JSON; schema in docs/OBSERVABILITY.md).
// CI's perf-smoke job runs this binary at a small scale with
// --compare-engines and gates on the parallel/hashed stage.merge ratio.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/rock.h"
#include "core/sampling.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"

namespace {

const char* EngineName(rock::MergeEngineKind kind) {
  return kind == rock::MergeEngineKind::kParallel ? "parallel" : "hashed";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rock;
  bench::Banner("Figure 5 — scalability: time vs random-sample size");

  double scale = 1.0;
  bool compare_engines = false;
  size_t threads = 1;
  size_t merge_threads = 1;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--compare-engines") == 0) {
      compare_engines = true;
    } else if (std::strncmp(argv[a], "--merge-threads=", 16) == 0) {
      merge_threads = static_cast<size_t>(std::atoll(argv[a] + 16));
    } else if (std::strncmp(argv[a], "--threads=", 10) == 0) {
      threads = static_cast<size_t>(std::atoll(argv[a] + 10));
    } else {
      scale = std::atof(argv[a]);
    }
  }

  BasketGeneratorOptions gen;
  if (scale != 1.0) {
    for (auto& s : gen.cluster_sizes) {
      s = static_cast<size_t>(static_cast<double>(s) * scale);
    }
    gen.num_outliers =
        static_cast<size_t>(static_cast<double>(gen.num_outliers) * scale);
  }
  auto ds = GenerateBasketData(gen);
  if (!ds.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 ds.status().ToString().c_str());
    return 1;
  }
  std::printf("database: %zu transactions\n", ds->size());

  const double thetas[] = {0.5, 0.6, 0.7, 0.8};
  const size_t samples[] = {1000, 2000, 3000, 4000, 5000};
  std::vector<MergeEngineKind> engines = {MergeEngineKind::kParallel};
  if (compare_engines) engines.push_back(MergeEngineKind::kHashed);

  std::printf("\nexecution time in seconds (excludes labeling, as in the "
              "paper)%s\n",
              compare_engines ? "; parallel engine" : "");
  std::printf("%-12s", "sample");
  for (double theta : thetas) std::printf("   θ=%.1f", theta);
  std::printf("\n");

  // Per-run diag metrics, kept for the stage breakdown table below.
  std::vector<std::pair<std::string, diag::RunMetrics>> breakdowns;
  bench::PerfJsonWriter perf("bench_fig5_scalability");

  Rng rng(7);
  for (size_t n : samples) {
    if (n > ds->size()) break;
    // One shared sample per row so θ is the only variable per column.
    std::vector<size_t> rows = SampleIndices(ds->size(), n, &rng);
    TransactionDataset sample;
    for (size_t r : rows) sample.AddTransaction(ds->transaction(r));

    std::printf("%-12zu", n);
    for (double theta : thetas) {
      TransactionJaccard sim(sample);
      for (MergeEngineKind engine : engines) {
        RockOptions opt;
        opt.theta = theta;
        opt.num_clusters = 10;
        opt.outlier_stop_multiple = 3.0;
        opt.min_cluster_support = 5;
        opt.merge_engine = engine;
        opt.merge_threads = merge_threads;
        opt.graph_threads = threads;
        Timer timer;
        auto result = RockClusterer(opt).Cluster(sim);
        if (!result.ok()) {
          std::fprintf(stderr, "ROCK failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        if (engine == engines.front()) {
          std::printf("%8.2f", timer.ElapsedSeconds());
          std::fflush(stdout);
        }
        char label[64];
        std::snprintf(label, sizeof(label), "n=%zu θ=%.1f %s", n, theta,
                      EngineName(engine));
        perf.BeginEntry(label);
        perf.Param("n", std::to_string(n));
        char theta_str[16];
        std::snprintf(theta_str, sizeof(theta_str), "%.1f", theta);
        perf.Param("theta", theta_str);
        perf.Param("engine", EngineName(engine));
        perf.Param("threads", std::to_string(threads));
        perf.Param("merge_threads", std::to_string(merge_threads));
        perf.AddRunMetrics(result->metrics);
        breakdowns.emplace_back(label, std::move(result->metrics));
      }
    }
    std::printf("\n");
  }

  bench::Section("per-stage breakdown (diag metrics)");
  for (const auto& [label, metrics] : breakdowns) {
    bench::PrintStageBreakdown(label, metrics);
  }

  if (compare_engines) {
    bench::Section("merge-engine comparison (stage.merge seconds)");
    std::printf("%-24s %10s %10s %13s\n", "cell", "parallel", "hashed",
                "hashed/par");
    for (size_t i = 0; i + 1 < breakdowns.size(); i += 2) {
      const double par_s =
          bench::StageSeconds(breakdowns[i].second, "merge");
      const double hashed_s =
          bench::StageSeconds(breakdowns[i + 1].second, "merge");
      std::printf("%-24s %10.4f %10.4f %12.2fx\n",
                  breakdowns[i].first.c_str(), par_s, hashed_s,
                  par_s > 0.0 ? hashed_s / par_s : 0.0);
    }
  }

  perf.Write();
  std::printf("\nshape checks (paper): each column grows ~quadratically in "
              "sample size; rows decrease left→right (larger θ → fewer "
              "neighbors → cheaper links); within a row, link time should "
              "shrink with θ faster than neighbor time.\n");
  return 0;
}
