// bench_neighbors_ablation — comparison of the neighbor-graph construction
// strategies on basket data (the O(n²) phase of §4.5):
//   * exact serial all-pairs Jaccard (the paper's algorithm),
//   * MinHash/LSH candidate generation + exact verification,
// plus the end-to-end clustering alternatives at high θ:
//   * full merge engine vs the link-component shortcut.
//
// Default mode runs the google-benchmark suite below. With
// --compare-engines it instead measures the packed neighbor engine against
// the scalar oracle on the Fig. 5 configuration (shared samples, θ sweep),
// verifies the graphs are identical, and appends packed-vs-scalar rows to
// the machine-readable perf trajectory (BENCH_rock.json / $ROCK_BENCH_JSON)
// for CI's perf-smoke stage.neighbors ratio gate.
//
// Usage: bench_neighbors_ablation [--compare-engines] [--scale=X]
//                                 [--max-n=N] [--reps=R] [gbench flags]
//   --scale=X  — multiplies the generated database size (default 1.0)
//   --max-n=N  — largest sample size to run (default 5000)
//   --reps=R   — timing repetitions per cell, best-of-R (default 1)

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/components.h"
#include "core/rock.h"
#include "core/sampling.h"
#include "diag/metrics.h"
#include "graph/neighbor_engine.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"
#include "synth/mushroom_generator.h"

namespace rock {
namespace {

TransactionDataset MakeBaskets(size_t n) {
  BasketGeneratorOptions opt;
  opt.cluster_sizes = {n / 3, n / 3, n - 2 * (n / 3)};
  opt.items_per_cluster = {20, 22, 18};
  opt.num_outliers = n / 20;
  opt.seed = 12345;
  return std::move(GenerateBasketData(opt)).value();
}

void BM_NeighborsExactSerial(benchmark::State& state) {
  TransactionDataset ds = MakeBaskets(static_cast<size_t>(state.range(0)));
  TransactionJaccard sim(ds);
  for (auto _ : state) {
    auto g = ComputeNeighbors(sim, 0.5);
    benchmark::DoNotOptimize(g->NumEdges());
  }
}
BENCHMARK(BM_NeighborsExactSerial)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// MinHash LSH candidates + exact verification: the packed engine's kLsh
// pass at the default 50×3 banding, serial.
PackedNeighborOptions SerialLshPass() {
  PackedNeighborOptions opt;
  opt.strategy = PackedStrategy::kLsh;
  return opt;
}

void BM_NeighborsLsh(benchmark::State& state) {
  TransactionDataset ds = MakeBaskets(static_cast<size_t>(state.range(0)));
  TransactionJaccard sim(ds);
  for (auto _ : state) {
    auto g = ComputeNeighborsPacked(sim, 0.5, SerialLshPass());
    benchmark::DoNotOptimize(g->NumEdges());
  }
}
BENCHMARK(BM_NeighborsLsh)->Arg(1000)->Arg(2000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// With small (~15-item) transactions, an exact Jaccard costs tens of
// nanoseconds and LSH's signature work cannot pay for itself — the honest
// result the small-tx benchmarks above show. The crossover needs expensive
// similarities: these variants use ~150-item transactions (wide baskets,
// e.g. monthly shopping histories), where one exact comparison costs ~10×
// more while signatures amortize.
TransactionDataset MakeWideBaskets(size_t n) {
  BasketGeneratorOptions opt;
  opt.cluster_sizes = {n / 2, n - n / 2};
  opt.items_per_cluster = {300, 320};
  opt.mean_tx_size = 150.0;
  opt.stddev_tx_size = 15.0;
  opt.num_outliers = n / 20;
  opt.seed = 777;
  return std::move(GenerateBasketData(opt)).value();
}

void BM_NeighborsExactSerialWideTx(benchmark::State& state) {
  TransactionDataset ds = MakeWideBaskets(static_cast<size_t>(state.range(0)));
  TransactionJaccard sim(ds);
  for (auto _ : state) {
    auto g = ComputeNeighbors(sim, 0.5);
    benchmark::DoNotOptimize(g->NumEdges());
  }
}
BENCHMARK(BM_NeighborsExactSerialWideTx)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_NeighborsLshWideTx(benchmark::State& state) {
  TransactionDataset ds = MakeWideBaskets(static_cast<size_t>(state.range(0)));
  TransactionJaccard sim(ds);
  for (auto _ : state) {
    auto g = ComputeNeighborsPacked(sim, 0.5, SerialLshPass());
    benchmark::DoNotOptimize(g->NumEdges());
  }
}
BENCHMARK(BM_NeighborsLshWideTx)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_ClusterMergeEngine(benchmark::State& state) {
  MushroomGeneratorOptions gen;
  gen.size_scale = 0.1;
  auto ds = GenerateMushroomData(gen);
  CategoricalJaccard sim(*ds);
  for (auto _ : state) {
    RockOptions opt;
    opt.theta = 0.8;
    opt.num_clusters = 1;
    auto r = RockClusterer(opt).Cluster(sim);
    benchmark::DoNotOptimize(r->clustering.num_clusters());
  }
}
BENCHMARK(BM_ClusterMergeEngine)->Unit(benchmark::kMillisecond);

void BM_ClusterLinkComponents(benchmark::State& state) {
  MushroomGeneratorOptions gen;
  gen.size_scale = 0.1;
  auto ds = GenerateMushroomData(gen);
  CategoricalJaccard sim(*ds);
  for (auto _ : state) {
    auto r = ComputeLinkComponents(sim, 0.8);
    benchmark::DoNotOptimize(r->clustering.num_clusters());
  }
}
BENCHMARK(BM_ClusterLinkComponents)->Unit(benchmark::kMillisecond);

// ------------------------------------------- --compare-engines harness --

// Packed vs scalar neighbor construction on the Fig. 5 configuration: one
// shared sample per n, θ sweep, graphs cross-checked for equality, timings
// appended to the perf trajectory. Returns nonzero on any mismatch so CI
// fails loudly rather than gating on a wrong graph's timings.
int RunEngineComparison(double scale, size_t max_n, size_t reps) {
  bench::Banner(
      "neighbor engines — packed (bit-planes + θ pruning) vs scalar oracle");

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
  std::printf("database: %zu transactions, reps=%zu (best-of)\n", ds->size(),
              reps);

  const double thetas[] = {0.5, 0.6, 0.7, 0.8};
  const size_t samples[] = {1000, 2000, 3000, 4000, 5000};
  bench::PerfJsonWriter perf("bench_neighbors_ablation");
  std::printf("\n%-16s %10s %10s %9s %14s %14s\n", "cell", "packed",
              "scalar", "speedup", "evaluated", "pruned");

  Rng rng(7);
  for (const size_t n : samples) {
    if (n > max_n || n > ds->size()) break;
    const std::vector<size_t> rows = SampleIndices(ds->size(), n, &rng);
    TransactionDataset sample;
    for (const size_t r : rows) sample.AddTransaction(ds->transaction(r));
    const TransactionJaccard sim(sample);

    for (const double theta : thetas) {
      diag::MetricsRegistry metrics;
      double packed_s = 0.0;
      NeighborGraph packed_graph;
      for (size_t rep = 0; rep < reps; ++rep) {
        diag::MetricsRegistry rep_metrics;
        PackedNeighborOptions nopts;
        nopts.metrics = &rep_metrics;
        Timer timer;
        auto g = ComputeNeighborsPacked(sim, theta, nopts);
        const double s = timer.ElapsedSeconds();
        if (!g.ok()) {
          std::fprintf(stderr, "packed engine failed: %s\n",
                       g.status().ToString().c_str());
          return 1;
        }
        if (rep == 0 || s < packed_s) {
          packed_s = s;
          metrics = std::move(rep_metrics);
          packed_graph = *std::move(g);
        }
      }
      double scalar_s = 0.0;
      NeighborGraph scalar_graph;
      for (size_t rep = 0; rep < reps; ++rep) {
        Timer timer;
        auto g = ComputeNeighbors(sim, theta);
        const double s = timer.ElapsedSeconds();
        if (!g.ok()) {
          std::fprintf(stderr, "scalar engine failed: %s\n",
                       g.status().ToString().c_str());
          return 1;
        }
        if (rep == 0 || s < scalar_s) {
          scalar_s = s;
          scalar_graph = *std::move(g);
        }
      }
      if (packed_graph.nbrlist != scalar_graph.nbrlist) {
        std::fprintf(stderr,
                     "ENGINE MISMATCH at n=%zu θ=%.1f — graphs differ\n", n,
                     theta);
        return 1;
      }

      const diag::RunMetrics snap = metrics.Snapshot();
      char label[64];
      char theta_str[16];
      std::snprintf(theta_str, sizeof(theta_str), "%.1f", theta);
      for (const char* engine : {"packed", "scalar"}) {
        std::snprintf(label, sizeof(label), "n=%zu θ=%s %s", n, theta_str,
                      engine);
        perf.BeginEntry(label);
        perf.Param("n", std::to_string(n));
        perf.Param("theta", theta_str);
        perf.Param("engine", engine);
        if (std::strcmp(engine, "packed") == 0) {
          perf.Timer("stage.neighbors", packed_s);
          perf.AddRunMetrics(snap);
        } else {
          perf.Timer("stage.neighbors", scalar_s);
        }
      }
      std::snprintf(label, sizeof(label), "n=%zu θ=%s", n, theta_str);
      std::printf("%-16s %9.4fs %9.4fs %8.2fx %14llu %14llu\n", label,
                  packed_s, scalar_s,
                  packed_s > 0.0 ? scalar_s / packed_s : 0.0,
                  static_cast<unsigned long long>(
                      snap.CounterOr("neighbors.pairs_evaluated")),
                  static_cast<unsigned long long>(
                      snap.CounterOr("neighbors.pairs_pruned")));
    }
  }
  perf.Write();
  return 0;
}

}  // namespace
}  // namespace rock

int main(int argc, char** argv) {
  bool compare_engines = false;
  double scale = 1.0;
  size_t max_n = 5000;
  size_t reps = 1;
  int kept = 1;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--compare-engines") == 0) {
      compare_engines = true;
    } else if (std::strncmp(argv[a], "--scale=", 8) == 0) {
      scale = std::atof(argv[a] + 8);
    } else if (std::strncmp(argv[a], "--max-n=", 8) == 0) {
      max_n = static_cast<size_t>(std::atoll(argv[a] + 8));
    } else if (std::strncmp(argv[a], "--reps=", 7) == 0) {
      reps = static_cast<size_t>(std::atoll(argv[a] + 7));
    } else {
      argv[kept++] = argv[a];  // leave for google-benchmark
    }
  }
  argc = kept;
  if (compare_engines) {
    return rock::RunEngineComparison(scale, max_n, reps < 1 ? 1 : reps);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
