#include "cli/cli.h"

#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <initializer_list>
#include <map>
#include <sstream>
#include <utility>

#include "baselines/binarize.h"
#include "baselines/centroid_hierarchical.h"
#include "baselines/kmeans.h"
#include "baselines/linkage_hierarchical.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/components.h"
#include "core/pipeline.h"
#include "core/sweep.h"
#include "core/rock.h"
#include "data/arff_reader.h"
#include "data/csv_reader.h"
#include "diag/metrics.h"
#include "data/disk_store.h"
#include "data/transforms.h"
#include "eval/contingency.h"
#include "eval/metrics.h"
#include "eval/profiles.h"
#include "serve/model_handle.h"
#include "serve/reload.h"
#include "serve/server.h"
#include "serve/stream.h"
#include "util/failpoint.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"
#include "synth/fund_generator.h"
#include "synth/mushroom_generator.h"
#include "synth/votes_generator.h"
#include "util/flags.h"

namespace rock {

namespace {

/// printf-style append to the output string.
template <typename... Args>
void Emit(std::string* out, const char* fmt, Args... args) {
  char buf[4096];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  *out += buf;
}

void EmitStr(std::string* out, const std::string& s) { *out += s; }

// ---------------------------------------------------------------- loading --

/// A loaded input: either categorical records or transactions (one is
/// populated based on --format).
struct LoadedData {
  bool is_categorical = false;
  CategoricalDataset categorical;
  TransactionDataset transactions;

  size_t size() const {
    return is_categorical ? categorical.size() : transactions.size();
  }
  const LabelSet& labels() const {
    return is_categorical ? categorical.labels() : transactions.labels();
  }
};

/// Reads basket-format text: one transaction per line, whitespace-separated
/// item names; with label_first, the first token is the ground-truth label.
Result<TransactionDataset> ReadBasketFile(const std::string& path,
                                          bool label_first) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  TransactionDataset ds;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    std::istringstream tokens{std::string(trimmed)};
    std::vector<std::string> items;
    std::string token;
    while (tokens >> token) items.push_back(token);
    if (items.empty()) continue;
    if (label_first) {
      ds.labels().Append(items.front());
      items.erase(items.begin());
    }
    ds.AddTransaction(items);
  }
  return ds;
}

Result<LoadedData> LoadInput(const std::string& path,
                             const std::string& format, int64_t label_column,
                             bool label_first) {
  LoadedData data;
  if (format == "csv") {
    CsvOptions csv;
    csv.label_column = static_cast<int>(label_column);
    auto ds = ReadCsvFile(path, csv);
    ROCK_RETURN_IF_ERROR(ds.status());
    data.is_categorical = true;
    data.categorical = std::move(*ds);
    return data;
  }
  if (format == "arff") {
    auto ds = ReadArffFile(path, ArffOptions{});
    ROCK_RETURN_IF_ERROR(ds.status());
    data.is_categorical = true;
    data.categorical = std::move(*ds);
    return data;
  }
  if (format == "basket") {
    auto ds = ReadBasketFile(path, label_first);
    ROCK_RETURN_IF_ERROR(ds.status());
    data.transactions = std::move(*ds);
    return data;
  }
  if (format == "store") {
    auto ds = ReadStoreToDataset(path, nullptr);
    ROCK_RETURN_IF_ERROR(ds.status());
    data.transactions = std::move(*ds);
    return data;
  }
  return Status::InvalidArgument("unknown --format '" + format +
                                 "' (csv|arff|basket|store)");
}

// ----------------------------------------------------------------- output --

Status WriteAssignments(const std::string& path,
                        const std::vector<ClusterIndex>& assignment) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot create '" + path + "'");
  out << "row,cluster\n";
  for (size_t i = 0; i < assignment.size(); ++i) {
    out << i << ',' << assignment[i] << '\n';
  }
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Writes a machine-readable run summary: cluster sizes, per-class
/// compositions when labels exist, quality metrics.
Status WriteJsonSummary(const std::string& path,
                        const Clustering& clustering,
                        const LabelSet& labels) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot create '" + path + "'");
  out << "{\n  \"num_clusters\": " << clustering.num_clusters()
      << ",\n  \"num_points\": " << clustering.assignment.size()
      << ",\n  \"num_outliers\": " << clustering.num_outliers()
      << ",\n  \"clusters\": [";
  for (size_t c = 0; c < clustering.num_clusters(); ++c) {
    out << (c == 0 ? "\n" : ",\n") << "    {\"id\": " << c
        << ", \"size\": " << clustering.clusters[c].size();
    if (!labels.empty()) {
      std::map<LabelId, size_t> counts;
      for (PointIndex p : clustering.clusters[c]) {
        if (labels.label(p) != kNoLabel) ++counts[labels.label(p)];
      }
      out << ", \"composition\": {";
      bool first = true;
      for (const auto& [l, n] : counts) {
        out << (first ? "" : ", ") << '"' << JsonEscape(labels.Name(l))
            << "\": " << n;
        first = false;
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n  ]";
  if (!labels.empty()) {
    auto table = ContingencyTable::Build(clustering, labels);
    if (table.ok()) {
      const VMeasure v = ComputeVMeasure(*table);
      out << ",\n  \"purity\": " << Purity(*table)
          << ",\n  \"ari\": " << AdjustedRandIndex(*table)
          << ",\n  \"nmi\": " << NormalizedMutualInformation(*table)
          << ",\n  \"v_measure\": " << v.v;
    }
  }
  out << "\n}\n";
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

/// Writes the diag metrics report (see docs/OBSERVABILITY.md for schema).
Status WriteMetricsJson(const std::string& path,
                        const diag::RunMetrics& metrics,
                        std::string_view tool) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot create '" + path + "'");
  out << metrics.ToJson(tool);
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

void EmitClusteringSummary(const Clustering& clustering,
                           const LabelSet& labels, std::string* out) {
  Emit(out, "clusters: %zu   points: %zu   outliers: %zu\n",
       clustering.num_clusters(), clustering.assignment.size(),
       clustering.num_outliers());
  for (size_t c = 0; c < clustering.num_clusters() && c < 30; ++c) {
    Emit(out, "  cluster %zu: %zu points", c, clustering.clusters[c].size());
    if (!labels.empty()) {
      std::map<LabelId, size_t> counts;
      for (PointIndex p : clustering.clusters[c]) {
        if (labels.label(p) != kNoLabel) ++counts[labels.label(p)];
      }
      EmitStr(out, "  {");
      bool first = true;
      for (const auto& [l, n] : counts) {
        Emit(out, "%s%s: %zu", first ? "" : ", ", labels.Name(l).c_str(), n);
        first = false;
      }
      EmitStr(out, "}");
    }
    EmitStr(out, "\n");
  }
  if (clustering.num_clusters() > 30) {
    Emit(out, "  … %zu more clusters\n", clustering.num_clusters() - 30);
  }
  if (!labels.empty()) {
    auto table = ContingencyTable::Build(clustering, labels);
    if (table.ok()) {
      Emit(out, "purity: %.4f   ARI: %.4f   NMI: %.4f\n", Purity(*table),
           AdjustedRandIndex(*table), NormalizedMutualInformation(*table));
    }
  }
}

// -------------------------------------------------------- clusterer flags --

// The RockOptions flags, bound once for `rock cluster`, `rock pipeline` and
// `rock build` so all three parse them — and reject engine names — the
// same way. A subcommand only chooses its own defaults.
struct RockFlagValues {
  double theta = 0.5;
  size_t k = 2;
  double stop_multiple = 0.0;
  size_t min_support = 2;
  size_t check_invariants = 0;
  size_t threads = 1;
  size_t row_chunk = 16;
  size_t lsh_bands = 0;
  size_t lsh_rows = 0;
  size_t lsh_seed = 0x5eed;
  std::string neighbor_engine = "packed";
  std::string link_engine = "packed";
  std::string merge_engine = "parallel";
};

void RegisterRockFlags(FlagSet& flags, RockFlagValues* v) {
  flags.AddDouble("theta", &v->theta, "neighbor threshold θ");
  flags.AddSize("k", &v->k, "desired number of clusters");
  flags.AddDouble("stop-multiple", &v->stop_multiple,
                  "pause at stop-multiple×k clusters and weed small ones "
                  "(0 = off)");
  flags.AddSize("min-support", &v->min_support,
                "minimum cluster size surviving weeding");
  flags.AddSize("check-invariants", &v->check_invariants,
                "validate merge bookkeeping every Nth merge (0 = off)");
  flags.AddSize("threads", &v->threads,
                "worker threads for the neighbor/link phases "
                "(0 = all cores; results are identical at any count)");
  flags.AddSize("row-chunk", &v->row_chunk,
                "rows claimed per parallel scheduling step "
                "(with --threads > 1)");
  flags.AddSize("lsh-bands", &v->lsh_bands,
                "LSH bands for --neighbor-engine=lsh|auto "
                "(0 = auto-tune from θ)");
  flags.AddSize("lsh-rows", &v->lsh_rows,
                "LSH rows per band (0 = auto-tune from θ)");
  flags.AddSize("lsh-seed", &v->lsh_seed, "LSH hash-family seed");
  flags.AddString("neighbor-engine", &v->neighbor_engine,
                  "packed | scalar | lsh | auto neighbor-graph engine "
                  "(packed/scalar are exact and identical, lsh is "
                  "precision-1 approximate, auto picks per dataset)");
  flags.AddString("link-engine", &v->link_engine,
                  "packed | hashed link-count engine (link rows are "
                  "identical, packed is faster)");
  flags.AddString("merge-engine", &v->merge_engine,
                  "parallel | hashed merge engine (results are identical; "
                  "hashed is the reference oracle, parallel is faster)");
}

/// Resolves an engine-name flag against its (name, kind) table. On a miss
/// renders "unknown --<flag>" and returns false.
template <typename Kind>
bool ParseEngineName(const char* flag, const std::string& name,
                     std::initializer_list<std::pair<const char*, Kind>> table,
                     Kind* kind, std::string* out) {
  for (const auto& [candidate, value] : table) {
    if (name == candidate) {
      *kind = value;
      return true;
    }
  }
  EmitStr(out, std::string("error: unknown --") + flag + " '" + name + "'\n");
  return false;
}

/// Transfers parsed flag values into RockOptions. Returns 0, or exit code
/// 2 after rendering an error for an unknown engine name.
int ApplyRockFlags(const RockFlagValues& v, RockOptions* opt,
                   std::string* out) {
  opt->theta = v.theta;
  opt->num_clusters = v.k;
  opt->outlier_stop_multiple = v.stop_multiple;
  opt->min_cluster_support = v.min_support;
  opt->diag.invariant_check_every = v.check_invariants;
  opt->num_threads = v.threads;
  opt->row_chunk = v.row_chunk;
  opt->lsh_bands = v.lsh_bands;
  opt->lsh_rows = v.lsh_rows;
  opt->lsh_seed = v.lsh_seed;
  const bool known =
      ParseEngineName("neighbor-engine", v.neighbor_engine,
                      {{"packed", NeighborEngineKind::kPacked},
                       {"scalar", NeighborEngineKind::kScalar},
                       {"lsh", NeighborEngineKind::kLsh},
                       {"auto", NeighborEngineKind::kAuto}},
                      &opt->neighbor_engine, out) &&
      ParseEngineName("link-engine", v.link_engine,
                      {{"packed", LinkEngineKind::kPacked},
                       {"hashed", LinkEngineKind::kHashed}},
                      &opt->link_engine, out) &&
      ParseEngineName("merge-engine", v.merge_engine,
                      {{"parallel", MergeEngineKind::kParallel},
                       {"hashed", MergeEngineKind::kHashed}},
                      &opt->merge_engine, out);
  return known ? 0 : 2;
}

// ------------------------------------------------------------ subcommands --

int CmdGen(const std::vector<std::string>& args, std::string* out,
           bool help_only) {
  std::string dataset = "basket";
  std::string out_path;
  std::string format = "auto";
  double scale = 1.0;
  int64_t seed = 42;

  FlagSet flags;
  flags.AddString("dataset", &dataset,
                  "which data set: basket | votes | mushroom | funds");
  flags.AddString("out", &out_path, "output file path");
  flags.AddString("format", &format,
                  "output format: auto | csv | store (basket only)");
  flags.AddDouble("scale", &scale, "size multiplier (basket/mushroom)");
  flags.AddInt("seed", &seed, "generator seed");
  if (help_only) {
    EmitStr(out, "rock gen — generate a synthetic data set\n" + flags.Help());
    return 0;
  }
  if (Status s = flags.Parse(args); !s.ok()) {
    EmitStr(out, "error: " + s.ToString() + "\n" + flags.Help());
    return 2;
  }
  if (out_path.empty()) {
    EmitStr(out, "error: --out is required\n");
    return 2;
  }

  const auto useed = static_cast<uint64_t>(seed);
  if (dataset == "basket") {
    BasketGeneratorOptions opt;
    opt.seed = useed;
    if (scale != 1.0) {
      for (auto& s : opt.cluster_sizes) {
        s = static_cast<size_t>(static_cast<double>(s) * scale);
      }
      opt.num_outliers = static_cast<size_t>(
          static_cast<double>(opt.num_outliers) * scale);
    }
    auto ds = GenerateBasketData(opt);
    if (!ds.ok()) {
      EmitStr(out, "error: " + ds.status().ToString() + "\n");
      return 1;
    }
    if (Status s = WriteDatasetToStore(*ds, out_path); !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
    Emit(out, "wrote %zu transactions to %s (store format)\n", ds->size(),
         out_path.c_str());
    return 0;
  }

  // Categorical data sets → CSV with the label in column 0.
  CategoricalDataset ds;
  if (dataset == "votes") {
    VotesGeneratorOptions opt;
    opt.seed = useed;
    auto r = GenerateVotesData(opt);
    if (!r.ok()) {
      EmitStr(out, "error: " + r.status().ToString() + "\n");
      return 1;
    }
    ds = std::move(*r);
  } else if (dataset == "mushroom") {
    MushroomGeneratorOptions opt;
    opt.seed = useed;
    opt.size_scale = scale;
    auto r = GenerateMushroomData(opt);
    if (!r.ok()) {
      EmitStr(out, "error: " + r.status().ToString() + "\n");
      return 1;
    }
    ds = std::move(*r);
  } else if (dataset == "funds") {
    FundGeneratorOptions opt;
    opt.seed = useed;
    auto set = GenerateFundData(opt);
    if (!set.ok()) {
      EmitStr(out, "error: " + set.status().ToString() + "\n");
      return 1;
    }
    auto r = TimeSeriesToCategorical(*set);
    if (!r.ok()) {
      EmitStr(out, "error: " + r.status().ToString() + "\n");
      return 1;
    }
    ds = std::move(*r);
  } else {
    EmitStr(out, "error: unknown --dataset '" + dataset + "'\n");
    return 2;
  }

  std::ofstream file(out_path);
  if (!file) {
    EmitStr(out, "error: cannot create " + out_path + "\n");
    return 1;
  }
  for (size_t i = 0; i < ds.size(); ++i) {
    const LabelId l = ds.labels().empty() ? kNoLabel : ds.labels().label(i);
    file << (l == kNoLabel ? "?" : ds.labels().Name(l));
    const Record& r = ds.record(i);
    for (size_t a = 0; a < r.size(); ++a) {
      file << ',';
      file << (r.IsMissing(a) ? "?" : ds.schema().ValueName(a, r.value(a)));
    }
    file << '\n';
  }
  Emit(out, "wrote %zu records to %s (csv format)\n", ds.size(),
       out_path.c_str());
  return 0;
}

int CmdCluster(const std::vector<std::string>& args, std::string* out,
               bool help_only) {
  std::string input;
  std::string format = "csv";
  std::string algo = "rock";
  std::string similarity = "jaccard";
  std::string assignments_path;
  std::string json_path;
  std::string metrics_json_path;
  int64_t label_column = 0;
  bool label_first = false;
  bool profiles = false;
  int64_t seed = 42;
  RockFlagValues rock;

  FlagSet flags;
  flags.AddString("input", &input, "input file");
  flags.AddString("format", &format, "csv | arff | basket | store");
  flags.AddString("algo", &algo,
                  "rock | centroid | single-link | group-average | kmeans");
  flags.AddString("similarity", &similarity,
                  "jaccard | pairwise-missing (csv inputs)");
  flags.AddString("assignments", &assignments_path,
                  "write row,cluster CSV here");
  flags.AddString("json", &json_path,
                  "write a machine-readable run summary (JSON) here");
  flags.AddString("metrics-json", &metrics_json_path,
                  "write the per-stage metrics report (JSON) here (rock)");
  flags.AddInt("label-column", &label_column,
               "ground-truth column in csv (-1 = none)");
  flags.AddBool("label-first", &label_first,
                "basket format: first token of each line is the label");
  flags.AddBool("profiles", &profiles,
                "print per-cluster frequent attribute values (csv inputs)");
  flags.AddInt("seed", &seed, "seed (kmeans)");
  RegisterRockFlags(flags, &rock);
  if (help_only) {
    EmitStr(out,
            "rock cluster — cluster a data file (--k applies to every "
            "--algo, the other clusterer flags to --algo=rock only)\n" +
                flags.Help());
    return 0;
  }
  if (Status s = flags.Parse(args); !s.ok()) {
    EmitStr(out, "error: " + s.ToString() + "\n" + flags.Help());
    return 2;
  }
  if (input.empty()) {
    EmitStr(out, "error: --input is required\n");
    return 2;
  }
  RockOptions opt;
  if (int code = ApplyRockFlags(rock, &opt, out); code != 0) return code;

  auto loaded = LoadInput(input, format, label_column, label_first);
  if (!loaded.ok()) {
    EmitStr(out, "error: " + loaded.status().ToString() + "\n");
    return 1;
  }
  Emit(out, "loaded %zu %s from %s\n", loaded->size(),
       loaded->is_categorical ? "records" : "transactions", input.c_str());

  Timer timer;
  Clustering clustering;
  diag::RunMetrics run_metrics;
  bool have_metrics = false;
  if (algo == "rock" || algo == "single-link" || algo == "group-average") {
    // Similarity-driven algorithms.
    std::unique_ptr<PointSimilarity> sim;
    if (loaded->is_categorical) {
      if (similarity == "pairwise-missing") {
        sim = std::make_unique<PairwiseMissingJaccard>(loaded->categorical);
      } else {
        sim = std::make_unique<CategoricalJaccard>(loaded->categorical);
      }
    } else {
      sim = std::make_unique<TransactionJaccard>(loaded->transactions);
    }
    if (algo == "rock") {
      auto result = RockClusterer(opt).Cluster(*sim);
      if (!result.ok()) {
        EmitStr(out, "error: " + result.status().ToString() + "\n");
        return 1;
      }
      clustering = std::move(result->clustering);
      run_metrics = std::move(result->metrics);
      have_metrics = true;
      Emit(out,
           "rock: θ=%.3f merges=%zu pruned=%zu weeded=%zu "
           "criterion=%.2f\n",
           opt.theta, result->stats.num_merges,
           result->stats.num_pruned_points,
           result->stats.num_weeded_clusters,
           result->stats.criterion_value);
      const uint64_t violations =
          run_metrics.CounterOr("diag.invariant_violations");
      if (rock.check_invariants > 0) {
        Emit(out, "diag: invariant checks=%llu violations=%llu\n",
             static_cast<unsigned long long>(
                 run_metrics.CounterOr("diag.invariant_checks")),
             static_cast<unsigned long long>(violations));
      }
      if (violations > 0) {
        EmitStr(out, "error: invariant violations detected (see stderr)\n");
        return 1;
      }
    } else if (algo == "single-link") {
      auto result = ClusterSingleLink(*sim, opt.num_clusters);
      if (!result.ok()) {
        EmitStr(out, "error: " + result.status().ToString() + "\n");
        return 1;
      }
      clustering = std::move(*result);
    } else {
      auto result = ClusterGroupAverage(*sim, opt.num_clusters);
      if (!result.ok()) {
        EmitStr(out, "error: " + result.status().ToString() + "\n");
        return 1;
      }
      clustering = std::move(*result);
    }
  } else if (algo == "centroid" || algo == "kmeans") {
    BinarizedData bin = loaded->is_categorical
                            ? BinarizeRecords(loaded->categorical)
                            : BinarizeTransactions(loaded->transactions);
    if (algo == "centroid") {
      CentroidHierarchicalOptions copt;
      copt.num_clusters = opt.num_clusters;
      auto result = ClusterCentroidHierarchical(bin.points, copt);
      if (!result.ok()) {
        EmitStr(out, "error: " + result.status().ToString() + "\n");
        return 1;
      }
      clustering = std::move(result->clustering);
    } else {
      KMeansOptions kopt;
      kopt.num_clusters = opt.num_clusters;
      kopt.seed = static_cast<uint64_t>(seed);
      auto result = ClusterKMeans(bin.points, kopt);
      if (!result.ok()) {
        EmitStr(out, "error: " + result.status().ToString() + "\n");
        return 1;
      }
      clustering = std::move(result->clustering);
      Emit(out, "kmeans: iterations=%zu converged=%s criterion E=%.2f\n",
           result->iterations, result->converged ? "yes" : "no",
           result->criterion);
    }
  } else {
    EmitStr(out, "error: unknown --algo '" + algo + "'\n");
    return 2;
  }
  Emit(out, "clustered in %.2fs\n", timer.ElapsedSeconds());
  EmitClusteringSummary(clustering, loaded->labels(), out);

  if (profiles && loaded->is_categorical) {
    ProfileOptions popt;
    popt.min_support = 0.5;
    for (const auto& p :
         ProfileClusters(loaded->categorical, clustering, popt)) {
      EmitStr(out, FormatProfile(p));
    }
  }
  if (!assignments_path.empty()) {
    if (Status s = WriteAssignments(assignments_path, clustering.assignment);
        !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
    Emit(out, "assignments written to %s\n", assignments_path.c_str());
  }
  if (!json_path.empty()) {
    if (Status s =
            WriteJsonSummary(json_path, clustering, loaded->labels());
        !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
    Emit(out, "summary written to %s\n", json_path.c_str());
  }
  if (!metrics_json_path.empty()) {
    if (!have_metrics) {
      EmitStr(out, "error: --metrics-json requires --algo=rock\n");
      return 2;
    }
    if (Status s = WriteMetricsJson(metrics_json_path, run_metrics,
                                    "cluster");
        !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
    Emit(out, "metrics written to %s\n", metrics_json_path.c_str());
  }
  return 0;
}

// Sampling flags shared by `rock pipeline` and `rock build`, on top of the
// clusterer flags. One definition keeps the two halves' defaults identical
// — the serve ≡ pipeline differential only holds when both build the
// exact same model.
struct PipelineFlagValues {
  RockFlagValues rock{.k = 10, .stop_multiple = 3.0, .min_support = 5};
  size_t sample_size = 2000;
  double labeling_fraction = 0.25;
  size_t label_threads = 1;
  int64_t seed = 42;
  std::string failpoints;
};

void RegisterPipelineFlags(FlagSet& flags, PipelineFlagValues* v) {
  RegisterRockFlags(flags, &v->rock);
  flags.AddSize("label-threads", &v->label_threads,
                "worker threads for the disk labeling phase "
                "(0 = all cores; assignments are identical at any count)");
  flags.AddSize("sample-size", &v->sample_size, "random sample size");
  flags.AddDouble("labeling-fraction", &v->labeling_fraction,
                  "fraction of each cluster used for labeling");
  flags.AddInt("seed", &v->seed, "sampling seed");
  flags.AddString("failpoints", &v->failpoints,
                  "deterministic fault-injection schedule, e.g. "
                  "'store.read=fire_on_hit_10:error' "
                  "(docs/ROBUSTNESS.md; debug builds only)");
}

/// Transfers parsed flag values into PipelineOptions. Returns 0, or exit
/// code 2 after rendering an error for an unknown engine name.
int ApplyPipelineFlags(const PipelineFlagValues& v, PipelineOptions* opt,
                       std::string* out) {
  if (int code = ApplyRockFlags(v.rock, &opt->rock, out); code != 0) {
    return code;
  }
  opt->rock.label_threads = v.label_threads;
  opt->rock.failpoints = v.failpoints;
  opt->sample_size = v.sample_size;
  opt->labeling.fraction = v.labeling_fraction;
  opt->seed = static_cast<uint64_t>(v.seed);
  return 0;
}

int CmdPipeline(const std::vector<std::string>& args, std::string* out,
                bool help_only) {
  std::string store;
  std::string assignments_path;
  std::string metrics_json_path;
  std::string checkpoint_path;
  bool resume = false;
  PipelineFlagValues v;

  FlagSet flags;
  flags.AddString("store", &store, "transaction store file (see `rock gen`)");
  flags.AddString("checkpoint", &checkpoint_path,
                  "persist labeling progress here after every shard; the "
                  "file is removed when the run completes");
  flags.AddBool("resume", &resume,
                "resume from --checkpoint if it matches this run (a "
                "missing or corrupt checkpoint restarts cleanly)");
  flags.AddString("assignments", &assignments_path,
                  "write row,cluster CSV here");
  flags.AddString("metrics-json", &metrics_json_path,
                  "write the per-stage metrics report (JSON) here");
  RegisterPipelineFlags(flags, &v);
  if (help_only) {
    EmitStr(out,
            "rock pipeline — disk-backed sample/cluster/label\n" +
                flags.Help());
    return 0;
  }
  if (Status s = flags.Parse(args); !s.ok()) {
    EmitStr(out, "error: " + s.ToString() + "\n" + flags.Help());
    return 2;
  }
  if (store.empty()) {
    EmitStr(out, "error: --store is required\n");
    return 2;
  }
  if (resume && checkpoint_path.empty()) {
    EmitStr(out, "error: --resume requires --checkpoint\n");
    return 2;
  }

  PipelineOptions opt;
  if (int code = ApplyPipelineFlags(v, &opt, out); code != 0) {
    return code;
  }
  opt.checkpoint_path = checkpoint_path;
  opt.resume = resume;
  auto result = RunRockPipeline(store, opt);
  if (!result.ok()) {
    EmitStr(out, "error: " + result.status().ToString() + "\n");
    return 1;
  }
  Emit(out,
       "pipeline: sample=%zu clusters=%zu outliers=%zu "
       "(sample %.2fs, cluster %.2fs, label %.2fs)\n",
       result->sample_rows.size(),
       result->sample_result.clustering.num_clusters(),
       result->labeling.num_outliers, result->sample_seconds,
       result->cluster_seconds, result->label_seconds);
  if (result->resumed) {
    Emit(out,
         "resume: sample clustering restored from checkpoint, "
         "%zu of %zu label shards skipped\n",
         result->shards_skipped, result->labeling.shards);
  }
  {
    const auto& lab = result->labeling;
    const uint64_t candidates =
        lab.stats.clusters_scored + lab.stats.clusters_pruned;
    Emit(out,
         "labeling: %zu threads over %zu shards, %.0f tx/s, "
         "prune hit rate %.2f\n",
         lab.threads_used, lab.shards,
         lab.seconds > 0.0
             ? static_cast<double>(lab.assignments.size()) / lab.seconds
             : 0.0,
         candidates == 0
             ? 0.0
             : static_cast<double>(lab.stats.clusters_pruned) /
                   static_cast<double>(candidates));
  }

  std::map<ClusterIndex, size_t> sizes;
  for (ClusterIndex c : result->labeling.assignments) ++sizes[c];
  for (const auto& [c, n] : sizes) {
    if (c == kUnassigned) {
      Emit(out, "  outliers: %zu rows\n", n);
    } else {
      Emit(out, "  cluster %d: %zu rows\n", c, n);
    }
  }
  if (!assignments_path.empty()) {
    if (Status s =
            WriteAssignments(assignments_path, result->labeling.assignments);
        !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
    Emit(out, "assignments written to %s\n", assignments_path.c_str());
  }
  if (result->metrics.CounterOr("diag.invariant_violations") > 0) {
    EmitStr(out, "error: invariant violations detected (see stderr)\n");
    return 1;
  }
  if (!metrics_json_path.empty()) {
    if (Status s = WriteMetricsJson(metrics_json_path, result->metrics,
                                    "pipeline");
        !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
    Emit(out, "metrics written to %s\n", metrics_json_path.c_str());
  }
  return 0;
}


int CmdBuild(const std::vector<std::string>& args, std::string* out,
             bool help_only) {
  std::string store;
  std::string model_path;
  std::string metrics_json_path;
  PipelineFlagValues v;

  FlagSet flags;
  flags.AddString("store", &store, "transaction store file (see `rock gen`)");
  flags.AddString("model", &model_path,
                  "write the model bundle here (versioned + CRC'd; "
                  "see docs/DESIGN.md)");
  flags.AddString("metrics-json", &metrics_json_path,
                  "write the per-stage metrics report (JSON) here");
  RegisterPipelineFlags(flags, &v);
  if (help_only) {
    EmitStr(out,
            "rock build — sample + cluster a store into a servable model "
            "bundle\n" +
                flags.Help());
    return 0;
  }
  if (Status s = flags.Parse(args); !s.ok()) {
    EmitStr(out, "error: " + s.ToString() + "\n" + flags.Help());
    return 2;
  }
  if (store.empty()) {
    EmitStr(out, "error: --store is required\n");
    return 2;
  }
  if (model_path.empty()) {
    EmitStr(out, "error: --model is required\n");
    return 2;
  }

  ModelBuildOptions opt;
  if (int code = ApplyPipelineFlags(v, &opt.pipeline, out); code != 0) {
    return code;
  }
  opt.model_path = model_path;
  auto result = BuildModel(store, opt);
  if (!result.ok()) {
    EmitStr(out, "error: " + result.status().ToString() + "\n");
    return 1;
  }
  size_t labeling_points = 0;
  for (const auto& set : result->bundle.labeling_sets) {
    labeling_points += set.size();
  }
  Emit(out,
       "build: sample=%zu clusters=%zu labeling-points=%zu "
       "(sample %.2fs, cluster %.2fs, build %.2fs)\n",
       result->sample_rows.size(), result->bundle.labeling_sets.size(),
       labeling_points, result->sample_seconds, result->cluster_seconds,
       result->build_seconds);
  Emit(out, "model written to %s\n", model_path.c_str());
  if (!metrics_json_path.empty()) {
    if (Status s =
            WriteMetricsJson(metrics_json_path, result->metrics, "build");
        !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
    Emit(out, "metrics written to %s\n", metrics_json_path.c_str());
  }
  return 0;
}

int CmdServe(const std::vector<std::string>& args, std::string* out,
             bool help_only, std::istream* stream_in,
             std::ostream* stream_out) {
  std::string model_path;
  std::string metrics_json_path;
  size_t threads = 1;
  size_t max_batch = 64;
  size_t max_queue = 4096;
  size_t reload_poll_ms = 0;

  FlagSet flags;
  flags.AddString("model", &model_path, "model bundle (see `rock build`)");
  flags.AddSize("threads", &threads,
                "labeling worker threads (0 = all cores)");
  flags.AddSize("max-batch", &max_batch,
                "most queries a worker coalesces per wake-up");
  flags.AddSize("max-queue", &max_queue,
                "admission bound: queries queued beyond this are rejected");
  flags.AddSize("reload-poll-ms", &reload_poll_ms,
                "re-read --model every N ms and hot-swap it when its "
                "fingerprint changes (0 = off; queries in flight finish on "
                "the model that admitted them)");
  flags.AddString("metrics-json", &metrics_json_path,
                  "write the serve.* metrics report (JSON) here on exit");
  if (help_only) {
    EmitStr(out,
            "rock serve — answer cluster-assignment queries over "
            "stdin/stdout\n"
            "one whitespace-separated item query per line; one decimal "
            "cluster index per answer (-1 = outlier); blank and '#' lines "
            "are skipped\n" +
                flags.Help());
    return 0;
  }
  if (Status s = flags.Parse(args); !s.ok()) {
    EmitStr(out, "error: " + s.ToString() + "\n" + flags.Help());
    return 2;
  }
  if (model_path.empty()) {
    EmitStr(out, "error: --model is required\n");
    return 2;
  }
  if (stream_in == nullptr || stream_out == nullptr) {
    EmitStr(out, "error: serve needs an input/output stream\n");
    return 2;
  }

  auto model = ModelHandle::Load(model_path);
  if (!model.ok()) {
    EmitStr(out, "error: " + model.status().ToString() + "\n");
    return 1;
  }

  diag::MetricsRegistry registry;
  ServeOptions serve_options;
  serve_options.num_threads = threads;
  serve_options.max_batch = max_batch;
  serve_options.max_queue = max_queue;
  serve_options.metrics = &registry;
  if (reload_poll_ms == 0) {
    if (Status s = ServeLines(*model, serve_options, *stream_in, *stream_out);
        !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
  } else {
    SwappableModel swappable(
        std::make_shared<const ModelHandle>(std::move(*model)));
    ModelReloadPoller poller(&swappable,
                             ReloadOptions{model_path, reload_poll_ms});
    poller.Start();
    const Status s =
        ServeLines(swappable, serve_options, *stream_in, *stream_out);
    poller.Stop();
    poller.ExportMetrics(&registry);
    if (!s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
  }
  // Protocol answers went to the stream; keep *out clean so piping
  // `rock serve < queries > answers` yields answers only.
  if (!metrics_json_path.empty()) {
    if (Status s =
            WriteMetricsJson(metrics_json_path, registry.Snapshot(), "serve");
        !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
  }
  return 0;
}

int CmdQuery(const std::vector<std::string>& args, std::string* out,
             bool help_only) {
  std::string model_path;
  std::string from_store;
  std::string assignments_path;
  size_t threads = 1;
  size_t max_batch = 64;
  size_t max_queue = 4096;

  FlagSet flags;
  flags.AddString("model", &model_path, "model bundle (see `rock build`)");
  flags.AddString("from-store", &from_store,
                  "label every row of this store through the server and "
                  "write --assignments");
  flags.AddString("assignments", &assignments_path,
                  "write row,cluster CSV here (with --from-store; same "
                  "format as `rock pipeline --assignments`)");
  flags.AddSize("threads", &threads,
                "labeling worker threads (0 = all cores)");
  flags.AddSize("max-batch", &max_batch,
                "most queries a worker coalesces per wake-up");
  flags.AddSize("max-queue", &max_queue, "admission bound");
  if (help_only) {
    EmitStr(out,
            "rock query — one-shot cluster assignment from a model\n"
            "usage: rock query --model=M item1 item2 …   (one query)\n"
            "       rock query --model=M --from-store=S --assignments=F\n" +
                flags.Help());
    return 0;
  }
  if (Status s = flags.Parse(args); !s.ok()) {
    EmitStr(out, "error: " + s.ToString() + "\n" + flags.Help());
    return 2;
  }
  if (model_path.empty()) {
    EmitStr(out, "error: --model is required\n");
    return 2;
  }

  auto model = ModelHandle::Load(model_path);
  if (!model.ok()) {
    EmitStr(out, "error: " + model.status().ToString() + "\n");
    return 1;
  }

  if (from_store.empty()) {
    // One-shot: the positional tokens are one query.
    if (flags.positional().empty()) {
      EmitStr(out, "error: give item tokens, or --from-store\n");
      return 2;
    }
    std::string line;
    for (const std::string& token : flags.positional()) {
      if (!line.empty()) line += ' ';
      line += token;
    }
    auto tx = model->ParseQuery(line);
    if (!tx.ok()) {
      EmitStr(out, "error: " + tx.status().ToString() + "\n");
      return 1;
    }
    const ClusterIndex cluster = model->labeler().Assign(*tx);
    Emit(out, "%d\n", cluster);
    return 0;
  }

  if (assignments_path.empty()) {
    EmitStr(out, "error: --from-store requires --assignments\n");
    return 2;
  }

  // Stream every store row through the server, preserving row order via
  // the future window — the CSV must be byte-identical to what
  // `rock pipeline --assignments` writes for the same store and model
  // parameters (the serve ≡ pipeline differential in tools/tier1.sh).
  auto reader = TransactionStoreReader::Open(from_store);
  if (!reader.ok()) {
    EmitStr(out, "error: " + reader.status().ToString() + "\n");
    return 1;
  }

  ServeOptions serve_options;
  serve_options.num_threads = threads;
  serve_options.max_batch = max_batch;
  serve_options.max_queue = max_queue;
  LabelServer server(&*model, serve_options);
  if (Status s = server.Start(); !s.ok()) {
    EmitStr(out, "error: " + s.ToString() + "\n");
    return 1;
  }

  std::vector<ClusterIndex> assignments;
  assignments.reserve(static_cast<size_t>(reader->count()));
  std::deque<std::future<ClusterIndex>> window;
  const size_t high_water = std::max<size_t>(1, serve_options.max_queue);
  while (reader->Next()) {
    while (true) {
      auto future = server.Submit(reader->transaction());
      if (future.ok()) {
        window.push_back(std::move(*future));
        break;
      }
      if (window.empty()) {
        EmitStr(out, "error: " + future.status().ToString() + "\n");
        return 1;
      }
      assignments.push_back(window.front().get());
      window.pop_front();
    }
    while (window.size() > high_water) {
      assignments.push_back(window.front().get());
      window.pop_front();
    }
  }
  if (!reader->status().ok()) {
    EmitStr(out, "error: " + reader->status().ToString() + "\n");
    return 1;
  }
  while (!window.empty()) {
    assignments.push_back(window.front().get());
    window.pop_front();
  }
  server.Stop();

  if (Status s = WriteAssignments(assignments_path, assignments); !s.ok()) {
    EmitStr(out, "error: " + s.ToString() + "\n");
    return 1;
  }
  const LabelServer::Stats stats = server.stats();
  Emit(out,
       "query: %zu rows served in %zu batches (fill %.1f), "
       "%llu outliers, %.0f qps\n",
       assignments.size(), static_cast<size_t>(stats.batches),
       stats.batch_fill, static_cast<unsigned long long>(stats.outliers),
       stats.qps);
  Emit(out, "assignments written to %s\n", assignments_path.c_str());
  return 0;
}

int CmdAppend(const std::vector<std::string>& args, std::string* out,
              bool help_only) {
  std::string store;
  std::string model_path;
  std::string input_path;
  std::string from_store;
  std::string assignments_path;
  std::string metrics_json_path;
  std::string checkpoint_path;
  bool resume = false;
  bool rebuild_on_drift = false;
  size_t drift_window = 256;
  size_t drift_min = 64;
  double drift_share = 0.25;
  double drift_neighbor = 0.5;
  PipelineFlagValues v;

  FlagSet flags;
  flags.AddString("store", &store,
                  "transaction store to append to (crash-safe; see "
                  "docs/DESIGN.md §11)");
  flags.AddString("model", &model_path,
                  "model bundle that labels the appended rows (and is "
                  "rebuilt on drift with --rebuild-on-drift)");
  flags.AddString("input", &input_path,
                  "append one query line per row from this file (tokens as "
                  "in `rock serve`: item names with a dictionary bundle, "
                  "numeric ids otherwise; blank and '#' lines skipped)");
  flags.AddString("from-store", &from_store,
                  "append every row of this store file (item ids must come "
                  "from the same dictionary as --store)");
  flags.AddString("assignments", &assignments_path,
                  "write row,cluster CSV for the appended rows here (rows "
                  "are absolute store indices, so the file is the tail of "
                  "a full `rock query --from-store` relabel)");
  flags.AddString("checkpoint", &checkpoint_path,
                  "crash-safe rebuilds: persist the rebuild's sample+cluster "
                  "phase here (with --rebuild-on-drift)");
  flags.AddBool("resume", &resume,
                "resume a crashed rebuild from --checkpoint");
  flags.AddBool("rebuild-on-drift", &rebuild_on_drift,
                "re-cluster the grown store and atomically swap the model "
                "bundle when drift trips");
  flags.AddSize("drift-window", &drift_window,
                "sliding window of labeled rows the drift detector compares "
                "against the model profile");
  flags.AddSize("drift-min", &drift_min,
                "no drift verdict before this many rows are in the window");
  flags.AddDouble("drift-share", &drift_share,
                  "trip when the cluster-share TV distance exceeds this");
  flags.AddDouble("drift-neighbor", &drift_neighbor,
                  "trip when the window's mean winning neighbor count drops "
                  "below this fraction of the profile's (0 = off)");
  flags.AddString("metrics-json", &metrics_json_path,
                  "write the stream.*/drift.* metrics report (JSON) here");
  RegisterPipelineFlags(flags, &v);
  if (help_only) {
    EmitStr(out,
            "rock append — append rows to a store and label them online\n"
            "usage: rock append --store=S --model=M item1 item2 …\n"
            "       rock append --store=S --model=M --input=queries.txt\n"
            "       rock append --store=S --model=M --from-store=NEW\n" +
                flags.Help());
    return 0;
  }
  if (Status s = flags.Parse(args); !s.ok()) {
    EmitStr(out, "error: " + s.ToString() + "\n" + flags.Help());
    return 2;
  }
  if (store.empty() || model_path.empty()) {
    EmitStr(out, "error: --store and --model are required\n");
    return 2;
  }
  if (resume && checkpoint_path.empty()) {
    EmitStr(out, "error: --resume requires --checkpoint\n");
    return 2;
  }
  if (!v.failpoints.empty()) {
    if (Status s = fail::Configure(v.failpoints); !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 2;
    }
  }

  diag::MetricsRegistry registry;
  StreamOptions stream_options;
  if (int code = ApplyPipelineFlags(v, &stream_options.build.pipeline, out);
      code != 0) {
    return code;
  }
  stream_options.build.pipeline.checkpoint_path = checkpoint_path;
  stream_options.build.pipeline.resume = resume;
  stream_options.drift.window = drift_window;
  stream_options.drift.min_observations = drift_min;
  stream_options.drift.share_tolerance = drift_share;
  stream_options.drift.neighbor_ratio = drift_neighbor;
  stream_options.auto_rebuild = rebuild_on_drift;
  // The CLI process exits after the append, so the drift rebuild runs
  // inline — the command returns only once the swap is durable.
  stream_options.background_rebuild = false;
  stream_options.metrics = &registry;

  auto session = StreamingSession::Open(store, model_path, stream_options);
  if (!session.ok()) {
    EmitStr(out, "error: " + session.status().ToString() + "\n");
    return 1;
  }

  // Collect the rows to append. All three sources funnel into the same
  // transaction vector; ParseQuery keeps name-mode inputs aligned with the
  // model's dictionary (unknown items count toward |T| but never match).
  std::vector<Transaction> rows;
  std::vector<LabelId> labels;
  const std::shared_ptr<const ModelHandle> parse_model =
      (*session)->Acquire();
  if (!flags.positional().empty()) {
    std::string line;
    for (const std::string& token : flags.positional()) {
      if (!line.empty()) line += ' ';
      line += token;
    }
    auto tx = parse_model->ParseQuery(line);
    if (!tx.ok()) {
      EmitStr(out, "error: " + tx.status().ToString() + "\n");
      return 1;
    }
    rows.push_back(std::move(*tx));
    labels.push_back(kNoLabel);
  }
  if (!input_path.empty()) {
    std::ifstream in(input_path);
    if (!in) {
      EmitStr(out, "error: cannot open '" + input_path + "'\n");
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed.front() == '#') continue;
      auto tx = parse_model->ParseQuery(trimmed);
      if (!tx.ok()) {
        EmitStr(out, "error: " + tx.status().ToString() + "\n");
        return 1;
      }
      rows.push_back(std::move(*tx));
      labels.push_back(kNoLabel);
    }
  }
  if (!from_store.empty()) {
    auto reader = TransactionStoreReader::Open(from_store);
    if (!reader.ok()) {
      EmitStr(out, "error: " + reader.status().ToString() + "\n");
      return 1;
    }
    while (reader->Next()) {
      rows.push_back(reader->transaction());
      labels.push_back(reader->label());
    }
    if (!reader->status().ok()) {
      EmitStr(out, "error: " + reader->status().ToString() + "\n");
      return 1;
    }
  }
  if (rows.empty()) {
    EmitStr(out,
            "error: nothing to append (give item tokens, --input or "
            "--from-store)\n");
    return 2;
  }

  auto appended = (*session)->Append(rows, &labels);
  if (!appended.ok()) {
    EmitStr(out, "error: " + appended.status().ToString() + "\n");
    return 1;
  }

  size_t outliers = 0;
  for (const auto& oc : appended->outcomes) {
    if (oc.cluster == kUnassigned) ++outliers;
  }
  Emit(out,
       "append: +%zu rows (store %llu -> %llu, generation %llu), "
       "%zu outliers\n",
       rows.size(),
       static_cast<unsigned long long>(appended->store.base_count),
       static_cast<unsigned long long>(appended->store.new_count),
       static_cast<unsigned long long>(appended->store.generation), outliers);
  const DriftReport& drift = appended->drift;
  Emit(out, "drift: tv=%.3f neighbors=%.1f/%.1f window=%zu%s\n",
       drift.tv_distance, drift.window_mean_neighbors,
       drift.profile_mean_neighbors, drift.window_fill,
       drift.tripped ? "  ** TRIPPED **" : "");
  if (appended->rebuild_started) {
    if (Status s = (*session)->WaitForRebuild(); !s.ok()) {
      EmitStr(out, "error: rebuild failed: " + s.ToString() + "\n");
      return 1;
    }
    Emit(out, "rebuild: model re-clustered and swapped (%llu rebuilds)\n",
         static_cast<unsigned long long>((*session)->rebuilds()));
  }

  if (!assignments_path.empty()) {
    std::ofstream csv(assignments_path);
    if (!csv) {
      EmitStr(out, "error: cannot create '" + assignments_path + "'\n");
      return 1;
    }
    csv << "row,cluster\n";
    for (size_t i = 0; i < appended->outcomes.size(); ++i) {
      csv << (appended->store.base_count + i) << ','
          << appended->outcomes[i].cluster << '\n';
    }
    if (!csv) {
      EmitStr(out, "error: write failure on '" + assignments_path + "'\n");
      return 1;
    }
    Emit(out, "assignments written to %s\n", assignments_path.c_str());
  }
  if (!metrics_json_path.empty()) {
    if (Status s =
            WriteMetricsJson(metrics_json_path, registry.Snapshot(), "append");
        !s.ok()) {
      EmitStr(out, "error: " + s.ToString() + "\n");
      return 1;
    }
    Emit(out, "metrics written to %s\n", metrics_json_path.c_str());
  }
  return 0;
}

int CmdSweep(const std::vector<std::string>& args, std::string* out,
             bool help_only) {
  std::string input;
  std::string format = "csv";
  std::string similarity = "jaccard";
  double lo = 0.3;
  double hi = 0.9;
  size_t steps = 7;
  size_t k = 2;
  int64_t label_column = 0;
  bool label_first = false;

  FlagSet flags;
  flags.AddString("input", &input, "input file");
  flags.AddString("format", &format, "csv | arff | basket | store");
  flags.AddString("similarity", &similarity,
                  "jaccard | pairwise-missing (csv inputs)");
  flags.AddDouble("lo", &lo, "lowest theta");
  flags.AddDouble("hi", &hi, "highest theta");
  flags.AddSize("steps", &steps, "number of grid points");
  flags.AddSize("k", &k, "desired number of clusters per run");
  flags.AddInt("label-column", &label_column,
               "ground-truth column in csv (-1 = none)");
  flags.AddBool("label-first", &label_first,
                "basket format: first token of each line is the label");
  if (help_only) {
    EmitStr(out, "rock sweep — run ROCK across a theta grid\n" +
                     flags.Help());
    return 0;
  }
  if (Status s = flags.Parse(args); !s.ok()) {
    EmitStr(out, "error: " + s.ToString() + "\n" + flags.Help());
    return 2;
  }
  if (input.empty()) {
    EmitStr(out, "error: --input is required\n");
    return 2;
  }

  auto loaded = LoadInput(input, format, label_column, label_first);
  if (!loaded.ok()) {
    EmitStr(out, "error: " + loaded.status().ToString() + "\n");
    return 1;
  }
  std::unique_ptr<PointSimilarity> sim;
  if (loaded->is_categorical) {
    if (similarity == "pairwise-missing") {
      sim = std::make_unique<PairwiseMissingJaccard>(loaded->categorical);
    } else {
      sim = std::make_unique<CategoricalJaccard>(loaded->categorical);
    }
  } else {
    sim = std::make_unique<TransactionJaccard>(loaded->transactions);
  }

  RockOptions opt;
  opt.num_clusters = k;
  auto sweep = SweepTheta(*sim, opt, ThetaGrid(lo, hi, steps));
  if (!sweep.ok()) {
    EmitStr(out, "error: " + sweep.status().ToString() + "\n");
    return 1;
  }
  Emit(out, "%-8s %10s %10s %10s %10s %14s %8s\n", "theta", "avg.deg",
       "clusters", "outliers", "largest", "criterion", "sec");
  for (const SweepPoint& p : *sweep) {
    Emit(out, "%-8.3f %10.1f %10zu %10zu %10zu %14.2f %8.2f\n", p.theta,
         p.average_degree, p.num_clusters, p.num_outliers,
         p.largest_cluster, p.criterion, p.seconds);
  }
  return 0;
}

const char kUsage[] =
    "rock — ROCK clustering for categorical attributes (ICDE 1999)\n"
    "\n"
    "usage: rock <command> [flags]\n"
    "\n"
    "commands:\n"
    "  gen       generate a synthetic data set (basket/votes/mushroom/funds)\n"
    "  cluster   cluster a csv / basket / store file (rock or baselines)\n"
    "  pipeline  disk pipeline: sample -> cluster -> label a store file\n"
    "  build     sample + cluster a store into a servable model bundle\n"
    "  serve     answer cluster queries over stdin/stdout from a model\n"
    "  query     one-shot cluster assignment (or label a whole store)\n"
    "  append    append rows to a store, label them online, track drift\n"
    "  sweep     run ROCK across a theta grid and tabulate the outcomes\n"
    "  help      show this message\n"
    "\n"
    "run `rock <command> --help` for the command's flags\n";

}  // namespace

int RunCli(const std::vector<std::string>& args, std::string* out,
           std::istream* stream_in, std::ostream* stream_out) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    EmitStr(out, kUsage);
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  std::vector<std::string> rest(args.begin() + 1, args.end());
  const bool wants_help =
      !rest.empty() && (rest[0] == "--help" || rest[0] == "help");

  if (command == "gen") {
    return CmdGen(rest, out, wants_help);
  }
  if (command == "cluster") {
    return CmdCluster(rest, out, wants_help);
  }
  if (command == "pipeline") {
    return CmdPipeline(rest, out, wants_help);
  }
  if (command == "build") {
    return CmdBuild(rest, out, wants_help);
  }
  if (command == "serve") {
    return CmdServe(rest, out, wants_help, stream_in, stream_out);
  }
  if (command == "query") {
    return CmdQuery(rest, out, wants_help);
  }
  if (command == "append") {
    return CmdAppend(rest, out, wants_help);
  }
  if (command == "sweep") {
    return CmdSweep(rest, out, wants_help);
  }
  EmitStr(out, "error: unknown command '" + command + "'\n\n" + kUsage);
  return 2;
}

int RunCli(const std::vector<std::string>& args, std::string* out) {
  return RunCli(args, out, nullptr, nullptr);
}

}  // namespace rock
