#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "eval/contingency.h"
#include "eval/metrics.h"
#include "synth/basket_generator.h"

namespace perfbench {

size_t HostCores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void Must(const rock::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

size_t Scaled(size_t n, double scale) {
  const double v = std::round(static_cast<double>(n) * scale);
  return v < 1.0 ? 1 : static_cast<size_t>(v);
}

BasketInput MakeBasketInput(uint64_t seed, double scale) {
  rock::BasketGeneratorOptions gen;
  gen.seed = seed;
  for (size_t& s : gen.cluster_sizes) s = Scaled(s, scale);
  gen.num_outliers = Scaled(gen.num_outliers, scale);
  auto data = rock::GenerateBasketData(gen);
  if (!data.ok()) {
    throw std::runtime_error("basket generator: " + data.status().ToString());
  }
  BasketInput input;
  input.data = std::move(*data);
  const rock::LabelSet& labels = input.data.labels();
  for (rock::LabelId l = 0; l < labels.num_classes(); ++l) {
    if (labels.Name(l) == gen.outlier_label) input.outlier_label = l;
  }
  return input;
}

rock::PipelineOptions BaseOptions(uint64_t seed, size_t sample_size,
                                  size_t thread_budget) {
  rock::PipelineOptions opt;
  opt.rock.theta = 0.5;
  opt.rock.num_clusters = 10;
  opt.rock.outlier_stop_multiple = 3.0;
  opt.rock.min_cluster_support = 5;
  opt.rock.num_threads = thread_budget;
  opt.sample_size = sample_size;
  opt.labeling.fraction = 0.25;
  opt.seed = seed;
  return opt;
}

uint64_t Misclassified(const std::vector<rock::ClusterIndex>& assignment,
                       const std::vector<rock::LabelId>& truth,
                       size_t num_clusters, const BasketInput& input) {
  auto table = rock::ContingencyTable::Build(
      assignment, truth, num_clusters, input.data.labels().num_classes());
  if (!table.ok()) {
    throw std::runtime_error("contingency table: " +
                             table.status().ToString());
  }
  rock::MisclassificationOptions options;
  options.outlier_label = input.outlier_label;
  return rock::MisclassificationCount(*table, options);
}

double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Samples::FastestSecond() const {
  std::map<int64_t, std::vector<double>> windows;
  for (size_t i = 0; i < value.size(); ++i) {
    windows[static_cast<int64_t>(std::floor(start_s[i]))].push_back(value[i]);
  }
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [second, window] : windows) {
    best = std::min(best, Median(window));
  }
  return windows.empty() ? 0.0 : best;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail HighestTail(std::vector<double> v) {
  Tail tail;
  const double n = static_cast<double>(v.size());
  for (double pct : {50.0, 90.0, 99.0, 99.9}) {
    if (n * (1.0 - pct / 100.0) >= 10.0) {
      tail.pct = pct;
      tail.value = Percentile(v, pct);
    }
  }
  return tail;
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
  std::printf("# metric %-32s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Timing(const std::string& what,
                    const std::vector<double>& samples,
                    const std::string& unit) {
  const Tail tail = HighestTail(samples);
  std::printf("# timing %-30s p50 %.6g", what.c_str(), Median(samples));
  if (tail.pct > 50.0) {
    std::printf(", p%g %.6g %s, n=%zu\n", tail.pct, tail.value, unit.c_str(),
                samples.size());
  } else {
    std::printf(" %s, n=%zu (too few samples for a tail percentile):",
                unit.c_str(), samples.size());
    for (double v : samples) std::printf(" %.4g", v);
    std::printf("\n");
  }
}

void Report::Operations(uint64_t n, uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("# check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  ++attempted_;
  if (!ok) {
    correct_ = false;
    ++failed_;
  }
}

void Report::Threads(const std::string& part, size_t n) { threads_[part] = n; }

void Report::Note(const std::string& line) const {
  std::printf("# %s\n", line.c_str());
}

int Report::Emit() const {
  const uint64_t attempted = std::max<uint64_t>(attempted_, 1);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value_unit] = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), value_unit.first,
                value_unit.second.c_str());
  }
  std::printf("}, \"threads\": {");
  size_t i = 0;
  for (const auto& [part, n] : threads_) {
    std::printf("%s\"%s\": %zu", i++ == 0 ? "" : ", ", part.c_str(), n);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct_ && failed_ == 0 ? 0 : 1;
}

int Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.start = Now();
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int span) {
  spans_[span].end = Now();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::AddDerived(int parent, const std::string& name,
                        double seconds) {
  double cursor = spans_[parent].start;
  for (const Span& s : spans_) {
    if (s.parent == parent && s.derived) cursor = s.end;
  }
  Span span;
  span.name = name;
  span.start = cursor;
  span.end = cursor + seconds;
  span.parent = parent;
  span.run = spans_[parent].run;
  span.derived = true;
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(Duration(static_cast<int>(i)));
  }
  return out;
}

double Tracer::SelfSeconds(int span) const {
  double self = Duration(span);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == span) self -= Duration(static_cast<int>(i));
  }
  return self;
}

void Tracer::PrintSelfTimes(const Report& report) const {
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  std::vector<std::string> order;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto [it, fresh] = by_name.try_emplace(spans_[i].name);
    if (fresh) order.push_back(spans_[i].name);
    it->second.first.push_back(Duration(static_cast<int>(i)));
    it->second.second.push_back(SelfSeconds(static_cast<int>(i)));
  }
  report.Note("self time per layer span (median over spans; derived = split "
              "from the library's own stage timers):");
  for (const std::string& name : order) {
    const auto& [total, self] = by_name[name];
    bool derived = false;
    for (const Span& s : spans_) {
      if (s.name == name) derived = s.derived;
    }
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  span %-24s n=%-5zu total %10.6f s  self %10.6f s%s",
                  name.c_str(), total.size(), Median(total), Median(self),
                  derived ? "  (derived)" : "");
    report.Note(line);
  }
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"run\": %d, \"derived\": %s}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.derived ? 2 : 1,
                 s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent, s.run,
                 s.derived ? "true" : "false");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void WriteTrace(const Args& args, const Tracer& tracer, Report* report) {
  if (args.trace_out.empty()) return;
  report->Check(tracer.WriteChromeJson(args.trace_out),
                "trace written to " + args.trace_out);
}

}  // namespace perfbench
