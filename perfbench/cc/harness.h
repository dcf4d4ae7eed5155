// perfbench/cc/harness.h
//
// Shared pieces of the repository benchmark: command-line arguments, the
// seeded Table 5 input, order statistics, the per-run report, and the span
// tracer the traced run records from outside the library.

#ifndef ROCK_PERFBENCH_HARNESS_H_
#define ROCK_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "data/dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady_clock points.
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One workload run, as run.py invokes it.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every row and sample count (1 = the paper's Table 5 size;
  /// the smoke mode runs at a small fraction).
  double scale = 1.0;
  /// Private scratch directory for store and model files.
  std::string dir;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_out;
};

/// Host core count; the thread budget of a workload never exceeds it.
size_t HostCores();

/// The seeded Table 5 basket database (synth/basket_generator.h), with
/// every cluster and the outlier count multiplied by `scale`.
struct BasketInput {
  rock::TransactionDataset data;
  rock::LabelId outlier_label = rock::kNoLabel;
};
BasketInput MakeBasketInput(uint64_t seed, double scale);

/// max(1, round(n * scale)).
size_t Scaled(size_t n, double scale);

/// Options every workload shares: θ = 0.5, k = 10, and the `rock` CLI's
/// outlier weeding and labeling-set defaults. Only the thread budget
/// RockOptions::num_threads varies between workloads.
rock::PipelineOptions BaseOptions(uint64_t seed, size_t sample_size,
                                  size_t thread_budget);

/// Table 6 misclassified rows over `assignment` against `truth`.
uint64_t Misclassified(const std::vector<rock::ClusterIndex>& assignment,
                       const std::vector<rock::LabelId>& truth,
                       size_t num_clusters, const BasketInput& input);

double Median(std::vector<double> v);

/// The highest of the 50th, 90th, 99th and 99.9th percentiles that has at
/// least ten samples beyond it (nearest-rank). `pct` is 0 when there are
/// fewer than twenty samples.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
};
Tail HighestTail(std::vector<double> v);

/// Value at percentile `pct` (nearest-rank); 0 for an empty sample.
double Percentile(std::vector<double> v, double pct);

/// Timed samples of one kind. FastestSecond() is the statistic an
/// end-to-end timing reports: the median of each one-second window of the
/// run (by each sample's start), minimum over the windows. An operation
/// longer than a second is its own window, so this is the fastest
/// operation. The reference host is a virtual machine whose speed drifts by
/// up to 1.5x over minutes as other tenants come and go, and that noise
/// only ever adds time; the fastest window follows the code's own cost
/// (Chen and Revels, "Robust benchmarking in noisy environments", 2016),
/// while a change that slows every call still moves it in full. The timing
/// lines print the median and the tail beside it.
struct Samples {
  std::vector<double> start_s;  ///< seconds since the run's time origin
  std::vector<double> value;

  void Add(double start, double v) {
    start_s.push_back(start);
    value.push_back(v);
  }
  double FastestSecond() const;
};

/// Peak resident set size of this process so far, in MiB (getrusage).
double PeakRssMib();

/// Collects one run's metrics, operation counts and answer checks, and
/// prints them. Human-readable lines start with "# "; the last line is the
/// JSON object run.py completes and validates.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Prints a timing summary line: median, highest tail and sample count,
  /// or every sample when there are too few for a tail.
  void Timing(const std::string& what, const std::vector<double>& samples,
              const std::string& unit);
  /// Counts `n` attempted operations, `failed` of which failed.
  void Operations(uint64_t n, uint64_t failed = 0);
  /// Records an answer check as one operation; a failed check fails the
  /// run and counts as a failed operation.
  void Check(bool ok, const std::string& what);
  /// Thread count used by one part of the workload (stamped in the report).
  void Threads(const std::string& part, size_t n);
  void Note(const std::string& line) const;

  /// Prints the result line; returns the process exit code.
  int Emit() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::map<std::string, size_t> threads_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Spans recorded around calls into the library, kept in memory and
/// written at the end as Chrome trace-event JSON (Perfetto opens it).
/// Single-threaded: only the workload's main thread records spans.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     ///< index of the enclosing span, -1 at top level
    int run = 0;         ///< workload-run id the span belongs to
    bool derived = false;  ///< split from a library timer, not wrapped
  };

  /// Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name);
  void End(int span);
  /// Adds a closed child of `parent` whose duration comes from a timer the
  /// library reports, laid out after the parent's previous derived child.
  void AddDerived(int parent, const std::string& name, double seconds);
  void SetRun(int run) { run_ = run; }

  const std::vector<Span>& spans() const { return spans_; }
  double Duration(int span) const {
    return spans_[span].end - spans_[span].start;
  }
  /// Durations of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Duration minus the part covered by direct children.
  double SelfSeconds(int span) const;

  /// Prints median self and total time per span name.
  void PrintSelfTimes(const Report& report) const;
  /// Writes the spans as Chrome trace-event JSON.
  bool WriteChromeJson(const std::string& path) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name)
        : tracer_(tracer), span_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int span() const { return span_; }

   private:
    Tracer* tracer_;
    int span_;
  };

 private:
  double Now() const { return Seconds(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_ = 0;
};

/// Writes the trace to args.trace_out, when set, as a checked step.
void WriteTrace(const Args& args, const Tracer& tracer, Report* report);

/// Throws std::runtime_error naming `what` when a library call failed. A
/// failed call ends the run without a result line.
void Must(const rock::Status& status, const std::string& what);
template <typename T>
T Must(rock::Result<T> result, const std::string& what) {
  Must(result.status(), what);
  return std::move(*result);
}

/// The workloads. Each adds its metrics and checks to `report`.
void RunPipelineT5(const Args& args, Report* report);
void RunBuildS10k(const Args& args, Report* report);
void RunServeAppend(const Args& args, Report* report);

}  // namespace perfbench

#endif  // ROCK_PERFBENCH_HARNESS_H_
