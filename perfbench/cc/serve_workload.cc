// serve_append — one process serves single-row queries while it appends.
//
// A StreamingSession opens over a store of the first 100,000 generated rows
// and a model built from it (sample 5000, auto-rebuild off). A LabelServer
// answers from session->swappable(). For --seconds:
//   * a generator thread sends single-row queries open-loop, in bursts on a
//     fixed schedule, each timed from its burst's due time to its answer (a
//     collector thread waits on the futures in submission order);
//   * the main thread appends the held-out rows in kBatchRows batches every
//     kBatchInterval, each timed from its due time.
// Every append rewrites and CRC-checks the whole store copy-on-write, so
// this is the one workload where the serve and append paths carry the run.
//
// The traced run adds, after the open loop, direct calls into each layer
// with a span around each: ModelHandle::Load, AssignDetailed on the query
// set, and AppendToStore of the same batches on a fresh copy of the store.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/labeling.h"
#include "core/pipeline.h"
#include "data/disk_store.h"
#include "harness.h"
#include "serve/model_handle.h"
#include "serve/server.h"
#include "serve/stream.h"

namespace perfbench {
namespace {

using rock::ClusterIndex;
using rock::Transaction;
using rock::TransactionDataset;

// Queries arrive open-loop in bursts: one client submits kBurst single-row
// queries every kBurstInterval. A burst keeps the worker busy for about a
// millisecond, so the per-query latency is dominated by the serve path and
// the labeler, not by the few tens of microseconds a thread wake-up costs
// on a virtual machine, which vary from process to process.
constexpr size_t kBurst = 256;
constexpr std::chrono::milliseconds kBurstInterval{20};
constexpr size_t kBatchRows = 100;    // rows per append (before scale)
constexpr std::chrono::milliseconds kBatchInterval{200};
constexpr size_t kQuerySet = 4096;    // distinct query rows (before scale)

/// One live serve-beside-append stack.
struct Stack {
  std::unique_ptr<rock::StreamingSession> session;
  std::unique_ptr<rock::LabelServer> server;
};

/// Waits until `due`: sleeps to just short of it, then spins, so the
/// generator's own lateness stays small next to the latencies it measures.
void WaitUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(200));
  while (Clock::now() < due) {
  }
}

bool SameOutcome(const rock::TransactionLabeler::AssignOutcome& a,
                 const rock::TransactionLabeler::AssignOutcome& b) {
  return a.cluster == b.cluster && a.neighbors == b.neighbors &&
         a.score == b.score;
}

}  // namespace

void RunServeAppend(const Args& args, Report* report) {
  const BasketInput input = MakeBasketInput(args.seed, args.scale);
  const TransactionDataset& data = input.data;
  const size_t base = std::min(data.size() - 1, Scaled(100000, args.scale));
  TransactionDataset base_data;  // rows [0, base), label ids unchanged
  for (size_t i = 0; i < base; ++i) {
    base_data.AddTransaction(data.transaction(i));
    base_data.labels().Append(data.labels().Name(data.labels().label(i)));
  }
  const size_t batch_rows = Scaled(kBatchRows, args.scale);
  std::vector<std::vector<Transaction>> batches;
  std::vector<std::vector<rock::LabelId>> batch_labels;
  for (size_t r = base; r + batch_rows <= data.size(); r += batch_rows) {
    batches.emplace_back();
    batch_labels.emplace_back();
    for (size_t i = r; i < r + batch_rows; ++i) {
      batches.back().push_back(data.transaction(i));
      batch_labels.back().push_back(data.labels().label(i));
    }
  }
  std::vector<Transaction> queries;
  {
    rock::Rng rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
    for (size_t i = 0; i < Scaled(kQuerySet, args.scale); ++i) {
      queries.push_back(data.transaction(rng.UniformUint64(base)));
    }
  }

  const std::string store = args.dir + "/store.bin";
  const std::string model = args.dir + "/model.bin";
  rock::StreamOptions stream;
  stream.build.pipeline = BaseOptions(args.seed, Scaled(5000, args.scale),
                                      std::min<size_t>(4, HostCores()));
  stream.build.model_path = model;
  stream.auto_rebuild = false;
  rock::ServeOptions serve;
  serve.num_threads = 1;
  report->Threads("host_cores", HostCores());
  report->Threads("rock.num_threads", stream.build.pipeline.rock.num_threads);
  report->Threads("serve.workers", serve.num_threads);
  report->Threads("query_generator", 1);
  report->Threads("answer_collector", 1);
  report->Threads("appender", 1);

  // Set-up, five times; the last stack stays up for the run.
  std::vector<double> setups;
  Stack stack;
  for (int i = 0; i < 5; ++i) {
    stack.server.reset();  // the server reads the session's model
    stack.session.reset();
    const Clock::time_point t0 = Clock::now();
    Must(rock::WriteDatasetToStore(base_data, store), "WriteDatasetToStore");
    Must(rock::BuildModel(store, stream.build), "BuildModel");
    stack.session =
        Must(rock::StreamingSession::Open(store, model, stream), "Open");
    stack.server = std::make_unique<rock::LabelServer>(
        stack.session->swappable(), serve);
    Must(stack.server->Start(), "LabelServer::Start");
    setups.push_back(Seconds(t0, Clock::now()));
  }
  rock::StreamingSession& session = *stack.session;
  rock::LabelServer& server = *stack.server;
  const uint64_t swaps_at_start = session.swappable()->swaps();

  // ---- the open loop ------------------------------------------------------
  struct Sent {
    Clock::time_point due;
    std::future<ClusterIndex> answer;
    size_t query = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> inflight;  // guarded by mu
  bool generating = true;     // guarded by mu
  std::vector<double> gen_late_us;
  uint64_t submitted = 0;
  uint64_t refused = 0;
  std::vector<std::pair<Clock::time_point, std::vector<double>>> burst_us;
  std::vector<std::pair<size_t, ClusterIndex>> answers;
  uint64_t broken = 0;

  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  Samples append_ms;  // started at the due time
  std::vector<rock::StreamAppendResult> appended;
  {
    std::jthread collector([&] {
      while (true) {
        Sent sent;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !inflight.empty() || !generating; });
          if (inflight.empty()) return;
          sent = std::move(inflight.front());
          inflight.pop_front();
        }
        try {
          const ClusterIndex cluster = sent.answer.get();
          const double us = Seconds(sent.due, Clock::now()) * 1e6;
          if (burst_us.empty() || sent.due != burst_us.back().first) {
            burst_us.push_back({sent.due, {}});
          }
          burst_us.back().second.push_back(us);
          answers.push_back({sent.query, cluster});
        } catch (const std::exception&) {
          ++broken;
        }
      }
    });
    std::jthread generator([&] {
      size_t q = 0;
      for (int64_t burst = 0;; ++burst) {
        const Clock::time_point due = start + kBurstInterval * burst;
        if (due >= end) break;
        WaitUntil(due);
        gen_late_us.push_back(Seconds(due, Clock::now()) * 1e6);
        for (size_t i = 0; i < kBurst; ++i, q = (q + 1) % queries.size()) {
          ++submitted;
          auto answer = server.Submit(queries[q]);
          if (!answer.ok()) {
            ++refused;
            continue;
          }
          {
            std::lock_guard<std::mutex> lock(mu);
            inflight.push_back(Sent{due, std::move(*answer), q});
          }
          cv.notify_one();
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        generating = false;
      }
      cv.notify_one();
    });
    for (size_t b = 0; b < batches.size(); ++b) {
      const Clock::time_point due =
          start + kBatchInterval * static_cast<int64_t>(b);
      if (due >= end) break;
      WaitUntil(due);
      auto result = session.Append(batches[b], &batch_labels[b]);
      append_ms.Add(Seconds(start, due), Seconds(due, Clock::now()) * 1e3);
      Must(result.status(), "StreamingSession::Append");
      report->Operations(1);
      appended.push_back(std::move(*result));
    }
  }  // joins the generator, then the collector
  server.Stop();
  const rock::LabelServer::Stats stats = server.stats();
  report->Operations(submitted, submitted - answers.size());

  // ---- answer checks, outside the timed regions ---------------------------
  const std::shared_ptr<const rock::ModelHandle> snapshot = session.Acquire();
  const rock::TransactionLabeler& labeler = snapshot->labeler();
  std::vector<ClusterIndex> expected;
  for (const Transaction& q : queries) expected.push_back(labeler.Assign(q));
  size_t served_ok = 0;
  for (const auto& [q, cluster] : answers) served_ok += cluster == expected[q];
  report->Check(!answers.empty() && served_ok == answers.size(),
                "served answers == direct Assign (" +
                    std::to_string(served_ok) + "/" +
                    std::to_string(answers.size()) + ")");
  size_t outcomes_ok = 0;
  size_t outcomes = 0;
  uint64_t drift_trips = 0;
  {
    rock::TransactionLabeler::Scratch scratch;
    for (size_t b = 0; b < appended.size(); ++b) {
      const rock::StreamAppendResult& r = appended[b];
      drift_trips += r.drift_tripped ? 1 : 0;
      for (size_t j = 0; j < batches[b].size(); ++j, ++outcomes) {
        outcomes_ok +=
            j < r.outcomes.size() &&
            SameOutcome(r.outcomes[j],
                        labeler.AssignDetailed(batches[b][j], &scratch,
                                               nullptr));
      }
    }
  }
  report->Check(!appended.empty() && outcomes_ok == outcomes,
                "append outcomes == AssignDetailed (" +
                    std::to_string(outcomes_ok) + "/" +
                    std::to_string(outcomes) + ")");
  const uint64_t rows_appended = appended.size() * batch_rows;
  const uint64_t on_disk =
      Must(rock::TransactionStoreReader::Open(store), "reopen store").count();
  report->Check(on_disk == base + rows_appended &&
                    session.store_rows() == on_disk,
                "store rows " + std::to_string(on_disk) + " == " +
                    std::to_string(base) + " + " +
                    std::to_string(rows_appended) + " appended");
  report->Check(drift_trips == 0 &&
                    session.swappable()->swaps() == swaps_at_start,
                "in-distribution appends trip no drift and swap no model");
  report->Check(broken == 0, "no answer future broke");

  std::vector<double> query_us;
  Samples burst_p50_us;  // each burst's median query, at its due time
  for (const auto& [due, burst] : burst_us) {
    query_us.insert(query_us.end(), burst.begin(), burst.end());
    burst_p50_us.Add(Seconds(start, due), Median(burst));
  }
  const double fail_frac =
      submitted == 0 ? 1.0
                     : static_cast<double>(submitted - answers.size()) /
                           static_cast<double>(submitted);
  report->Timing("query_us (due -> answer)", query_us, "us");
  report->Timing("burst median query_us", burst_p50_us.value, "us");
  report->Timing("append_ms (due -> committed)", append_ms.value, "ms");
  report->Timing("generator lateness", gen_late_us, "us");
  report->Timing("setup_s", setups, "s");
  report->Note("queries " + std::to_string(submitted) + " in bursts of " +
               std::to_string(kBurst) + " every " +
               std::to_string(kBurstInterval.count()) + " ms, refused " +
               std::to_string(refused) + ", appends " +
               std::to_string(appended.size()) + " x " +
               std::to_string(batch_rows) + " rows");

  if (!args.trace) {
    report->Metric("setup_s", Median(setups), "s");
    report->Metric("op_ms", burst_p50_us.FastestSecond() / 1e3, "ms");
    report->Metric("store_write_ms", append_ms.FastestSecond(), "ms");
    report->Metric("peak_rss_mib", PeakRssMib(), "MiB");
    report->Metric("ok_frac", 1.0 - fail_frac, "fraction");
    return;
  }

  // ---- traced run: each layer called directly -----------------------------
  // Service time: the query set's AssignDetailed calls without spans, then
  // with one span each; the ratio of the two loops is the tracing overhead.
  rock::TransactionLabeler::Scratch scratch;
  const Clock::time_point u0 = Clock::now();
  for (const Transaction& q : queries) {
    labeler.AssignDetailed(q, &scratch, nullptr);
  }
  const double untraced_loop = Seconds(u0, Clock::now());
  Tracer tracer;
  const int root = tracer.Begin("workload");
  for (int i = 0; i < 3; ++i) {
    Tracer::Scope span(&tracer, "serve.model_load");
    Must(rock::ModelHandle::Load(model), "ModelHandle::Load");
  }
  const Clock::time_point t0 = Clock::now();
  for (const Transaction& q : queries) {
    Tracer::Scope span(&tracer, "core.assign");
    labeler.AssignDetailed(q, &scratch, nullptr);
  }
  const double traced_loop = Seconds(t0, Clock::now());
  const std::string copy = args.dir + "/store_copy.bin";
  {
    Tracer::Scope span(&tracer, "data.store_write");
    Must(rock::WriteDatasetToStore(base_data, copy), "WriteDatasetToStore");
  }
  std::vector<double> rewritten;
  for (size_t b = 0; b < appended.size(); ++b) {
    {
      Tracer::Scope span(&tracer, "data.append");
      Must(rock::AppendToStore(copy, batches[b], &batch_labels[b]),
           "AppendToStore");
    }
    rewritten.push_back(
        static_cast<double>(std::filesystem::file_size(copy)));
    Tracer::Scope span(&tracer, "stream.append_label");
    for (const Transaction& tx : batches[b]) {
      labeler.AssignDetailed(tx, &scratch, nullptr);
    }
  }
  tracer.End(root);
  double top_level = 0.0;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    if (tracer.spans()[i].parent == root) {
      top_level += tracer.Duration(static_cast<int>(i));
    }
  }

  const double assign_us = Median(tracer.Durations("core.assign")) * 1e6;
  const double query_p50_us = Median(query_us);
  report->Metric("query_p50_us", query_p50_us, "us");
  report->Metric("query_p99_us", Percentile(query_us, 99.0), "us");
  report->Metric("query_fail_frac", fail_frac, "fraction");
  report->Metric("append_p50_ms", Median(append_ms.value), "ms");
  report->Metric("append_p90_ms", Percentile(append_ms.value, 90.0), "ms");
  report->Metric("data.append_ms", Median(tracer.Durations("data.append")) * 1e3,
                 "ms");
  report->Metric("data.append_bytes_rewritten", Median(rewritten), "bytes");
  report->Metric("core.assign_us", assign_us, "us");
  report->Metric("serve.model_load_s",
                 Median(tracer.Durations("serve.model_load")), "s");
  report->Metric("serve.overhead_us", query_p50_us - assign_us, "us");
  report->Metric("serve.batch_fill", stats.batch_fill, "count");
  report->Metric("serve.peak_queue_depth",
                 static_cast<double>(stats.peak_queue_depth), "count");
  report->Metric("serve.rejected", static_cast<double>(stats.rejected),
                 "count");
  report->Metric("stream.append_label_ms",
                 Median(tracer.Durations("stream.append_label")) * 1e3, "ms");
  report->Metric("stream.drift_trips", static_cast<double>(drift_trips),
                 "count");
  report->Metric("bench.gen_late_p99_us", Percentile(gen_late_us, 99.0), "us");
  report->Metric("bench.residual_frac", 1.0 - top_level / tracer.Duration(root),
                 "fraction");
  report->Metric("bench.trace_overhead_frac", traced_loop / untraced_loop - 1.0,
                 "fraction");
  tracer.PrintSelfTimes(*report);
  WriteTrace(args, tracer, report);
}

}  // namespace perfbench
