#include "core/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

#include <cerrno>

#include "common/timer.h"
#include "core/checkpoint.h"
#include "core/sampling.h"
#include "diag/metrics.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace rock {

namespace {

/// The identity the checkpoint of this run must carry (core/checkpoint.h).
CheckpointFingerprint MakeFingerprint(uint64_t store_count,
                                      uint64_t effective_sample,
                                      const PipelineOptions& options) {
  CheckpointFingerprint fp;
  fp.store_count = store_count;
  fp.theta = options.rock.theta;
  fp.num_clusters = options.rock.num_clusters;
  fp.min_neighbors = options.rock.min_neighbors;
  fp.outlier_stop_multiple = options.rock.outlier_stop_multiple;
  fp.min_cluster_support = options.rock.min_cluster_support;
  fp.sample_size = effective_sample;
  fp.sample_seed = options.seed;
  fp.labeling_fraction = options.labeling.fraction;
  fp.min_labeling_points = options.labeling.min_labeling_points;
  fp.labeling_seed = options.labeling.seed;
  return fp;
}

/// The sample phase as RunRockPipeline and BuildModel consume it, restored
/// from a checkpoint or freshly drawn and clustered. `cp` holds the phase
/// in checkpoint form; when the run checkpoints, it also holds the shard
/// plan and labeling progress and is already on disk.
struct SamplePhase {
  PipelineCheckpoint cp;
  TransactionDataset sample;  ///< cp.sample as a dataset
  /// The sample clustering (only clustering, merges and stats when
  /// restored).
  RockResult rock;
  double sample_seconds = 0.0;
  double cluster_seconds = 0.0;
  bool resumed = false;
  uint64_t checkpoint_writes = 0;
};

/// A fresh sample phase: one streaming reservoir pass followed by
/// clustering the sample, filling everything in `out` but the checkpoint's
/// fingerprint, clustering and labeling fields. RunRockPipeline and
/// BuildModel both reach it through RunSamplePhase, and must draw and
/// cluster through this exact code path — a served model diverging by even
/// one RNG call would break the serve ≡ pipeline bit-identity the
/// differential tests enforce.
Status SampleAndCluster(const std::string& store_path,
                        const PipelineOptions& options,
                        uint64_t effective_sample, RetryStats* retry_stats,
                        SamplePhase* out) {
  std::vector<Transaction>& picked = out->cp.sample;
  std::vector<uint64_t>& rows = out->cp.sample_rows;
  // Pass 1: streaming reservoir sample of the store. Retried as a unit —
  // the RNG and reservoir reset every attempt, so a retry after a
  // transient mid-stream error draws exactly the sample an undisturbed
  // pass would.
  Timer sample_timer;
  ROCK_RETURN_IF_ERROR(RetryTransient(
      options.retry,
      [&]() -> Status {
        picked.clear();
        rows.clear();
        Rng rng(options.seed);
        auto reader = TransactionStoreReader::Open(store_path);
        ROCK_RETURN_IF_ERROR(reader.status());
        ReservoirSampler<Transaction> sampler(
            static_cast<size_t>(effective_sample), &rng);
        while (reader->Next()) sampler.Offer(reader->transaction());
        ROCK_RETURN_IF_ERROR(reader->status());
        // Keep sample rows in store order so results are stable and
        // reportable.
        std::vector<size_t> order(sampler.sample().size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return sampler.sample_indices()[a] < sampler.sample_indices()[b];
        });
        picked.reserve(order.size());
        rows.reserve(order.size());
        for (size_t idx : order) {
          picked.push_back(sampler.sample()[idx]);
          rows.push_back(sampler.sample_indices()[idx]);
        }
        return Status::OK();
      },
      retry_stats, options.retry_sleeper));
  for (const Transaction& tx : picked) out->sample.AddTransaction(tx);
  out->sample_seconds = sample_timer.ElapsedSeconds();

  // Cluster the sample.
  Timer cluster_timer;
  TransactionJaccard sim(out->sample);
  RockClusterer clusterer(options.rock);
  auto rock_result = clusterer.Cluster(sim);
  ROCK_RETURN_IF_ERROR(rock_result.status());
  out->rock = std::move(*rock_result);
  out->cluster_seconds = cluster_timer.ElapsedSeconds();
  return Status::OK();
}

/// The resume spine both halves share: validate the options, count the
/// store, clamp the sample, then restore the sample phase from a matching
/// checkpoint or sample and cluster afresh, and persist it. Anything wrong
/// with the checkpoint — missing, torn, bit-rotted, or written by a
/// different run — falls back to a clean fresh start; only an injected
/// crash (simulated process death in the fault tests) propagates.
///
/// `plan_shards` pins a labeling shard plan into the checkpoint so resumed
/// runs replan the exact same boundaries whatever --label-threads they are
/// given (core/labeling.h). BuildModel checkpoints no plan (num_shards =
/// 0); a pipeline resuming such a checkpoint keeps its sample phase and
/// plans its shards afresh.
Result<SamplePhase> RunSamplePhase(const std::string& store_path,
                                   const PipelineOptions& options,
                                   const char* empty_store_message,
                                   const char* resumed_counter,
                                   bool plan_shards, diag::MetricsRegistry* m,
                                   RetryStats* retry_stats) {
  ROCK_RETURN_IF_ERROR(options.rock.Validate());
  if (options.sample_size == 0) {
    return Status::InvalidArgument("sample_size must be > 0");
  }
  if (!options.rock.failpoints.empty()) {
    ROCK_RETURN_IF_ERROR(fail::Configure(options.rock.failpoints));
  }
  if (options.resume && options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "resume requires a checkpoint_path to resume from");
  }

  // The store row count clamps the sample and keys the fingerprint. The
  // open consults the "store.open" site, so it is retried.
  uint64_t store_count = 0;
  ROCK_RETURN_IF_ERROR(RetryTransient(
      options.retry,
      [&]() -> Status {
        auto reader = TransactionStoreReader::Open(store_path);
        ROCK_RETURN_IF_ERROR(reader.status());
        store_count = reader->count();
        return Status::OK();
      },
      retry_stats, options.retry_sleeper));
  if (store_count == 0) return Status::InvalidArgument(empty_store_message);

  // A sample larger than the store degenerates to "cluster everything":
  // clamp instead of failing, and record that we did.
  const uint64_t effective_sample =
      std::min<uint64_t>(options.sample_size, store_count);
  if (effective_sample < options.sample_size) {
    diag::AddCounter(m, "sample.clamped", 1);
  }
  const CheckpointFingerprint fingerprint =
      MakeFingerprint(store_count, effective_sample, options);

  SamplePhase out;
  if (options.resume) {
    auto loaded = LoadCheckpoint(options.checkpoint_path);
    if (loaded.ok()) {
      if (loaded->fingerprint == fingerprint) {
        out.cp = std::move(*loaded);
        out.resumed = true;
      } else {
        diag::AddCounter(m, "checkpoint.mismatch", 1);
      }
    } else if (fail::IsInjectedCrash(loaded.status())) {
      return loaded.status();
    } else if (loaded.status().IsCorruption()) {
      diag::AddCounter(m, "checkpoint.invalid", 1);
    } else if (loaded.status().IsIOError() || loaded.status().IsNotFound()) {
      diag::AddCounter(m, "checkpoint.missing", 1);
    } else {
      return loaded.status();
    }
  }

  PipelineCheckpoint& cp = out.cp;
  if (out.resumed) {
    // Sample phase restored verbatim: the clustering's member lists feed
    // TransactionLabeler::Build's RNG draws, so reusing them bit-for-bit
    // keeps the resumed labels identical to an uninterrupted run.
    diag::AddCounter(m, resumed_counter, 1);
    for (const Transaction& tx : cp.sample) out.sample.AddTransaction(tx);
    out.rock.clustering = cp.clustering;
    out.rock.merges = cp.merges;
    out.rock.stats = cp.stats;
  } else {
    ROCK_RETURN_IF_ERROR(SampleAndCluster(store_path, options,
                                          effective_sample, retry_stats, &out));
    cp.fingerprint = fingerprint;
    cp.clustering = out.rock.clustering;
    cp.merges = out.rock.merges;
    cp.stats = out.rock.stats;
  }

  // Persist the sample phase before the long work starts, so even a crash
  // in the very first label shard resumes without re-clustering. A
  // restored checkpoint is already on disk unless it still needs a plan.
  const bool needs_plan = plan_shards && cp.num_shards == 0;
  if (options.checkpoint_path.empty() || (out.resumed && !needs_plan)) {
    return out;
  }
  if (needs_plan) {
    const size_t threads = ResolveThreads(options.rock.label_threads);
    cp.num_shards =
        threads <= 1 ? 1
                     : std::min<uint64_t>(store_count,
                                          static_cast<uint64_t>(threads) * 4);
  }
  const size_t shards = static_cast<size_t>(cp.num_shards);
  cp.shard_done.assign(shards, 0);
  cp.shard_stats.assign(shards, TransactionLabeler::AssignStats{});
  cp.shard_outliers.assign(shards, 0);
  cp.assignments.assign(static_cast<size_t>(store_count), kUnassigned);
  cp.ground_truth.assign(static_cast<size_t>(store_count), kNoLabel);
  ROCK_RETURN_IF_ERROR(RetryTransient(
      options.retry,
      [&] { return SaveCheckpoint(cp, options.checkpoint_path); },
      retry_stats, options.retry_sleeper));
  out.checkpoint_writes = 1;
  return out;
}

/// Deletes the checkpoint once the run no longer needs it (no-op without a
/// checkpoint path). The removal goes through the "checkpoint.remove"
/// failpoint site and the transient-retry schedule like every other
/// checkpoint I/O. A removal that still fails after retries must NOT fail
/// the run — the output is already complete — but it is counted
/// (checkpoint.remove_failed), and the stale checkpoint it leaves behind
/// is harmless: its fingerprint matches and its work is done, so a later
/// resume restores the identical result instead of recomputing. Only an
/// injected crash (simulated process death) propagates.
Status RemoveCheckpoint(const PipelineOptions& options,
                        diag::MetricsRegistry* m, RetryStats* retry_stats) {
  if (options.checkpoint_path.empty()) return Status::OK();
  const Status removed = RetryTransient(
      options.retry,
      [&]() -> Status {
        ROCK_RETURN_IF_ERROR(fail::ConsultRead("checkpoint.remove"));
        if (std::remove(options.checkpoint_path.c_str()) != 0 &&
            errno != ENOENT) {
          return Status::IOError("cannot remove checkpoint '" +
                                 options.checkpoint_path + "'");
        }
        return Status::OK();
      },
      retry_stats, options.retry_sleeper);
  if (fail::IsInjectedCrash(removed)) return removed;
  diag::AddCounter(
      m, removed.ok() ? "checkpoint.removed" : "checkpoint.remove_failed", 1);
  return Status::OK();
}

/// Records the sample, retry and fault metrics both halves export, then
/// snapshots `registry` merged with the clusterer's own report.
diag::RunMetrics SnapshotMetrics(diag::MetricsRegistry& registry,
                                 const RockResult& sample_result,
                                 size_t sample_rows, double sample_seconds,
                                 const RetryStats& retry, double backoff_ms) {
  registry.RecordSeconds("stage.sample", sample_seconds);
  registry.AddCounter("sample.rows", sample_rows);
  registry.AddCounter("retry.attempts", retry.attempts);
  registry.AddCounter("retry.retries", retry.retries);
  registry.AddCounter("retry.exhausted", retry.exhausted);
  registry.SetGauge("retry.backoff_ms", backoff_ms);
  for (const auto& [site, fired] : fail::FiredSnapshot()) {
    registry.AddCounter("fault.fired." + site, fired);
  }
  diag::RunMetrics metrics = registry.Snapshot();
  metrics.Merge(sample_result.metrics);
  return metrics;
}

}  // namespace

Result<PipelineResult> RunRockPipeline(const std::string& store_path,
                                       const PipelineOptions& options) {
  diag::MetricsRegistry registry;
  const bool collect = options.rock.diag.collect_metrics;
  diag::MetricsRegistry* m = collect ? &registry : nullptr;
  const bool checkpointing = !options.checkpoint_path.empty();
  RetryStats retry_stats;  // sampling + checkpoint I/O (labeling has its own)

  Result<SamplePhase> phase = RunSamplePhase(
      store_path, options, "cannot run the pipeline on an empty store",
      "pipeline.resumed", /*plan_shards=*/true, m, &retry_stats);
  if (!phase.ok()) return phase.status();
  PipelineCheckpoint& cp = phase->cp;
  PipelineResult out;
  out.resumed = phase->resumed;
  out.sample_rows = cp.sample_rows;
  out.sample_result = std::move(phase->rock);
  out.sample_seconds = phase->sample_seconds;
  out.cluster_seconds = phase->cluster_seconds;
  uint64_t checkpoint_writes = phase->checkpoint_writes;

  // Pass 2: stream the store through the labeler, sharded over
  // options.rock.label_threads workers.
  Timer label_timer;
  auto labeler =
      TransactionLabeler::Build(phase->sample, out.sample_result.clustering,
                                options.rock, options.labeling);
  ROCK_RETURN_IF_ERROR(labeler.status());
  LabelStoreOptions label_options;
  label_options.num_threads = options.rock.label_threads;
  label_options.metrics = m;
  label_options.num_shards = cp.num_shards;
  label_options.retry = options.retry;
  label_options.retry_sleeper = options.retry_sleeper;
  LabelResumeState resume_state;
  if (checkpointing) {
    // The checkpoint's pinned plan and progress: completed shards (none on
    // a fresh run) are restored instead of scanned.
    resume_state.num_shards = cp.num_shards;
    resume_state.shard_done = &cp.shard_done;
    resume_state.assignments = &cp.assignments;
    resume_state.ground_truth = &cp.ground_truth;
    resume_state.shard_stats = &cp.shard_stats;
    resume_state.shard_outliers = &cp.shard_outliers;
    label_options.resume = &resume_state;
    // Serialized by LabelStore, so mutating the shared checkpoint object
    // here is race-free; the completed shard's rows are final.
    label_options.on_shard_complete =
        [&](const LabelShardCompletion& done) -> Status {
      cp.shard_done[done.shard] = 1;
      std::copy(done.assignments, done.assignments + done.range.num_rows,
                cp.assignments.begin() +
                    static_cast<ptrdiff_t>(done.range.first_row));
      std::copy(done.ground_truth, done.ground_truth + done.range.num_rows,
                cp.ground_truth.begin() +
                    static_cast<ptrdiff_t>(done.range.first_row));
      cp.shard_stats[done.shard] = done.stats;
      cp.shard_outliers[done.shard] = done.outliers;
      ROCK_RETURN_IF_ERROR(RetryTransient(
          options.retry,
          [&] { return SaveCheckpoint(cp, options.checkpoint_path); },
          &retry_stats, options.retry_sleeper));
      ++checkpoint_writes;
      return Status::OK();
    };
  }
  auto labeling = LabelStore(store_path, *labeler, label_options);
  ROCK_RETURN_IF_ERROR(labeling.status());
  out.labeling = std::move(*labeling);
  out.shards_skipped = out.labeling.shards_skipped;
  out.label_seconds = label_timer.ElapsedSeconds();

  // The run completed; the checkpoint has nothing left to resume.
  ROCK_RETURN_IF_ERROR(RemoveCheckpoint(options, m, &retry_stats));

  if (collect) {
    registry.RecordSeconds("stage.label", out.label_seconds);
    registry.AddCounter("label.rows", out.labeling.assignments.size());
    registry.AddCounter("label.outliers", out.labeling.num_outliers);
    if (checkpointing) {
      registry.AddCounter("checkpoint.writes", checkpoint_writes);
    }
    // LabelStore already recorded its own retry counters into this
    // registry; these add the sampling/checkpoint share on top. The gauge
    // is last-write, so it carries the full total.
    out.metrics = SnapshotMetrics(
        registry, out.sample_result, out.sample_rows.size(),
        out.sample_seconds, retry_stats,
        retry_stats.backoff_ms + out.labeling.retry_stats.backoff_ms);
  }
  return out;
}

Result<ModelBuildResult> BuildModel(const std::string& store_path,
                                    const ModelBuildOptions& options) {
  const PipelineOptions& p = options.pipeline;
  diag::MetricsRegistry registry;
  const bool collect = p.rock.diag.collect_metrics;
  diag::MetricsRegistry* m = collect ? &registry : nullptr;
  RetryStats retry_stats;

  // Model rebuilds ride the pipeline's checkpoint spine: the sample+cluster
  // phase — the expensive part of a build — is persisted as a shard-free
  // checkpoint, and a resumed build restores it bit-for-bit, so a rebuild
  // interrupted between clustering and the bundle swap completes with a
  // byte-identical bundle instead of re-clustering.
  Result<SamplePhase> phase = RunSamplePhase(
      store_path, p, "cannot build a model on an empty store",
      "build.resumed", /*plan_shards=*/false, m, &retry_stats);
  if (!phase.ok()) return phase.status();
  const TransactionDataset& sample = phase->sample;
  ModelBuildResult out;
  out.resumed = phase->resumed;
  out.sample_rows = std::move(phase->cp.sample_rows);
  out.sample_result = std::move(phase->rock);
  out.sample_seconds = phase->sample_seconds;
  out.cluster_seconds = phase->cluster_seconds;

  // Build the §4.6 labeler the same way the batch pipeline does, then
  // freeze its parts into the bundle. The serve layer reassembles it via
  // TransactionLabeler::FromParts, which recomputes the normalizers and
  // index identically — so serve answers match batch labels bit for bit.
  Timer build_timer;
  auto labeler = TransactionLabeler::Build(
      sample, out.sample_result.clustering, p.rock, p.labeling);
  ROCK_RETURN_IF_ERROR(labeler.status());

  out.bundle.fingerprint = phase->cp.fingerprint;
  out.bundle.theta = labeler->theta();
  out.bundle.f_exponent = labeler->f_exponent();
  out.bundle.labeling_sets.reserve(labeler->num_clusters());
  for (size_t c = 0; c < labeler->num_clusters(); ++c) {
    out.bundle.labeling_sets.push_back(labeler->labeling_set(c));
  }
  if (options.dictionary != nullptr) {
    out.bundle.dictionary.reserve(options.dictionary->size());
    for (size_t i = 0; i < options.dictionary->size(); ++i) {
      out.bundle.dictionary.push_back(
          options.dictionary->Name(static_cast<ItemId>(i)));
    }
  }

  // Profile the model against its own sample: the per-cluster share and
  // winning-neighbor-count distributions the drift detector compares
  // appended rows against (eval/drift.h). Deterministic — AssignDetailed
  // over a fixed sample — so resumed rebuilds freeze identical profiles.
  {
    ModelProfile& profile = out.bundle.profile;
    const size_t num_clusters = labeler->num_clusters();
    std::vector<uint64_t> won(num_clusters, 0);
    std::vector<double> neighbor_sum(num_clusters, 0.0);
    uint64_t outliers = 0;
    double score_sum = 0.0;
    TransactionLabeler::Scratch scratch;
    for (size_t i = 0; i < sample.size(); ++i) {
      const TransactionLabeler::AssignOutcome outcome =
          labeler->AssignDetailed(sample.transaction(i), &scratch, nullptr);
      if (outcome.cluster == kUnassigned) {
        ++outliers;
      } else {
        ++won[static_cast<size_t>(outcome.cluster)];
        neighbor_sum[static_cast<size_t>(outcome.cluster)] +=
            static_cast<double>(outcome.neighbors);
        score_sum += outcome.score;
      }
    }
    profile.rows = sample.size();
    if (profile.rows > 0) {
      const double rows = static_cast<double>(profile.rows);
      profile.outlier_share = static_cast<double>(outliers) / rows;
      profile.cluster_share.resize(num_clusters);
      profile.mean_neighbors.resize(num_clusters);
      for (size_t c = 0; c < num_clusters; ++c) {
        profile.cluster_share[c] = static_cast<double>(won[c]) / rows;
        profile.mean_neighbors[c] =
            won[c] > 0 ? neighbor_sum[c] / static_cast<double>(won[c]) : 0.0;
      }
      const uint64_t assigned = profile.rows - outliers;
      profile.mean_score =
          assigned > 0 ? score_sum / static_cast<double>(assigned) : 0.0;
    }
  }

  if (!options.model_path.empty()) {
    ROCK_RETURN_IF_ERROR(RetryTransient(
        p.retry,
        [&] { return SaveModelBundle(out.bundle, options.model_path); },
        &retry_stats, p.retry_sleeper));
    diag::AddCounter(m, "model.saved", 1);
  }
  out.build_seconds = build_timer.ElapsedSeconds();

  // The bundle is safely on disk (or was never requested): the rebuild
  // checkpoint has nothing left to resume.
  ROCK_RETURN_IF_ERROR(RemoveCheckpoint(p, m, &retry_stats));

  if (collect) {
    registry.RecordSeconds("stage.build", out.build_seconds);
    registry.AddCounter("model.clusters", out.bundle.labeling_sets.size());
    out.metrics = SnapshotMetrics(registry, out.sample_result,
                                  out.sample_rows.size(), out.sample_seconds,
                                  retry_stats, retry_stats.backoff_ms);
  }
  return out;
}

}  // namespace rock
