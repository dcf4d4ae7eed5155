#include "core/labeling.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "common/timer.h"
#include "diag/metrics.h"
#include "similarity/packed.h"
#include "util/thread_pool.h"

namespace rock {

Result<TransactionLabeler> TransactionLabeler::Build(
    const TransactionDataset& sample, const Clustering& clustering,
    const RockOptions& rock_options, const LabelingOptions& options) {
  ROCK_RETURN_IF_ERROR(rock_options.Validate());
  if (!(options.fraction > 0.0 && options.fraction <= 1.0)) {
    return Status::InvalidArgument("labeling fraction must be in (0, 1]");
  }
  if (clustering.assignment.size() != sample.size()) {
    return Status::InvalidArgument(
        "clustering does not cover the sample dataset");
  }

  TransactionLabeler labeler(rock_options.theta,
                             rock_options.f(rock_options.theta));
  labeler.sets_.resize(clustering.num_clusters());
  labeler.normalizers_.resize(clustering.num_clusters());

  Rng rng(options.seed);
  for (size_t c = 0; c < clustering.num_clusters(); ++c) {
    const auto& members = clustering.clusters[c];
    size_t want = static_cast<size_t>(std::ceil(
        options.fraction * static_cast<double>(members.size())));
    want = std::max(want, options.min_labeling_points);
    want = std::min(want, members.size());
    std::vector<size_t> picked =
        rng.SampleWithoutReplacement(members.size(), want);
    auto& set = labeler.sets_[c];
    set.reserve(want);
    for (size_t idx : picked) {
      set.push_back(sample.transaction(members[idx]));
    }
    labeler.normalizers_[c] =
        std::pow(static_cast<double>(set.size()) + 1.0, labeler.f_exponent_);
  }
  labeler.BuildIndex();
  return labeler;
}

Result<TransactionLabeler> TransactionLabeler::FromParts(
    double theta, double f_exponent,
    std::vector<std::vector<Transaction>> sets) {
  // NaN-safe range checks, the same gate LoadModelBundle applies.
  if (!(theta >= 0.0 && theta <= 1.0) || !(f_exponent >= 0.0)) {
    return Status::InvalidArgument("implausible labeler parameters");
  }
  TransactionLabeler labeler(theta, f_exponent);
  labeler.sets_ = std::move(sets);
  labeler.normalizers_.resize(labeler.sets_.size());
  for (size_t c = 0; c < labeler.sets_.size(); ++c) {
    labeler.normalizers_[c] = std::pow(
        static_cast<double>(labeler.sets_[c].size()) + 1.0, f_exponent);
  }
  labeler.BuildIndex();
  return labeler;
}

namespace {

// ScanCount walks a posting with a dependent scattered increment; the
// packed sweep handles a word in a SIMD lane. One posting costs about this
// many swept words: the constant that best splits a measured grid of both
// paths (EXPERIMENTS.md, "Label counting path crossover").
constexpr double kSweepWordsPerPosting = 30.0;

std::atomic<uint64_t> g_next_index_id{1};

}  // namespace

void TransactionLabeler::BuildIndex() {
  const size_t num_clusters = sets_.size();
  ItemId max_item = 0;
  bool any = false;
  size_t num_points = 0;
  uint64_t total_items = 0;
  index_id_ = g_next_index_id.fetch_add(1, std::memory_order_relaxed);
  class_size_.clear();
  for (const auto& set : sets_) {
    num_points += set.size();
    for (const Transaction& q : set) {
      total_items += q.size();
      class_size_.push_back(static_cast<uint32_t>(q.size()));
      if (!q.empty()) {
        any = true;
        max_item = std::max(max_item, q.items().back());
      }
    }
  }

  // Dense ids in ascending item order.
  dense_item_.assign(any ? static_cast<size_t>(max_item) + 1 : 0, kNoDenseId);
  for (const auto& set : sets_) {
    for (const Transaction& q : set) {
      for (ItemId item : q) dense_item_[item] = 0;
    }
  }
  uint32_t universe = 0;
  for (uint32_t& id : dense_item_) {
    if (id != kNoDenseId) id = universe++;
  }
  words_ = (static_cast<size_t>(universe) + 63) / 64;

  std::sort(class_size_.begin(), class_size_.end());
  class_size_.erase(std::unique(class_size_.begin(), class_size_.end()),
                    class_size_.end());
  cluster_begin_.assign(1, 0);
  point_class_.clear();
  point_class_.reserve(num_points);
  for (const auto& set : sets_) {
    for (const Transaction& q : set) {
      point_class_.push_back(static_cast<uint32_t>(
          std::lower_bound(class_size_.begin(), class_size_.end(),
                           static_cast<uint32_t>(q.size())) -
          class_size_.begin()));
    }
    cluster_begin_.push_back(static_cast<uint32_t>(point_class_.size()));
  }

  // Cost model, per probe: the sweep reads all P·W plane words; ScanCount
  // walks about q̄·Σ|q|/U′ postings, taking the points' mean size q̄ =
  // Σ|q|/P as the probe size. Sweep iff P·W ≤ c·Σ|q|²/(P·U′).
  const double p = static_cast<double>(num_points);
  const double sum = static_cast<double>(total_items);
  const double plane_words = p * static_cast<double>(words_);
  packed_ = universe == 0 || p * plane_words * static_cast<double>(universe) <=
                                 kSweepWordsPerPosting * sum * sum;

  plane_.clear();
  cluster_mask_.clear();
  posting_begin_.clear();
  postings_.clear();
  point_cluster_.clear();
  if (packed_) {
    plane_.assign(words_ * num_points, 0);
    cluster_mask_.assign(num_clusters * words_, 0);
    size_t point = 0;
    for (size_t c = 0; c < num_clusters; ++c) {
      uint64_t* mask = cluster_mask_.data() + c * words_;
      for (const Transaction& q : sets_[c]) {
        for (ItemId item : q) {
          const uint32_t bit = dense_item_[item];
          const uint64_t one = uint64_t{1} << (bit & 63);
          plane_[(bit >> 6) * num_points + point] |= one;
          mask[bit >> 6] |= one;
        }
        ++point;
      }
    }
    return;
  }

  // ScanCount postings as CSR over the dense ids. Transactions are
  // deduplicated, so each posting list gains a point at most once.
  posting_begin_.assign(static_cast<size_t>(universe) + 1, 0);
  for (const auto& set : sets_) {
    for (const Transaction& q : set) {
      for (ItemId item : q) ++posting_begin_[dense_item_[item] + 1];
    }
  }
  for (size_t i = 1; i < posting_begin_.size(); ++i) {
    posting_begin_[i] += posting_begin_[i - 1];
  }
  postings_.resize(total_items);
  std::vector<uint32_t> fill(posting_begin_.begin(), posting_begin_.end() - 1);
  point_cluster_.reserve(num_points);
  for (size_t c = 0; c < num_clusters; ++c) {
    for (const Transaction& q : sets_[c]) {
      const uint32_t point = static_cast<uint32_t>(point_cluster_.size());
      point_cluster_.push_back(static_cast<uint32_t>(c));
      for (ItemId item : q) postings_[fill[dense_item_[item]]++] = point;
    }
  }
}

const uint64_t* TransactionLabeler::NeedTable(uint64_t t,
                                              Scratch* scratch) const {
  if (scratch->need_index != index_id_ || scratch->need_t != t) {
    scratch->need.resize(class_size_.size());
    for (size_t c = 0; c < class_size_.size(); ++c) {
      scratch->need[c] = LeastPassingIntersection(t, class_size_[c], theta_);
    }
    scratch->need_index = index_id_;
    scratch->need_t = t;
  }
  return scratch->need.data();
}

void TransactionLabeler::AssignStats::Merge(const AssignStats& other) {
  clusters_pruned += other.clusters_pruned;
  clusters_scored += other.clusters_scored;
  points_skipped_length += other.points_skipped_length;
  similarities_computed += other.similarities_computed;
}

ClusterIndex TransactionLabeler::Assign(const Transaction& tx) const {
  return Assign(tx, nullptr, nullptr);
}

ClusterIndex TransactionLabeler::AssignUnpruned(const Transaction& tx) const {
  ClusterIndex best = kUnassigned;
  double best_score = 0.0;
  for (size_t c = 0; c < sets_.size(); ++c) {
    size_t neighbors = 0;
    for (const Transaction& q : sets_[c]) {
      if (JaccardSimilarity(tx, q) >= theta_) ++neighbors;
    }
    if (neighbors == 0) continue;
    const double score =
        static_cast<double>(neighbors) / normalizers_[c];
    if (score > best_score) {
      best_score = score;
      best = static_cast<ClusterIndex>(c);
    }
  }
  return best;
}

ClusterIndex TransactionLabeler::Assign(const Transaction& tx,
                                        Scratch* scratch,
                                        AssignStats* stats) const {
  return AssignDetailed(tx, scratch, stats).cluster;
}

TransactionLabeler::AssignOutcome TransactionLabeler::AssignDetailed(
    const Transaction& tx, Scratch* scratch, AssignStats* stats) const {
  const size_t num_clusters = sets_.size();
  AssignOutcome best;
  // Clusters are offered in index order and only a strictly higher score
  // wins, as in AssignUnpruned.
  auto consider = [&](size_t c, uint32_t neighbors) {
    if (neighbors == 0) return;
    const double score = static_cast<double>(neighbors) / normalizers_[c];
    if (score > best.score) {
      best.score = score;
      best.neighbors = neighbors;
      best.cluster = static_cast<ClusterIndex>(c);
    }
  };

  // θ = 0 accepts every pair (Jaccard ≥ 0 always holds), so nothing can be
  // pruned; run the full scan.
  if (theta_ <= 0.0) {
    for (size_t c = 0; c < num_clusters; ++c) {
      uint32_t neighbors = 0;
      for (const Transaction& q : sets_[c]) {
        if (stats != nullptr) ++stats->similarities_computed;
        if (JaccardSimilarity(tx, q) >= theta_) ++neighbors;
      }
      if (stats != nullptr) ++stats->clusters_scored;
      consider(c, neighbors);
    }
    return best;
  }

  Scratch local;
  if (scratch == nullptr) scratch = &local;
  const uint64_t* need = NeedTable(tx.size(), scratch);
  const size_t num_points = point_class_.size();

  if (packed_) {
    // Clusters whose item union misses the row share no item with T, so
    // every point there has Jaccard 0 < θ; the others are swept.
    scratch->row.assign(words_, 0);
    uint64_t* row = scratch->row.data();
    for (ItemId item : tx) {
      const uint32_t bit = DenseId(item);
      if (bit != kNoDenseId) row[bit >> 6] |= uint64_t{1} << (bit & 63);
    }
    const PointPlane plane{plane_.data(), num_points, words_,
                           point_class_.data()};
    for (size_t c = 0; c < num_clusters; ++c) {
      const uint64_t* mask = cluster_mask_.data() + c * words_;
      bool shares = false;
      for (size_t w = 0; w < words_ && !shares; ++w) {
        shares = (mask[w] & row[w]) != 0;
      }
      if (!shares) {
        if (stats != nullptr) ++stats->clusters_pruned;
        continue;
      }
      const ThresholdSweepCounts counts = ThresholdSweep(
          plane, cluster_begin_[c], cluster_begin_[c + 1], row, need);
      if (stats != nullptr) {
        ++stats->clusters_scored;
        stats->points_skipped_length += counts.unreachable;
        stats->similarities_computed +=
            cluster_begin_[c + 1] - cluster_begin_[c] - counts.unreachable;
      }
      consider(c, counts.passed);
    }
    return best;
  }

  // ScanCount: one pass through the postings of tx's items accumulates the
  // exact |T ∩ q| for every point sharing an item with T. Points sharing
  // none have Jaccard 0 and are never visited.
  if (scratch->point_stamp.size() != num_points ||
      scratch->cluster_stamp.size() != num_clusters) {
    scratch->point_count.assign(num_points, 0);
    scratch->point_stamp.assign(num_points, 0);
    scratch->cluster_neighbors.assign(num_clusters, 0);
    scratch->cluster_stamp.assign(num_clusters, 0);
    scratch->epoch = 0;
  }
  if (++scratch->epoch == 0) {  // epoch wrapped: reset marks once
    std::fill(scratch->point_stamp.begin(), scratch->point_stamp.end(), 0u);
    std::fill(scratch->cluster_stamp.begin(), scratch->cluster_stamp.end(),
              0u);
    scratch->epoch = 1;
  }
  const uint32_t epoch = scratch->epoch;
  scratch->touched.clear();
  for (ItemId item : tx) {
    const uint32_t id = DenseId(item);
    if (id == kNoDenseId) continue;
    for (uint32_t i = posting_begin_[id]; i < posting_begin_[id + 1]; ++i) {
      const uint32_t p = postings_[i];
      if (scratch->point_stamp[p] != epoch) {
        scratch->point_stamp[p] = epoch;
        scratch->point_count[p] = 1;
        scratch->touched.push_back(p);
      } else {
        ++scratch->point_count[p];
      }
    }
  }
  for (uint32_t p : scratch->touched) {
    const uint32_t cluster = point_cluster_[p];
    if (scratch->cluster_stamp[cluster] != epoch) {
      scratch->cluster_stamp[cluster] = epoch;
      scratch->cluster_neighbors[cluster] = 0;
    }
    const uint64_t threshold = need[point_class_[p]];
    if (threshold == kUnreachableIntersection) {
      if (stats != nullptr) ++stats->points_skipped_length;
      continue;
    }
    if (stats != nullptr) ++stats->similarities_computed;
    if (scratch->point_count[p] >= threshold) {
      ++scratch->cluster_neighbors[cluster];
    }
  }
  for (size_t c = 0; c < num_clusters; ++c) {
    if (scratch->cluster_stamp[c] != epoch) {
      if (stats != nullptr) ++stats->clusters_pruned;
      continue;
    }
    if (stats != nullptr) ++stats->clusters_scored;
    consider(c, scratch->cluster_neighbors[c]);
  }
  return best;
}

Result<LabelingRunResult> LabelStore(const std::string& store_path,
                                     const TransactionLabeler& labeler,
                                     const LabelStoreOptions& options) {
  Timer timer;
  const size_t threads = ResolveThreads(options.num_threads);

  LabelingRunResult out;
  out.threads_used = threads;

  // The header open and the shard plan both touch the store file, so both
  // ride the transient-retry schedule (their failpoint site is
  // "store.open").
  uint64_t total = 0;
  ROCK_RETURN_IF_ERROR(RetryTransient(
      options.retry,
      [&]() -> Status {
        auto header = TransactionStoreReader::Open(store_path);
        ROCK_RETURN_IF_ERROR(header.status());
        total = header->count();
        return Status::OK();
      },
      &out.retry_stats, options.retry_sleeper));
  out.assignments.assign(total, kUnassigned);
  out.ground_truth.assign(total, kNoLabel);

  std::vector<StoreShardRange> shards;
  if (total > 0) {
    // More shards than workers (4×) lets the dynamic claim loop rebalance
    // when transaction sizes are skewed across the file. A caller that
    // persists per-shard progress pins the plan size instead, so a resumed
    // run replans the exact same boundaries at any thread count.
    uint64_t want = options.num_shards;
    if (options.resume != nullptr && options.resume->num_shards > 0) {
      want = options.resume->num_shards;
    }
    if (want == 0) {
      want = threads <= 1
                 ? 1
                 : std::min<uint64_t>(total,
                                      static_cast<uint64_t>(threads) * 4);
    }
    ROCK_RETURN_IF_ERROR(RetryTransient(
        options.retry,
        [&]() -> Status {
          auto planned = TransactionStoreReader::PlanShards(store_path, want);
          ROCK_RETURN_IF_ERROR(planned.status());
          shards = std::move(*planned);
          return Status::OK();
        },
        &out.retry_stats, options.retry_sleeper));
  }
  out.shards = shards.size();

  // Restore completed shards from the resume state: their rows, counters
  // and outlier counts are copied verbatim and the claim loop skips them,
  // so a resumed run only pays for the shards the interrupted run missed.
  std::vector<uint8_t> skip(shards.size(), 0);
  std::vector<TransactionLabeler::AssignStats> shard_stats(shards.size());
  std::vector<uint64_t> shard_outliers(shards.size(), 0);
  if (options.resume != nullptr) {
    const LabelResumeState& resume = *options.resume;
    if (resume.num_shards != static_cast<uint64_t>(shards.size()) ||
        resume.shard_done == nullptr ||
        resume.shard_done->size() != shards.size() ||
        resume.assignments == nullptr ||
        resume.assignments->size() != total ||
        resume.ground_truth == nullptr ||
        resume.ground_truth->size() != total ||
        resume.shard_stats == nullptr ||
        resume.shard_stats->size() != shards.size() ||
        resume.shard_outliers == nullptr ||
        resume.shard_outliers->size() != shards.size()) {
      return Status::InvalidArgument(
          "labeling resume state does not match the store's shard plan");
    }
    for (size_t s = 0; s < shards.size(); ++s) {
      if (!(*resume.shard_done)[s]) continue;
      skip[s] = 1;
      const StoreShardRange& range = shards[s];
      for (uint64_t row = range.first_row;
           row < range.first_row + range.num_rows; ++row) {
        out.assignments[row] = (*resume.assignments)[row];
        out.ground_truth[row] = (*resume.ground_truth)[row];
      }
      shard_stats[s] = (*resume.shard_stats)[s];
      shard_outliers[s] = (*resume.shard_outliers)[s];
      ++out.shards_skipped;
    }
  }

  // Workers claim shards from a shared counter and write each row's
  // assignment straight into its slot — rows are disjoint across shards,
  // so the merged result is bit-identical to a serial in-order scan. A
  // shard attempt that fails with a transient IOError is retried from its
  // start with its counters reset, which keeps retries invisible in the
  // output: rows are rewritten in place with identical values.
  std::vector<Status> shard_status(shards.size(), Status::OK());
  const size_t num_workers = shards.size() <= 1 ? 1 : threads;
  std::vector<RetryStats> worker_retry(num_workers);
  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};
  std::mutex completion_mutex;
  ParallelInvoke(num_workers, [&](size_t worker) {
    TransactionLabeler::Scratch scratch;
    while (!abort.load(std::memory_order_acquire)) {
      const size_t s = next.fetch_add(1);
      if (s >= shards.size()) break;
      if (skip[s]) continue;
      const StoreShardRange& range = shards[s];
      Status attempt = RetryTransient(
          options.retry,
          [&]() -> Status {
            shard_stats[s] = TransactionLabeler::AssignStats{};
            shard_outliers[s] = 0;
            auto reader = TransactionStoreReader::OpenRange(store_path, range);
            ROCK_RETURN_IF_ERROR(reader.status());
            uint64_t row = range.first_row;
            while (reader->Next()) {
              const ClusterIndex c = labeler.Assign(reader->transaction(),
                                                    &scratch, &shard_stats[s]);
              out.assignments[row] = c;
              out.ground_truth[row] = reader->label();
              if (c == kUnassigned) ++shard_outliers[s];
              ++row;
            }
            ROCK_RETURN_IF_ERROR(reader->status());
            if (row != range.first_row + range.num_rows) {
              return Status::Corruption(
                  "store shard ended early (file truncated or changed "
                  "underfoot)");
            }
            return Status::OK();
          },
          &worker_retry[worker], options.retry_sleeper);
      if (!attempt.ok()) {
        shard_status[s] = std::move(attempt);
        continue;
      }
      if (options.on_shard_complete) {
        // Serialized so checkpoint writers never interleave; the shard's
        // rows are final here, making the callback's reads race-free.
        LabelShardCompletion done;
        done.shard = s;
        done.range = range;
        done.assignments = out.assignments.data() + range.first_row;
        done.ground_truth = out.ground_truth.data() + range.first_row;
        done.stats = shard_stats[s];
        done.outliers = shard_outliers[s];
        std::lock_guard<std::mutex> lock(completion_mutex);
        Status cb = options.on_shard_complete(done);
        if (!cb.ok()) {
          shard_status[s] = std::move(cb);
          abort.store(true, std::memory_order_release);
        }
      }
    }
  });
  for (const RetryStats& w : worker_retry) out.retry_stats.Merge(w);

  // First failing shard (in store order) wins, deterministically.
  for (const Status& s : shard_status) {
    ROCK_RETURN_IF_ERROR(s);
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    out.stats.Merge(shard_stats[s]);
    out.num_outliers += static_cast<size_t>(shard_outliers[s]);
  }
  out.seconds = timer.ElapsedSeconds();

  if (options.metrics != nullptr) {
    diag::MetricsRegistry* m = options.metrics;
    m->RecordSeconds("stage.label_scan", out.seconds);
    m->AddCounter("label.threads", out.threads_used);
    m->AddCounter("label.shards", out.shards);
    m->AddCounter("label.shards_skipped", out.shards_skipped);
    m->AddCounter("retry.attempts", out.retry_stats.attempts);
    m->AddCounter("retry.retries", out.retry_stats.retries);
    m->AddCounter("retry.exhausted", out.retry_stats.exhausted);
    m->SetGauge("retry.backoff_ms", out.retry_stats.backoff_ms);
    m->AddCounter("label.clusters_scored", out.stats.clusters_scored);
    m->AddCounter("label.clusters_pruned", out.stats.clusters_pruned);
    m->AddCounter("label.points_skipped_length",
                  out.stats.points_skipped_length);
    m->AddCounter("label.similarities_computed",
                  out.stats.similarities_computed);
    const uint64_t candidates =
        out.stats.clusters_scored + out.stats.clusters_pruned;
    m->SetGauge("label.prune_hit_rate",
                candidates == 0
                    ? 0.0
                    : static_cast<double>(out.stats.clusters_pruned) /
                          static_cast<double>(candidates));
    m->SetGauge("label.transactions_per_sec",
                out.seconds > 0.0
                    ? static_cast<double>(total) / out.seconds
                    : 0.0);
  }
  return out;
}

Result<LabelingRunResult> LabelStore(const std::string& store_path,
                                     const TransactionLabeler& labeler) {
  return LabelStore(store_path, labeler, LabelStoreOptions{});
}

}  // namespace rock
