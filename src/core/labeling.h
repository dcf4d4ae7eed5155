// librock — core/labeling.h
//
// Labeling phase (paper §4.6, "Labeling Data on Disk"): after clustering the
// in-memory sample, every remaining point p on disk is assigned to the
// cluster i maximizing its normalized neighbor count
//
//     score_i(p) = N_i(p) / (|L_i| + 1)^{f(θ)}
//
// where L_i is a fraction of cluster i's sampled points kept for labeling
// and N_i(p) = |{ q ∈ L_i : sim(p, q) >= θ }|. Points with zero neighbors in
// every labeling set are outliers.

#ifndef ROCK_CORE_LABELING_H_
#define ROCK_CORE_LABELING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/cluster.h"
#include "core/options.h"
#include "data/dataset.h"
#include "data/disk_store.h"
#include "similarity/jaccard.h"
#include "util/retry.h"

namespace rock {

namespace diag {
class MetricsRegistry;
}  // namespace diag

/// Options for building a TransactionLabeler.
struct LabelingOptions {
  /// Fraction of each cluster's sampled points kept in L_i (0 < f <= 1).
  double fraction = 0.25;
  /// Floor on |L_i| so tiny clusters still label (capped at cluster size).
  size_t min_labeling_points = 8;
  /// Seed for the per-cluster subset draw.
  uint64_t seed = 42;
};

/// Assigns market-basket transactions to the clusters discovered on a
/// sample, per paper §4.6.
class TransactionLabeler {
 public:
  /// Builds labeling sets L_i from `sample` and its `clustering`.
  /// `rock_options` supplies θ and f(θ). Copies the selected transactions,
  /// so the sample dataset may be discarded afterwards.
  static Result<TransactionLabeler> Build(const TransactionDataset& sample,
                                          const Clustering& clustering,
                                          const RockOptions& rock_options,
                                          const LabelingOptions& options);

  /// Per-thread reusable workspace for Assign. The ScanCount pass marks
  /// labeling points and clusters through epoch-stamped arrays, so nothing
  /// is cleared between calls; giving each labeling worker its own Scratch
  /// makes Assign allocation-free (after warm-up) and thread-safe.
  struct Scratch {
    std::vector<uint32_t> point_count;        ///< |T ∩ q| per labeling point
    std::vector<uint32_t> point_stamp;        ///< epoch marks for point_count
    std::vector<uint32_t> touched;            ///< points with count > 0
    std::vector<uint32_t> cluster_neighbors;  ///< N_i(T) per cluster
    std::vector<uint32_t> cluster_stamp;      ///< epoch marks for clusters
    uint32_t epoch = 0;
  };

  /// Pruning counters accumulated by Assign. Summed per shard and merged in
  /// shard order by LabelStore, so totals are deterministic.
  struct AssignStats {
    /// Clusters skipped because they share no item with the transaction.
    uint64_t clusters_pruned = 0;
    /// Clusters whose labeling set was actually scanned.
    uint64_t clusters_scored = 0;
    /// Item-sharing labeling points skipped by the Jaccard length bound
    /// min(|T|,|q|)/max(|T|,|q|) < θ without evaluating the similarity.
    uint64_t points_skipped_length = 0;
    /// Exact Jaccard evaluations (from ScanCount intersection counts).
    uint64_t similarities_computed = 0;

    /// Adds `other`'s counts into this.
    void Merge(const AssignStats& other);
  };

  /// Everything one §4.6 assignment decides: the winning cluster plus the
  /// evidence behind it. `neighbors` is N_i(p) for the winning cluster i
  /// (0 for outliers) and `score` the winning N_i(p)/(|L_i|+1)^f(θ) —
  /// the per-row goodness the drift detector (eval/drift.h) profiles.
  struct AssignOutcome {
    ClusterIndex cluster = kUnassigned;
    uint32_t neighbors = 0;
    double score = 0.0;
  };

  /// Cluster index for `tx`, or kUnassigned when tx has no neighbor in any
  /// labeling set.
  ClusterIndex Assign(const Transaction& tx) const;

  /// As above, with an optional reusable `scratch` (nullptr = internal
  /// temporary) and optional pruning-counter accumulation into `stats`.
  /// Walks the inverted item index once to accumulate exact intersection
  /// counts for every labeling point sharing an item with `tx` (ScanCount),
  /// then derives each touched point's Jaccard from its count in O(1) —
  /// untouched points have similarity 0 and are never visited, and the
  /// Jaccard length bound min(|T|,|q|)/max(|T|,|q|) < θ skips the rest
  /// before the division. Every surviving similarity is the same
  /// `double(|∩|)/double(|∪|)` JaccardSimilarity computes, so the result
  /// is bit-identical to AssignUnpruned for every input.
  ClusterIndex Assign(const Transaction& tx, Scratch* scratch,
                      AssignStats* stats) const;

  /// The same decision as Assign (identical code path, bit-identical
  /// winner), additionally reporting the winning cluster's neighbor count
  /// and score. This is the entry point the streaming layer uses so every
  /// incremental label doubles as a drift observation.
  AssignOutcome AssignDetailed(const Transaction& tx, Scratch* scratch,
                               AssignStats* stats) const;

  /// Reference implementation: brute-force Jaccard against every labeling
  /// point of every cluster, exactly the pre-index engine. Kept as the
  /// oracle for the differential tests and the labeling benchmarks.
  ClusterIndex AssignUnpruned(const Transaction& tx) const;

  /// Number of clusters the labeler can assign to.
  size_t num_clusters() const { return sets_.size(); }

  /// Size of labeling set L_i.
  size_t labeling_set_size(size_t i) const { return sets_[i].size(); }

  /// Reassembles a labeler from already-validated parts: θ, the
  /// normalization exponent f(θ), and the labeling sets L_i. Recomputes the
  /// normalizers and the inverted index, so a labeler round-tripped through
  /// a model bundle (core/model_bundle.h, its only on-disk form) assigns
  /// bit-identically to the original. Rejects non-finite or out-of-range
  /// parameters with InvalidArgument, as LoadModelBundle does with
  /// Corruption.
  static Result<TransactionLabeler> FromParts(
      double theta, double f_exponent,
      std::vector<std::vector<Transaction>> sets);

  /// Neighbor threshold θ the labeler was built with.
  double theta() const { return theta_; }
  /// Normalization exponent f(θ).
  double f_exponent() const { return f_exponent_; }
  /// Labeling set L_i (for serialization; treat as read-only).
  const std::vector<Transaction>& labeling_set(size_t i) const {
    return sets_[i];
  }

 private:
  TransactionLabeler(double theta, double exponent)
      : theta_(theta), f_exponent_(exponent) {}

  /// Builds the inverted point index from sets_ (called by Build and
  /// FromParts).
  void BuildIndex();

  double theta_;
  double f_exponent_;  // f(θ), the normalization exponent
  std::vector<std::vector<Transaction>> sets_;  // L_i per cluster
  std::vector<double> normalizers_;             // (|L_i|+1)^{f(θ)}
  /// Inverted index over all labeling points (flattened across clusters in
  /// cluster order): item id → point ids containing the item. One pass over
  /// a probe's postings yields exact |T ∩ q| for every point sharing an
  /// item; points sharing none have Jaccard 0, never ≥ θ for θ > 0.
  std::vector<std::vector<uint32_t>> item_to_points_;
  std::vector<uint32_t> point_cluster_;  ///< point id → owning cluster
  std::vector<uint32_t> point_size_;     ///< point id → |q|
};

/// Result of labeling one on-disk store.
struct LabelingRunResult {
  /// Cluster per store row (kUnassigned = outlier). Size = store count.
  std::vector<ClusterIndex> assignments;
  /// Ground-truth label ids carried by the store (kNoLabel where absent).
  std::vector<LabelId> ground_truth;
  size_t num_outliers = 0;
  /// Pruning counters summed over all shards (deterministic).
  TransactionLabeler::AssignStats stats;
  /// Wall time of the scan itself (excludes labeler construction).
  double seconds = 0.0;
  /// Worker threads and store shards the scan actually used.
  size_t threads_used = 1;
  size_t shards = 1;
  /// Shards restored from LabelStoreOptions::resume instead of scanned.
  size_t shards_skipped = 0;
  /// Transient-I/O retry accounting for the whole scan (retry.* metrics).
  RetryStats retry_stats;
};

/// Everything LabelStore reports about one finished shard, handed to
/// LabelStoreOptions::on_shard_complete so callers can checkpoint. The row
/// spans point at the shard's slice of the (still shared) result arrays —
/// the shard's rows are final once the callback runs, and LabelStore
/// serializes callback invocations, so reading them is race-free.
struct LabelShardCompletion {
  size_t shard = 0;              ///< index into the shard plan
  StoreShardRange range;         ///< rows this shard covered
  const ClusterIndex* assignments = nullptr;  ///< [range.num_rows]
  const LabelId* ground_truth = nullptr;      ///< [range.num_rows]
  TransactionLabeler::AssignStats stats;      ///< this shard's counters
  uint64_t outliers = 0;         ///< kUnassigned rows in this shard
};

/// Prior labeling progress for a resumed scan (from a pipeline checkpoint,
/// core/checkpoint.h). All vectors are borrowed and must outlive the
/// LabelStore call. `shard_done`, `shard_stats` and `shard_outliers` have
/// one entry per planned shard; `assignments`/`ground_truth` cover the
/// whole store and are only read for rows of completed shards.
struct LabelResumeState {
  uint64_t num_shards = 0;  ///< shard plan size the progress refers to
  const std::vector<uint8_t>* shard_done = nullptr;
  const std::vector<ClusterIndex>* assignments = nullptr;
  const std::vector<LabelId>* ground_truth = nullptr;
  const std::vector<TransactionLabeler::AssignStats>* shard_stats = nullptr;
  const std::vector<uint64_t>* shard_outliers = nullptr;
};

/// Controls for the sharded labeling scan.
struct LabelStoreOptions {
  /// Worker threads: 1 = serial scan, 0 = hardware concurrency.
  /// Assignments are bit-identical across all thread counts — shards are
  /// per-row-disjoint and merged in store order.
  size_t num_threads = 1;
  /// When non-null, the scan records label.* counters/gauges here (wall
  /// time, transactions/sec, candidate-prune hit rate; see
  /// docs/OBSERVABILITY.md).
  diag::MetricsRegistry* metrics = nullptr;
  /// Overrides the shard plan size (0 = derive from num_threads). Set by
  /// callers that persist per-shard progress so a resumed run replans the
  /// exact same shard boundaries regardless of its thread count.
  uint64_t num_shards = 0;
  /// Transient-I/O retry schedule for shard scans (docs/ROBUSTNESS.md).
  /// A shard whose reader fails with IOError is reopened and rescanned
  /// from its start; results stay bit-identical because shard rows are
  /// rewritten in place and per-shard counters reset per attempt.
  RetryPolicy retry;
  /// Injectable sleeper for the retry backoff (tests; nullptr = real).
  RetrySleeper retry_sleeper = nullptr;
  /// When set, called once per freshly scanned shard, right after its rows
  /// are final. Calls are serialized (a mutex) but can come from any
  /// worker, in any shard order. A non-OK return aborts the scan — that is
  /// how an injected checkpoint crash stops a run mid-flight.
  std::function<Status(const LabelShardCompletion&)> on_shard_complete;
  /// When non-null, shards marked done are restored instead of scanned.
  const LabelResumeState* resume = nullptr;
};

/// Labels every transaction of `store_path`. The store is split into
/// near-equal row ranges (StoreShardRange) claimed dynamically by
/// `options.num_threads` workers; each worker streams its ranges with a
/// range-scoped reader and writes assignments directly into the row slots
/// of the shared result, so the merged output is bit-identical to a serial
/// scan in store order.
Result<LabelingRunResult> LabelStore(const std::string& store_path,
                                     const TransactionLabeler& labeler,
                                     const LabelStoreOptions& options);

/// Serial convenience overload (num_threads = 1, no metrics).
Result<LabelingRunResult> LabelStore(const std::string& store_path,
                                     const TransactionLabeler& labeler);

}  // namespace rock

#endif  // ROCK_CORE_LABELING_H_
