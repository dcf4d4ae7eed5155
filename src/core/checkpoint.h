// librock — core/checkpoint.h
//
// Crash-safe persistence of pipeline progress (docs/ROBUSTNESS.md). The
// labeling phase is the only stage that touches the whole database, so a
// pipeline checkpoint freezes everything cheaper than that scan — the
// sampled rows, the sample clustering, the pinned shard plan — plus the
// per-shard labeling progress, letting `rock pipeline --resume` skip both
// the re-clustering and every shard that already finished.
//
// The file is a sealed file (util/bytes.h) with magic "ROCKCKPT",
// version 1: the shared [magic][version][payload_size][crc32] envelope
// around the serialized PipelineCheckpoint. A torn or bit-rotted
// checkpoint is detected and discarded as Corruption (the pipeline then
// restarts cleanly), never resumed into wrong labels; so is a payload
// whose CRC is valid but whose counts or indices do not fit together.
//
// Writes are atomic-by-rename. The "pipeline.checkpoint" failpoint site
// models the two crash shapes tests need: `torn_write` leaves a truncated
// file at the *final* path (a non-atomic filesystem), `crash` leaves only
// the tmp file (death between write and rename). Loads consult
// "checkpoint.load".

#ifndef ROCK_CORE_CHECKPOINT_H_
#define ROCK_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cluster.h"
#include "core/labeling.h"
#include "core/rock.h"
#include "data/transaction.h"
#include "util/bytes.h"

namespace rock {

/// Identity of the run a checkpoint belongs to. A resumed run recomputes
/// its own fingerprint and must match the stored one exactly — resuming
/// with a different store, θ, k, seed or sampling setup would silently mix
/// two different clusterings. (The link-expectation function f(θ) is code,
/// not data, and cannot be fingerprinted; resume assumes it is unchanged.)
struct CheckpointFingerprint {
  uint64_t store_count = 0;         ///< rows in the transaction store
  double theta = 0.0;               ///< RockOptions::theta
  uint64_t num_clusters = 0;        ///< RockOptions::num_clusters (k)
  uint64_t min_neighbors = 0;       ///< RockOptions::min_neighbors
  double outlier_stop_multiple = 0.0;
  uint64_t min_cluster_support = 0;
  uint64_t sample_size = 0;         ///< effective (clamped) sample size
  uint64_t sample_seed = 0;         ///< PipelineOptions::seed
  double labeling_fraction = 0.0;   ///< LabelingOptions::fraction
  uint64_t min_labeling_points = 0; ///< LabelingOptions::min_labeling_points
  uint64_t labeling_seed = 0;       ///< LabelingOptions::seed

  bool operator==(const CheckpointFingerprint&) const = default;
};

/// Everything a resumed pipeline needs: the run fingerprint, the sample
/// phase outputs (rows, transactions, clustering, merge history, stats),
/// and the labeling progress over a pinned shard plan. The clustering's
/// member lists are serialized verbatim — TransactionLabeler::Build's RNG
/// draws index into them, so rebuilding them from the assignment vector
/// would change the labeling sets.
struct PipelineCheckpoint {
  CheckpointFingerprint fingerprint;

  // Sample phase (store order).
  std::vector<uint64_t> sample_rows;
  std::vector<Transaction> sample;
  Clustering clustering;
  std::vector<MergeRecord> merges;
  RockStats stats;

  // Labeling progress. `num_shards` pins the shard plan so a resumed run
  // replans identical boundaries at any thread count; the per-shard
  // vectors have one entry per planned shard, and `assignments` /
  // `ground_truth` cover every store row (only completed shards' rows are
  // meaningful).
  uint64_t num_shards = 0;
  std::vector<uint8_t> shard_done;
  std::vector<TransactionLabeler::AssignStats> shard_stats;
  std::vector<uint64_t> shard_outliers;
  std::vector<ClusterIndex> assignments;
  std::vector<LabelId> ground_truth;
};

/// Serializers shared by the checkpoint and the model bundle
/// (core/model_bundle.h), so the two formats lay out a fingerprint and a
/// transaction list identically. The fingerprint is its 11 fields in
/// declaration order.
void WriteFingerprint(ByteWriter& w, const CheckpointFingerprint& fp);
Status ReadFingerprint(ByteReader& r, CheckpointFingerprint* fp);

/// Transaction list: u64 count, then per transaction u32 n and n × u32
/// item ids. A transaction over kMaxTransactionItems is InvalidArgument
/// and nothing is written for it.
Status WriteTransactions(ByteWriter& w, const std::vector<Transaction>& txs);

/// Reads a list written by WriteTransactions into `txs`. A count or length
/// the remaining payload cannot hold, or a length over
/// kMaxTransactionItems, is Corruption.
Status ReadTransactions(ByteReader& r, std::vector<Transaction>* txs);

/// Atomically writes `checkpoint` to `path` (tmp + rename). Consults the
/// "pipeline.checkpoint" failpoint site; see the header comment for the
/// torn_write / crash shapes it injects.
Status SaveCheckpoint(const PipelineCheckpoint& checkpoint,
                      const std::string& path);

/// Reads and validates a checkpoint. Missing file → IOError; wrong magic,
/// wrong version, truncation, trailing bytes, checksum mismatch, any
/// implausible payload field, or a clustering that does not index the
/// sample (member or assignment out of range) → Corruption. Consults
/// "checkpoint.load".
Result<PipelineCheckpoint> LoadCheckpoint(const std::string& path);

}  // namespace rock

#endif  // ROCK_CORE_CHECKPOINT_H_
