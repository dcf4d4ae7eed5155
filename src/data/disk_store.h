// librock — data/disk_store.h
//
// On-disk transaction store backing the paper's Figure 2 pipeline: the
// database lives on disk; ROCK draws a random sample into memory, clusters
// it, and then *streams* the remaining data from disk through the labeling
// phase without ever materializing the whole database in memory.
//
// Format (little-endian, fixed magic + version header):
//   [u64 magic][u32 version][u64 count][u32 crc32]          (version 2)
//   [… same …][u64 generation][u64 base_count]              (version 3)
//   count × { u32 label; u32 n; n × u32 item; }
// `label` is the ground-truth class id (kNoLabel when absent) — carried for
// evaluation (Table 6 counts misclassified transactions), never consulted by
// the clustering code.
//
// Integrity (version 2, docs/ROBUSTNESS.md): `crc32` covers every record
// byte after the header. Whole-file readers (Open) verify it — and reject
// trailing bytes — once the last record is consumed, so truncation, bit
// flips and appended garbage surface as Corruption. Range readers
// (OpenRange) stream a slice and cannot verify the whole-file checksum; the
// labeling phase relies on per-record bounds plus the shard row counts
// instead. I/O paths carry the "store.read" / "store.append" failpoint
// sites (util/failpoint.h) so the fault tests can inject errors, short
// reads and torn writes deterministically.
//
// Version 3 (streaming, docs/DESIGN.md §11) adds two generation-stamp
// fields: `generation` counts AppendToStore commits (0 for a freshly
// written store) and `base_count` is the row count before the most recent
// append — rows [base_count, count) are the latest appended batch. Readers
// accept both versions (a v2 file reads as generation 0). Appends are
// crash-safe: the whole store is re-written to "<path>.append.tmp" (the
// copied payload's CRC is re-verified before anything new is added), the
// new records go through the same "store.append" failpoint site as the
// writer, and the final rename consults "store.commit" — a crash at either
// site leaves the original store untouched, so a retried append never
// duplicates rows.

#ifndef ROCK_DATA_DISK_STORE_H_
#define ROCK_DATA_DISK_STORE_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/transaction.h"
#include "util/checksum.h"

namespace rock {

/// One contiguous row range of a transaction store, resolved to its byte
/// offset so a reader can seek straight to it. Produced by
/// TransactionStoreReader::PlanShards; consumed by OpenRange. The labeling
/// phase fans these out over worker threads (core/labeling.h).
struct StoreShardRange {
  uint64_t byte_offset = 0;  ///< file offset of the range's first record
  uint64_t first_row = 0;    ///< store row index of that record
  uint64_t num_rows = 0;     ///< records in the range
};

/// Sequential writer for a transaction store file.
class TransactionStoreWriter {
 public:
  /// Creates/truncates the file and writes the header.
  static Result<TransactionStoreWriter> Open(const std::string& path);

  TransactionStoreWriter(TransactionStoreWriter&&) = default;
  TransactionStoreWriter& operator=(TransactionStoreWriter&&) = default;
  ~TransactionStoreWriter();

  /// Appends one transaction with an optional ground-truth label. A
  /// transaction over kMaxTransactionItems is InvalidArgument, refused
  /// before anything is written.
  Status Append(const Transaction& tx, LabelId label = kNoLabel);

  /// Back-patches the record count into the header and closes the file.
  Status Finish();

  /// Number of transactions appended so far.
  uint64_t count() const { return count_; }

 private:
  explicit TransactionStoreWriter(std::FILE* f) : file_(f, &std::fclose) {}

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  uint64_t count_ = 0;
  bool finished_ = false;
  Crc32Accumulator crc_;  ///< running checksum of the record bytes
};

/// Streaming reader. Usage:
///   auto r = TransactionStoreReader::Open(path);
///   while (r->Next()) { use r->transaction(), r->label(); }
///   ROCK_RETURN_IF_ERROR(r->status());
class TransactionStoreReader {
 public:
  /// Opens the file and validates the header.
  static Result<TransactionStoreReader> Open(const std::string& path);

  /// Opens a reader scoped to `range` (from PlanShards): it starts at the
  /// range's byte offset and Next() ends after `range.num_rows` records.
  /// count() returns the range size; Rewind() returns to the range start.
  static Result<TransactionStoreReader> OpenRange(const std::string& path,
                                                  const StoreShardRange& range);

  /// Splits the store into at most `max_shards` contiguous, near-equal row
  /// ranges whose byte offsets are resolved with one cheap header-skipping
  /// scan (no item payload is read). Returns fewer ranges when the store
  /// has fewer rows than `max_shards`, and none for an empty store. The
  /// ranges cover every row exactly once, in store order.
  static Result<std::vector<StoreShardRange>> PlanShards(
      const std::string& path, uint64_t max_shards);

  TransactionStoreReader(TransactionStoreReader&&) = default;
  TransactionStoreReader& operator=(TransactionStoreReader&&) = default;

  /// Advances to the next transaction. Returns false at end-of-stream or on
  /// error (check status() to distinguish).
  bool Next();

  /// The current transaction (valid after Next() returned true).
  const Transaction& transaction() const { return current_; }

  /// Ground-truth label of the current transaction (kNoLabel if absent).
  LabelId label() const { return label_; }

  /// OK unless a read error or corruption was encountered.
  const Status& status() const { return status_; }

  /// Total number of transactions this reader will yield: the header count
  /// for Open(), the range size for OpenRange().
  uint64_t count() const { return count_; }

  /// Append-commit generation of the file (0 for a freshly written store
  /// and for version-2 files, which predate the stamp).
  uint64_t generation() const { return generation_; }

  /// Row count before the most recent append: rows [base_count, count) are
  /// the latest appended batch. Equals the header count when the store has
  /// never been appended to.
  uint64_t base_count() const { return base_count_; }

  /// Rewinds the stream to its first transaction — the file's first record
  /// for Open(), the range start for OpenRange(). (Labeling makes one pass,
  /// but multi-θ experiments rescan the same store.)
  Status Rewind();

 private:
  explicit TransactionStoreReader(std::FILE* f) : file_(f, &std::fclose) {}

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
  uint64_t count_ = 0;
  uint64_t read_ = 0;
  uint64_t generation_ = 0;
  uint64_t base_count_ = 0;
  long start_offset_ = 0;  ///< byte offset Next() starts/rewinds at
  Transaction current_;
  LabelId label_ = kNoLabel;
  Status status_;
  /// Whole-file readers verify the header checksum and reject trailing
  /// bytes once the stream is exhausted; range readers skip both.
  bool verify_full_ = false;
  bool end_checked_ = false;
  uint32_t expected_crc_ = 0;
  Crc32Accumulator crc_;
};

/// Outcome of one committed AppendToStore call.
struct StoreAppendResult {
  uint64_t base_count = 0;  ///< rows before the append
  uint64_t new_count = 0;   ///< rows after the append
  uint64_t generation = 0;  ///< generation stamp of the committed file
};

/// Atomically appends `rows` (with optional per-row ground-truth `labels`,
/// nullptr = all kNoLabel) to the store at `path`.
///
/// The append is copy-on-write: the existing records are streamed to
/// "<path>.append.tmp" while their CRC is re-verified (a corrupt store is
/// refused, never extended), the new records are written through the
/// "store.append" failpoint site, the header is stamped with the new
/// count/CRC, generation+1 and base_count = old count, and the tmp file is
/// renamed over `path` after consulting "store.commit". Any failure or
/// crash before the rename leaves the original store byte-identical, so
/// retrying the append after a crash cannot duplicate rows. A row over
/// kMaxTransactionItems is InvalidArgument before any file is touched.
Result<StoreAppendResult> AppendToStore(const std::string& path,
                                        const std::vector<Transaction>& rows,
                                        const std::vector<LabelId>* labels);

/// Writes an in-memory dataset to a store file (convenience for tests and
/// the synthetic-data benches).
Status WriteDatasetToStore(const TransactionDataset& dataset,
                           const std::string& path);

/// Reads an entire store into memory (convenience; the labeling phase itself
/// streams instead).
Result<TransactionDataset> ReadStoreToDataset(const std::string& path,
                                              const LabelSet* label_names);

}  // namespace rock

#endif  // ROCK_DATA_DISK_STORE_H_
