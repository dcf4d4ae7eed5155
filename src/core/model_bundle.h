// librock — core/model_bundle.h
//
// The serve-side artifact of the build/serve split (docs/DESIGN.md §9):
// everything a label server needs to answer "which cluster is this
// transaction?" without re-clustering — the labeling sets L_i, θ, the
// normalization exponent f(θ), the item dictionary, and the fingerprint of
// the run that produced them. `rock build` writes one; `rock serve` /
// `rock query` load it once and answer queries via the §4.6 ScanCount
// labeler.
//
// File format (little-endian): a sealed file (util/bytes.h), the envelope
// the pipeline checkpoint uses too:
//   [u64 magic "ROCKMODL"][u32 version = 2][u64 payload_size][u32 crc32]
//   payload_size × u8 payload
// `crc32` covers the payload. The payload is:
//   fingerprint (the 11 CheckpointFingerprint fields, checkpoint order)
//   f64 theta, f64 f_exponent
//   u64 num_clusters; per cluster: a transaction list (core/checkpoint.h:
//       u64 set_size; per transaction: u32 n, n × u32 item ids)
//   u64 dict_size; per entry: u32 len, len × u8 name bytes
//   — version 2 appends the build-time profile (the drift baseline) —
//   u64 profile_rows; f64 outlier_share; f64 mean_score;
//   u64 num_clusters; per cluster: f64 share, f64 mean_neighbors
// An empty dictionary is legal — stores persist only item ids, so bundles
// built straight from a store answer queries in id-mode (queries are
// numeric item ids, not names). Version-1 bundles (no profile section)
// still load; their profile reads as empty (rows = 0) and streaming
// sessions simply run without a drift baseline.
//
// Writes are atomic-by-rename ("<path>.tmp" then rename) and consult the
// "model.save" failpoint site with the same torn_write / crash shapes as
// "pipeline.checkpoint"; loads consult "model.load". Wrong magic/version,
// truncation, trailing bytes, checksum mismatches and implausible counts
// are all Corruption — a damaged bundle is refused, never served. A
// labeling transaction over kMaxTransactionItems is refused on save
// (InvalidArgument). The bundle is the only on-disk form of a
// TransactionLabeler.

#ifndef ROCK_CORE_MODEL_BUNDLE_H_
#define ROCK_CORE_MODEL_BUNDLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/checkpoint.h"
#include "data/transaction.h"

namespace rock {

/// The model's build-time behavior baseline: how the §4.6 labeler assigned
/// the very sample it was built from. BuildModel computes it by running
/// AssignDetailed over every sample row; the drift detector (eval/drift.h)
/// compares the same statistics over newly appended rows against it.
struct ModelProfile {
  /// Sample rows profiled. 0 = no profile (version-1 bundle).
  uint64_t rows = 0;
  /// Fraction of profiled rows labeled kUnassigned.
  double outlier_share = 0.0;
  /// Mean winning score over assigned (non-outlier) rows.
  double mean_score = 0.0;
  /// Per-cluster fraction of profiled rows (sums to 1 - outlier_share).
  std::vector<double> cluster_share;
  /// Per-cluster mean winning neighbor count N_i(p) over the rows assigned
  /// to that cluster (0 for clusters that won no row).
  std::vector<double> mean_neighbors;

  bool empty() const { return rows == 0; }

  /// Profile-wide mean winning neighbor count, weighted by cluster share
  /// (the share mass excludes outliers). 0 when everything was an outlier.
  double OverallMeanNeighbors() const;
};

/// A persisted clustered model: the output of BuildModel, the input of the
/// serve layer.
struct ModelBundle {
  /// Identity of the build run (store count, θ, k, seeds, sampling setup).
  /// Lets a server refuse a bundle built against a different store than
  /// the one it is asked to cross-check against.
  CheckpointFingerprint fingerprint;

  /// Neighbor threshold θ and normalization exponent f(θ) the labeling
  /// sets were built with.
  double theta = 0.0;
  double f_exponent = 0.0;

  /// Labeling sets L_i, one per cluster (paper §4.6).
  std::vector<std::vector<Transaction>> labeling_sets;

  /// Item id → name, from the dataset dictionary when the model was built
  /// from an in-memory dataset. Empty when built from a bare store (stores
  /// persist ids only) — queries are then numeric ids.
  std::vector<std::string> dictionary;

  /// Build-time assignment baseline for drift detection (empty when loaded
  /// from a version-1 bundle).
  ModelProfile profile;
};

/// Atomically writes `bundle` to `path` (tmp + rename). Consults the
/// "model.save" failpoint site.
Status SaveModelBundle(const ModelBundle& bundle, const std::string& path);

/// Reads and validates a bundle. Missing file → IOError; wrong
/// magic/version, truncation, trailing bytes, checksum mismatch, or any
/// implausible payload field → Corruption. Consults "model.load".
Result<ModelBundle> LoadModelBundle(const std::string& path);

}  // namespace rock

#endif  // ROCK_CORE_MODEL_BUNDLE_H_
