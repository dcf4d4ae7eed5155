#include "core/checkpoint.h"

namespace rock {

namespace {

constexpr SealedFormat kCheckpointFormat{
    0x524f434b434b5054ULL,  // "ROCKCKPT"
    /*version=*/1, /*min_version=*/1, "pipeline.checkpoint", "checkpoint.load",
    "pipeline checkpoint"};

constexpr char kReaderContext[] = "checkpoint payload";

void WriteStats(ByteWriter& w, const RockStats& s) {
  w.Pod(static_cast<uint64_t>(s.num_points));
  w.Pod(static_cast<uint64_t>(s.num_pruned_points));
  w.Pod(static_cast<uint64_t>(s.num_weeded_clusters));
  w.Pod(static_cast<uint64_t>(s.num_weeded_points));
  w.Pod(static_cast<uint64_t>(s.num_merges));
  w.Pod(s.average_degree);
  w.Pod(static_cast<uint64_t>(s.max_degree));
  w.Pod(s.neighbor_seconds);
  w.Pod(s.link_seconds);
  w.Pod(s.merge_seconds);
  w.Pod(s.total_seconds);
  w.Pod(s.criterion_value);
}

Status ReadStats(ByteReader& r, RockStats* s) {
  uint64_t u = 0;
  ROCK_RETURN_IF_ERROR(r.Pod(&u));
  s->num_points = static_cast<size_t>(u);
  ROCK_RETURN_IF_ERROR(r.Pod(&u));
  s->num_pruned_points = static_cast<size_t>(u);
  ROCK_RETURN_IF_ERROR(r.Pod(&u));
  s->num_weeded_clusters = static_cast<size_t>(u);
  ROCK_RETURN_IF_ERROR(r.Pod(&u));
  s->num_weeded_points = static_cast<size_t>(u);
  ROCK_RETURN_IF_ERROR(r.Pod(&u));
  s->num_merges = static_cast<size_t>(u);
  ROCK_RETURN_IF_ERROR(r.Pod(&s->average_degree));
  ROCK_RETURN_IF_ERROR(r.Pod(&u));
  s->max_degree = static_cast<size_t>(u);
  ROCK_RETURN_IF_ERROR(r.Pod(&s->neighbor_seconds));
  ROCK_RETURN_IF_ERROR(r.Pod(&s->link_seconds));
  ROCK_RETURN_IF_ERROR(r.Pod(&s->merge_seconds));
  ROCK_RETURN_IF_ERROR(r.Pod(&s->total_seconds));
  return r.Pod(&s->criterion_value);
}

Status SerializePayload(const PipelineCheckpoint& cp, ByteWriter& w) {
  WriteFingerprint(w, cp.fingerprint);
  w.Array(cp.sample_rows);
  ROCK_RETURN_IF_ERROR(WriteTransactions(w, cp.sample));
  w.Array(cp.clustering.assignment);
  w.Pod(static_cast<uint64_t>(cp.clustering.clusters.size()));
  for (const auto& members : cp.clustering.clusters) w.Array(members);

  w.Pod(static_cast<uint64_t>(cp.merges.size()));
  for (const MergeRecord& m : cp.merges) {
    w.Pod(m.left);
    w.Pod(m.right);
    w.Pod(m.merged);
    w.Pod(m.goodness);
    w.Pod(static_cast<uint64_t>(m.new_size));
  }
  WriteStats(w, cp.stats);

  w.Pod(cp.num_shards);
  w.Write(cp.shard_done.data(), cp.shard_done.size());
  for (const auto& s : cp.shard_stats) {
    w.Pod(s.clusters_pruned);
    w.Pod(s.clusters_scored);
    w.Pod(s.points_skipped_length);
    w.Pod(s.similarities_computed);
  }
  for (uint64_t o : cp.shard_outliers) w.Pod(o);
  w.Array(cp.assignments);
  w.Array(cp.ground_truth);
  return Status::OK();
}

Status ParsePayload(ByteReader& r, PipelineCheckpoint* cp) {
  ROCK_RETURN_IF_ERROR(ReadFingerprint(r, &cp->fingerprint));
  ROCK_RETURN_IF_ERROR(r.Array(&cp->sample_rows));
  ROCK_RETURN_IF_ERROR(ReadTransactions(r, &cp->sample));
  ROCK_RETURN_IF_ERROR(r.Array(&cp->clustering.assignment));
  uint64_t count = 0;
  ROCK_RETURN_IF_ERROR(r.Pod(&count));
  if (count > r.Remaining()) {  // every cluster takes ≥ 8 bytes
    return Status::Corruption("implausible checkpoint cluster count");
  }
  cp->clustering.clusters.clear();
  cp->clustering.clusters.resize(static_cast<size_t>(count));
  for (auto& members : cp->clustering.clusters) {
    ROCK_RETURN_IF_ERROR(r.Array(&members));
  }

  ROCK_RETURN_IF_ERROR(r.Pod(&count));
  if (count > r.Remaining()) {  // every merge record takes ≥ 28 bytes
    return Status::Corruption("implausible checkpoint merge count");
  }
  cp->merges.clear();
  cp->merges.resize(static_cast<size_t>(count));
  for (MergeRecord& m : cp->merges) {
    uint64_t new_size = 0;
    ROCK_RETURN_IF_ERROR(r.Pod(&m.left));
    ROCK_RETURN_IF_ERROR(r.Pod(&m.right));
    ROCK_RETURN_IF_ERROR(r.Pod(&m.merged));
    ROCK_RETURN_IF_ERROR(r.Pod(&m.goodness));
    ROCK_RETURN_IF_ERROR(r.Pod(&new_size));
    m.new_size = static_cast<size_t>(new_size);
  }
  ROCK_RETURN_IF_ERROR(ReadStats(r, &cp->stats));

  ROCK_RETURN_IF_ERROR(r.Pod(&cp->num_shards));
  if (cp->num_shards > r.Remaining()) {  // ≥ 1 byte per shard follows
    return Status::Corruption("implausible checkpoint shard count");
  }
  const size_t shards = static_cast<size_t>(cp->num_shards);
  cp->shard_done.resize(shards);
  ROCK_RETURN_IF_ERROR(r.Read(cp->shard_done.data(), shards));
  cp->shard_stats.clear();
  cp->shard_stats.resize(shards);
  for (auto& s : cp->shard_stats) {
    ROCK_RETURN_IF_ERROR(r.Pod(&s.clusters_pruned));
    ROCK_RETURN_IF_ERROR(r.Pod(&s.clusters_scored));
    ROCK_RETURN_IF_ERROR(r.Pod(&s.points_skipped_length));
    ROCK_RETURN_IF_ERROR(r.Pod(&s.similarities_computed));
  }
  cp->shard_outliers.resize(shards);
  for (auto& o : cp->shard_outliers) {
    ROCK_RETURN_IF_ERROR(r.Pod(&o));
  }
  ROCK_RETURN_IF_ERROR(r.Array(&cp->assignments));
  ROCK_RETURN_IF_ERROR(r.Array(&cp->ground_truth));

  if (r.Remaining() != 0) {
    return Status::Corruption("trailing bytes after checkpoint payload");
  }

  // Cross-field consistency: the shard vectors and row arrays must agree
  // with the counts the fingerprint pins, or resume would index out of
  // bounds.
  if (cp->assignments.size() != cp->fingerprint.store_count ||
      cp->ground_truth.size() != cp->fingerprint.store_count) {
    return Status::Corruption(
        "checkpoint row arrays do not match the store count");
  }
  if (cp->sample.size() != cp->sample_rows.size()) {
    return Status::Corruption(
        "checkpoint sample rows and transactions disagree");
  }
  for (uint64_t row : cp->sample_rows) {
    if (row >= cp->fingerprint.store_count) {
      return Status::Corruption("checkpoint sample row outside the store");
    }
  }
  // The clustering indexes the sample: TransactionLabeler::Build reads
  // sample[member] for every cluster member, unchecked.
  const size_t n = cp->sample.size();
  if (cp->clustering.assignment.size() != n) {
    return Status::Corruption(
        "checkpoint clustering does not cover the sample");
  }
  const size_t num_clusters = cp->clustering.clusters.size();
  for (ClusterIndex c : cp->clustering.assignment) {
    if (c != kUnassigned &&
        (c < 0 || static_cast<size_t>(c) >= num_clusters)) {
      return Status::Corruption("checkpoint assignment names no cluster");
    }
  }
  for (const auto& members : cp->clustering.clusters) {
    for (PointIndex p : members) {
      if (p >= n) {
        return Status::Corruption(
            "checkpoint cluster member outside the sample");
      }
    }
  }
  return Status::OK();
}

}  // namespace

void WriteFingerprint(ByteWriter& w, const CheckpointFingerprint& fp) {
  w.Pod(fp.store_count);
  w.Pod(fp.theta);
  w.Pod(fp.num_clusters);
  w.Pod(fp.min_neighbors);
  w.Pod(fp.outlier_stop_multiple);
  w.Pod(fp.min_cluster_support);
  w.Pod(fp.sample_size);
  w.Pod(fp.sample_seed);
  w.Pod(fp.labeling_fraction);
  w.Pod(fp.min_labeling_points);
  w.Pod(fp.labeling_seed);
}

Status ReadFingerprint(ByteReader& r, CheckpointFingerprint* fp) {
  ROCK_RETURN_IF_ERROR(r.Pod(&fp->store_count));
  ROCK_RETURN_IF_ERROR(r.Pod(&fp->theta));
  ROCK_RETURN_IF_ERROR(r.Pod(&fp->num_clusters));
  ROCK_RETURN_IF_ERROR(r.Pod(&fp->min_neighbors));
  ROCK_RETURN_IF_ERROR(r.Pod(&fp->outlier_stop_multiple));
  ROCK_RETURN_IF_ERROR(r.Pod(&fp->min_cluster_support));
  ROCK_RETURN_IF_ERROR(r.Pod(&fp->sample_size));
  ROCK_RETURN_IF_ERROR(r.Pod(&fp->sample_seed));
  ROCK_RETURN_IF_ERROR(r.Pod(&fp->labeling_fraction));
  ROCK_RETURN_IF_ERROR(r.Pod(&fp->min_labeling_points));
  return r.Pod(&fp->labeling_seed);
}

Status WriteTransactions(ByteWriter& w, const std::vector<Transaction>& txs) {
  w.Pod(static_cast<uint64_t>(txs.size()));
  for (const Transaction& tx : txs) {
    if (tx.size() > kMaxTransactionItems) {
      return Status::InvalidArgument(
          "transaction has " + std::to_string(tx.size()) +
          " items; persisted formats cap transactions at " +
          std::to_string(kMaxTransactionItems));
    }
    w.Pod(static_cast<uint32_t>(tx.size()));
    w.Write(tx.items().data(), tx.size() * sizeof(ItemId));
  }
  return Status::OK();
}

Status ReadTransactions(ByteReader& r, std::vector<Transaction>* txs) {
  uint64_t count = 0;
  ROCK_RETURN_IF_ERROR(r.Pod(&count));
  // Every transaction takes at least its 4-byte length.
  if (count > r.Remaining() / sizeof(uint32_t)) {
    return Status::Corruption(std::string("implausible transaction count in ") +
                              r.context);
  }
  txs->clear();
  txs->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t n = 0;
    ROCK_RETURN_IF_ERROR(r.Pod(&n));
    if (n > kMaxTransactionItems ||
        static_cast<size_t>(n) * sizeof(ItemId) > r.Remaining()) {
      return Status::Corruption(
          std::string("implausible transaction length in ") + r.context);
    }
    std::vector<ItemId> items(n);
    ROCK_RETURN_IF_ERROR(r.Read(items.data(), n * sizeof(ItemId)));
    txs->emplace_back(std::move(items));
  }
  return Status::OK();
}

Status SaveCheckpoint(const PipelineCheckpoint& checkpoint,
                      const std::string& path) {
  ByteWriter payload;
  ROCK_RETURN_IF_ERROR(SerializePayload(checkpoint, payload));
  return SaveSealedFile(kCheckpointFormat, payload.buf, path);
}

Result<PipelineCheckpoint> LoadCheckpoint(const std::string& path) {
  Result<SealedFile> file = LoadSealedFile(kCheckpointFormat, path);
  if (!file.ok()) return file.status();
  ByteReader r = file->Payload(kReaderContext);
  PipelineCheckpoint cp;
  ROCK_RETURN_IF_ERROR(ParsePayload(r, &cp));
  return cp;
}

}  // namespace rock
