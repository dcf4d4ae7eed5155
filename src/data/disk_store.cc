#include "data/disk_store.h"

#include <algorithm>
#include <cstring>

#include "util/failpoint.h"

namespace rock {

namespace {

constexpr uint64_t kMagic = 0x524f434b53544f52ULL;  // "ROCKSTOR"
// Version 2 added the header crc32 over the record bytes; version 3 added
// the generation / base_count append stamps. Writers emit version 3;
// readers accept both (a v2 header reads as generation 0).
constexpr uint32_t kVersion = 3;
constexpr uint32_t kMinVersion = 2;
constexpr long kCountOffset = sizeof(uint64_t) + sizeof(uint32_t);
constexpr long kCrcOffset = kCountOffset + static_cast<long>(sizeof(uint64_t));
constexpr long kHeaderSizeV2 = kCrcOffset + static_cast<long>(sizeof(uint32_t));
constexpr long kHeaderSize = kHeaderSizeV2 + 2 * static_cast<long>(sizeof(uint64_t));

Status WriteRaw(std::FILE* f, const void* data, size_t n) {
  if (std::fwrite(data, 1, n, f) != n) {
    return Status::IOError("short write to transaction store");
  }
  return Status::OK();
}

Status ReadRaw(std::FILE* f, void* data, size_t n) {
  if (std::fread(data, 1, n, f) != n) {
    return Status::Corruption("short read from transaction store");
  }
  return Status::OK();
}

Status OversizeTransaction(const Transaction& tx) {
  return Status::InvalidArgument(
      "transaction has " + std::to_string(tx.size()) +
      " items; stores cap transactions at " +
      std::to_string(kMaxTransactionItems));
}

/// Parsed store header: everything before the first record.
struct StoreHeader {
  uint64_t count = 0;
  uint32_t crc = 0;
  uint64_t generation = 0;
  uint64_t base_count = 0;
  long header_size = kHeaderSize;  ///< byte offset of the first record
};

/// Validates magic + version at the current position and reads the header
/// fields. Version-2 files carry no append stamps: generation reads as 0
/// and base_count as the record count.
Status ReadHeader(std::FILE* f, const std::string& path, StoreHeader* h) {
  uint64_t magic = 0;
  uint32_t version = 0;
  ROCK_RETURN_IF_ERROR(ReadRaw(f, &magic, sizeof(magic)));
  if (magic != kMagic) {
    return Status::Corruption("'" + path + "' is not a transaction store");
  }
  ROCK_RETURN_IF_ERROR(ReadRaw(f, &version, sizeof(version)));
  if (version < kMinVersion || version > kVersion) {
    return Status::Corruption("unsupported store version " +
                              std::to_string(version));
  }
  ROCK_RETURN_IF_ERROR(ReadRaw(f, &h->count, sizeof(h->count)));
  ROCK_RETURN_IF_ERROR(ReadRaw(f, &h->crc, sizeof(h->crc)));
  if (version >= 3) {
    ROCK_RETURN_IF_ERROR(ReadRaw(f, &h->generation, sizeof(h->generation)));
    ROCK_RETURN_IF_ERROR(ReadRaw(f, &h->base_count, sizeof(h->base_count)));
    if (h->base_count > h->count) {
      return Status::Corruption("implausible store base count");
    }
    h->header_size = kHeaderSize;
  } else {
    h->generation = 0;
    h->base_count = h->count;
    h->header_size = kHeaderSizeV2;
  }
  return Status::OK();
}

}  // namespace

Result<TransactionStoreWriter> TransactionStoreWriter::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot create '" + path + "'");
  }
  TransactionStoreWriter writer(f);
  uint64_t count_placeholder = 0;
  uint32_t crc_placeholder = 0;
  uint64_t generation = 0;
  uint64_t base_placeholder = 0;
  Status s = WriteRaw(f, &kMagic, sizeof(kMagic));
  if (s.ok()) s = WriteRaw(f, &kVersion, sizeof(kVersion));
  if (s.ok()) s = WriteRaw(f, &count_placeholder, sizeof(count_placeholder));
  if (s.ok()) s = WriteRaw(f, &crc_placeholder, sizeof(crc_placeholder));
  if (s.ok()) s = WriteRaw(f, &generation, sizeof(generation));
  if (s.ok()) s = WriteRaw(f, &base_placeholder, sizeof(base_placeholder));
  if (!s.ok()) return s;
  return writer;
}

TransactionStoreWriter::~TransactionStoreWriter() = default;

Status TransactionStoreWriter::Append(const Transaction& tx, LabelId label) {
  if (finished_) {
    return Status::FailedPrecondition("Append after Finish");
  }
  if (tx.size() > kMaxTransactionItems) {
    return OversizeTransaction(tx);
  }
  std::FILE* f = file_.get();
  uint32_t n = static_cast<uint32_t>(tx.size());
  // Failpoint "store.append": the torn variant persists a prefix of the
  // item payload, leaving the file exactly as a writer crash would.
  ROCK_RETURN_IF_ERROR(
      fail::ConsultWrite("store.append", f, tx.items().data(),
                         static_cast<size_t>(n) * sizeof(ItemId)));
  ROCK_RETURN_IF_ERROR(WriteRaw(f, &label, sizeof(label)));
  ROCK_RETURN_IF_ERROR(WriteRaw(f, &n, sizeof(n)));
  if (n > 0) {
    ROCK_RETURN_IF_ERROR(
        WriteRaw(f, tx.items().data(), n * sizeof(ItemId)));
  }
  crc_.Update(&label, sizeof(label));
  crc_.Update(&n, sizeof(n));
  if (n > 0) crc_.Update(tx.items().data(), n * sizeof(ItemId));
  ++count_;
  return Status::OK();
}

Status TransactionStoreWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  std::FILE* f = file_.get();
  if (std::fseek(f, kCountOffset, SEEK_SET) != 0) {
    return Status::IOError("seek failure finalizing store");
  }
  ROCK_RETURN_IF_ERROR(WriteRaw(f, &count_, sizeof(count_)));
  const uint32_t crc = crc_.value();
  ROCK_RETURN_IF_ERROR(WriteRaw(f, &crc, sizeof(crc)));
  // Generation stays 0 for a fresh store; base_count = count means "no
  // appended batch yet" (the count/crc/generation/base fields are
  // contiguous, so this continues the same back-patch write).
  const uint64_t generation = 0;
  ROCK_RETURN_IF_ERROR(WriteRaw(f, &generation, sizeof(generation)));
  ROCK_RETURN_IF_ERROR(WriteRaw(f, &count_, sizeof(count_)));
  if (std::fflush(f) != 0) {
    return Status::IOError("flush failure finalizing store");
  }
  file_.reset();
  return Status::OK();
}

Result<TransactionStoreReader> TransactionStoreReader::Open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "'");
  }
  TransactionStoreReader reader(f);
  ROCK_RETURN_IF_ERROR(fail::ConsultRead("store.open"));
  StoreHeader h;
  ROCK_RETURN_IF_ERROR(ReadHeader(f, path, &h));
  reader.count_ = h.count;
  reader.expected_crc_ = h.crc;
  reader.generation_ = h.generation;
  reader.base_count_ = h.base_count;
  reader.start_offset_ = h.header_size;
  reader.verify_full_ = true;
  return reader;
}

Result<TransactionStoreReader> TransactionStoreReader::OpenRange(
    const std::string& path, const StoreShardRange& range) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "'");
  }
  TransactionStoreReader reader(f);
  ROCK_RETURN_IF_ERROR(fail::ConsultRead("store.open"));
  StoreHeader h;
  ROCK_RETURN_IF_ERROR(ReadHeader(f, path, &h));
  if (range.byte_offset < static_cast<uint64_t>(h.header_size) ||
      range.first_row + range.num_rows > h.count) {
    return Status::InvalidArgument("shard range does not fit the store");
  }
  if (std::fseek(f, static_cast<long>(range.byte_offset), SEEK_SET) != 0) {
    return Status::IOError("seek failure opening store range");
  }
  reader.count_ = range.num_rows;
  reader.generation_ = h.generation;
  reader.base_count_ = h.base_count;
  reader.start_offset_ = static_cast<long>(range.byte_offset);
  return reader;
}

Result<std::vector<StoreShardRange>> TransactionStoreReader::PlanShards(
    const std::string& path, uint64_t max_shards) {
  if (max_shards == 0) {
    return Status::InvalidArgument("max_shards must be > 0");
  }
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return Status::IOError("cannot open '" + path + "'");
  }
  std::FILE* f = file.get();
  ROCK_RETURN_IF_ERROR(fail::ConsultRead("store.open"));
  StoreHeader h;
  ROCK_RETURN_IF_ERROR(ReadHeader(f, path, &h));
  const uint64_t count = h.count;

  std::vector<StoreShardRange> shards;
  if (count == 0) return shards;
  const uint64_t num_shards = std::min<uint64_t>(max_shards, count);
  // Rows r in [s·count/S, (s+1)·count/S) go to shard s: near-equal ranges
  // whose boundaries we resolve to byte offsets during one header-skipping
  // scan of the record stream.
  uint64_t offset = static_cast<uint64_t>(h.header_size);
  uint64_t next_shard = 0;
  for (uint64_t row = 0; row < count; ++row) {
    if (row == next_shard * count / num_shards) {
      const uint64_t end = (next_shard + 1) * count / num_shards;
      shards.push_back(StoreShardRange{offset, row, end - row});
      ++next_shard;
    }
    uint32_t n = 0;
    if (std::fseek(f, static_cast<long>(offset + sizeof(LabelId)),
                   SEEK_SET) != 0) {
      return Status::IOError("seek failure planning store shards");
    }
    ROCK_RETURN_IF_ERROR(ReadRaw(f, &n, sizeof(n)));
    if (n > kMaxTransactionItems) {
      return Status::Corruption("implausible transaction length " +
                                std::to_string(n));
    }
    offset += sizeof(LabelId) + sizeof(uint32_t) +
              static_cast<uint64_t>(n) * sizeof(ItemId);
  }
  return shards;
}

bool TransactionStoreReader::Next() {
  if (!status_.ok()) return false;
  if (read_ >= count_) {
    // Exhausted. Whole-file readers verify the header checksum over every
    // record byte and reject trailing data, once, so corruption anywhere in
    // the payload — and garbage appended past it — surfaces as a non-OK
    // status instead of a silently wrong dataset.
    if (verify_full_ && !end_checked_) {
      end_checked_ = true;
      if (crc_.value() != expected_crc_) {
        status_ = Status::Corruption(
            "transaction store checksum mismatch (bit rot or torn write)");
      } else if (std::fgetc(file_.get()) != EOF) {
        status_ = Status::Corruption(
            "trailing data after the last transaction store record");
      }
    }
    return false;
  }
  if (Status injected = fail::ConsultRead("store.read"); !injected.ok()) {
    status_ = std::move(injected);
    return false;
  }
  std::FILE* f = file_.get();
  uint32_t n = 0;
  status_ = ReadRaw(f, &label_, sizeof(label_));
  if (status_.ok()) status_ = ReadRaw(f, &n, sizeof(n));
  if (status_.ok() && n > kMaxTransactionItems) {
    status_ = Status::Corruption("implausible transaction length " +
                                 std::to_string(n));
  }
  if (!status_.ok()) return false;
  std::vector<ItemId> items(n);
  if (n > 0) {
    status_ = ReadRaw(f, items.data(), n * sizeof(ItemId));
    if (!status_.ok()) return false;
  }
  if (verify_full_) {
    crc_.Update(&label_, sizeof(label_));
    crc_.Update(&n, sizeof(n));
    if (n > 0) crc_.Update(items.data(), n * sizeof(ItemId));
  }
  current_ = Transaction(std::move(items));
  ++read_;
  return true;
}

Status TransactionStoreReader::Rewind() {
  std::FILE* f = file_.get();
  if (std::fseek(f, start_offset_, SEEK_SET) != 0) {
    return Status::IOError("seek failure rewinding store");
  }
  read_ = 0;
  status_ = Status::OK();
  crc_.Reset();
  end_checked_ = false;
  return Status::OK();
}

namespace {

/// The append body: everything up to (but not including) the commit
/// rename. Split out so AppendToStore can clean up the tmp file on any
/// non-crash failure.
Status BuildAppendTmp(const std::string& path, const std::string& tmp,
                      const std::vector<Transaction>& rows,
                      const std::vector<LabelId>* labels,
                      StoreAppendResult* result) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> src(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (src == nullptr) {
    return Status::IOError("cannot open '" + path + "'");
  }
  ROCK_RETURN_IF_ERROR(fail::ConsultRead("store.open"));
  StoreHeader h;
  ROCK_RETURN_IF_ERROR(ReadHeader(src.get(), path, &h));

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> dst(
      std::fopen(tmp.c_str(), "wb"), &std::fclose);
  if (dst == nullptr) {
    return Status::IOError("cannot create '" + tmp + "'");
  }
  std::FILE* out = dst.get();
  const uint64_t zero64 = 0;
  const uint32_t zero32 = 0;
  ROCK_RETURN_IF_ERROR(WriteRaw(out, &kMagic, sizeof(kMagic)));
  ROCK_RETURN_IF_ERROR(WriteRaw(out, &kVersion, sizeof(kVersion)));
  ROCK_RETURN_IF_ERROR(WriteRaw(out, &zero64, sizeof(zero64)));  // count
  ROCK_RETURN_IF_ERROR(WriteRaw(out, &zero32, sizeof(zero32)));  // crc
  ROCK_RETURN_IF_ERROR(WriteRaw(out, &zero64, sizeof(zero64)));  // generation
  ROCK_RETURN_IF_ERROR(WriteRaw(out, &zero64, sizeof(zero64)));  // base_count

  // Stream-copy the existing records, re-accumulating their CRC: a store
  // that fails its own checksum is refused, never extended — appending to
  // rotted bytes would launder the corruption into a "valid" file.
  Crc32Accumulator crc;
  char buf[1 << 16];
  for (;;) {
    const size_t n = std::fread(buf, 1, sizeof(buf), src.get());
    if (n == 0) break;
    crc.Update(buf, n);
    ROCK_RETURN_IF_ERROR(WriteRaw(out, buf, n));
  }
  if (std::ferror(src.get()) != 0) {
    return Status::IOError("read failure copying '" + path + "'");
  }
  if (crc.value() != h.crc) {
    return Status::Corruption(
        "transaction store checksum mismatch (bit rot or torn write); "
        "refusing to append to '" + path + "'");
  }

  // Append the new records through the same failpoint site the writer
  // uses, continuing the running CRC.
  for (size_t i = 0; i < rows.size(); ++i) {
    const Transaction& tx = rows[i];
    const LabelId label = labels == nullptr ? kNoLabel : (*labels)[i];
    const uint32_t n = static_cast<uint32_t>(tx.size());
    ROCK_RETURN_IF_ERROR(
        fail::ConsultWrite("store.append", out, tx.items().data(),
                           static_cast<size_t>(n) * sizeof(ItemId)));
    ROCK_RETURN_IF_ERROR(WriteRaw(out, &label, sizeof(label)));
    ROCK_RETURN_IF_ERROR(WriteRaw(out, &n, sizeof(n)));
    if (n > 0) {
      ROCK_RETURN_IF_ERROR(WriteRaw(out, tx.items().data(),
                                    n * sizeof(ItemId)));
    }
    crc.Update(&label, sizeof(label));
    crc.Update(&n, sizeof(n));
    if (n > 0) crc.Update(tx.items().data(), n * sizeof(ItemId));
  }

  // Back-patch the header: count/crc/generation/base_count are contiguous.
  result->base_count = h.count;
  result->new_count = h.count + rows.size();
  result->generation = h.generation + 1;
  if (std::fseek(out, kCountOffset, SEEK_SET) != 0) {
    return Status::IOError("seek failure finalizing append");
  }
  const uint32_t final_crc = crc.value();
  ROCK_RETURN_IF_ERROR(WriteRaw(out, &result->new_count,
                                sizeof(result->new_count)));
  ROCK_RETURN_IF_ERROR(WriteRaw(out, &final_crc, sizeof(final_crc)));
  ROCK_RETURN_IF_ERROR(WriteRaw(out, &result->generation,
                                sizeof(result->generation)));
  ROCK_RETURN_IF_ERROR(WriteRaw(out, &result->base_count,
                                sizeof(result->base_count)));
  if (std::fflush(out) != 0) {
    return Status::IOError("flush failure finalizing append");
  }
  return Status::OK();
}

}  // namespace

Result<StoreAppendResult> AppendToStore(const std::string& path,
                                        const std::vector<Transaction>& rows,
                                        const std::vector<LabelId>* labels) {
  if (rows.empty()) {
    return Status::InvalidArgument("nothing to append");
  }
  if (labels != nullptr && labels->size() != rows.size()) {
    return Status::InvalidArgument("labels do not cover the appended rows");
  }
  for (const Transaction& tx : rows) {
    if (tx.size() > kMaxTransactionItems) return OversizeTransaction(tx);
  }
  const std::string tmp = path + ".append.tmp";
  StoreAppendResult result;
  Status s = BuildAppendTmp(path, tmp, rows, labels, &result);
  if (s.ok()) {
    // Commit point: "store.commit" models a crash between finishing the
    // tmp file and renaming it — the original store stays byte-identical
    // either way, so a retried append starts from the same state.
    switch (fail::Consult("store.commit")) {
      case fail::Action::kNone:
        break;
      case fail::Action::kCrash:
        return fail::InjectedCrash("store.commit");
      case fail::Action::kError:
      case fail::Action::kShortRead:
      case fail::Action::kTornWrite:
        s = fail::InjectedError("store.commit");
        break;
    }
  }
  if (s.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    s = Status::IOError("cannot rename '" + tmp + "' over '" + path + "'");
  }
  if (!s.ok()) {
    // A live process cleans its tmp up; a simulated crash cannot (the tmp
    // a real crash leaves behind is exactly what the fault tests verify a
    // retry tolerates).
    if (!fail::IsInjectedCrash(s)) std::remove(tmp.c_str());
    return s;
  }
  return result;
}

Status WriteDatasetToStore(const TransactionDataset& dataset,
                           const std::string& path) {
  auto writer = TransactionStoreWriter::Open(path);
  ROCK_RETURN_IF_ERROR(writer.status());
  for (size_t i = 0; i < dataset.size(); ++i) {
    LabelId label =
        dataset.labels().empty() ? kNoLabel : dataset.labels().label(i);
    ROCK_RETURN_IF_ERROR(writer->Append(dataset.transaction(i), label));
  }
  return writer->Finish();
}

Result<TransactionDataset> ReadStoreToDataset(const std::string& path,
                                              const LabelSet* label_names) {
  auto reader = TransactionStoreReader::Open(path);
  ROCK_RETURN_IF_ERROR(reader.status());
  TransactionDataset out;
  while (reader->Next()) {
    out.AddTransaction(reader->transaction());
    LabelId l = reader->label();
    if (l == kNoLabel) {
      out.labels().AppendUnlabeled();
    } else if (label_names != nullptr && l < label_names->num_classes()) {
      out.labels().Append(label_names->Name(l));
    } else {
      out.labels().Append("class" + std::to_string(l));
    }
  }
  ROCK_RETURN_IF_ERROR(reader->status());
  return out;
}

}  // namespace rock
