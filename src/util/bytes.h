// librock — util/bytes.h
//
// Byte-buffer plumbing shared by every versioned+CRC'd on-disk format
// (pipeline checkpoints, model bundles): an appending POD writer, a
// bounds-checked POD reader, whole-file read/write helpers, and the one
// sealed-file envelope both formats are stored in:
//
//   [u64 magic][u32 version][u64 payload_size][u32 crc32]
//   payload_size × u8 payload
//
// `crc32` covers the payload bytes. A payload that passes the envelope can
// still be hostile (a forged count behind a recomputed CRC), so each
// format's parser caps its own counts.
//
// ByteReader treats every overrun as the same Corruption — a truncated or
// tampered payload — tagged with the caller-supplied `context` so the
// error names which format was being parsed.

#ifndef ROCK_UTIL_BYTES_H_
#define ROCK_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace rock {

/// Appends POD fields to an in-memory payload buffer.
struct ByteWriter {
  std::vector<uint8_t> buf;

  void Write(const void* data, size_t n) {
    if (n == 0) return;
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf.insert(buf.end(), p, p + n);
  }
  template <typename T>
  void Pod(const T& v) {
    Write(&v, sizeof(v));
  }
  /// A POD array: u64 count, then the elements' bytes.
  template <typename T>
  void Array(const std::vector<T>& v) {
    Pod(static_cast<uint64_t>(v.size()));
    Write(v.data(), v.size() * sizeof(T));
  }
};

/// Bounds-checked reader over a payload buffer. Every overrun is the same
/// Corruption — a truncated or tampered payload.
struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  const char* context = "payload";  ///< names the format in errors

  Status Read(void* out, size_t n) {
    if (n > size - pos) {
      return Status::Corruption(std::string("truncated ") + context);
    }
    if (n > 0) std::memcpy(out, data + pos, n);
    pos += n;
    return Status::OK();
  }
  template <typename T>
  Status Pod(T* out) {
    return Read(out, sizeof(*out));
  }
  /// Reads an Array; a count the remaining bytes cannot hold is Corruption
  /// before anything is allocated.
  template <typename T>
  Status Array(std::vector<T>* out) {
    uint64_t count = 0;
    ROCK_RETURN_IF_ERROR(Pod(&count));
    if (count > Remaining() / sizeof(T)) {
      return Status::Corruption(std::string("implausible array length in ") +
                                context);
    }
    out->resize(static_cast<size_t>(count));
    return Read(out->data(), out->size() * sizeof(T));
  }
  /// Remaining bytes — used to sanity-check counts before allocating.
  size_t Remaining() const { return size - pos; }
};

/// Writes `n` bytes to `path`, failing on short writes or flush errors.
/// Callers wanting atomicity write to "<path>.tmp" and rename.
Status WriteFileBytes(const std::string& path, const uint8_t* data, size_t n);

/// Reads the whole of `path` into memory. Missing file → IOError.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// Identity of one sealed-file format.
struct SealedFormat {
  uint64_t magic = 0;
  uint32_t version = 0;      ///< version SaveSealedFile writes
  uint32_t min_version = 0;  ///< oldest version LoadSealedFile accepts
  const char* save_site = "";  ///< failpoint consulted by SaveSealedFile
  const char* load_site = "";  ///< failpoint consulted by LoadSealedFile
  const char* name = "";       ///< e.g. "model bundle", for error messages
};

/// Bytes of the envelope header before the payload.
inline constexpr size_t kSealedHeaderSize =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t);

/// Seals `payload` in the envelope at `format.version` and writes it to
/// `path` atomically (tmp + rename). The `format.save_site` failpoint
/// models the two crash shapes: `torn_write` leaves half the file at the
/// *final* path (a filesystem without atomic rename) and fails with
/// IOError; `crash` leaves only the complete "<path>.tmp" (death between
/// write and rename); `error` / `short_read` fail with IOError.
Status SaveSealedFile(const SealedFormat& format,
                      const std::vector<uint8_t>& payload,
                      const std::string& path);

/// A loaded, checksum-verified sealed file.
struct SealedFile {
  uint32_t version = 0;
  std::vector<uint8_t> bytes;  ///< the whole file, header included

  /// Reader over the payload, naming `context` in its errors.
  ByteReader Payload(const char* context) const {
    return ByteReader{bytes.data() + kSealedHeaderSize,
                      bytes.size() - kSealedHeaderSize, 0, context};
  }
};

/// Reads and unseals `path`. Consults `format.load_site` first. Missing
/// file → IOError; wrong magic, a version outside
/// [min_version, version], truncation, trailing bytes or a checksum
/// mismatch → Corruption.
Result<SealedFile> LoadSealedFile(const SealedFormat& format,
                                  const std::string& path);

}  // namespace rock

#endif  // ROCK_UTIL_BYTES_H_
