// tests/test_support.h — shared helpers for librock's test suite.
//
// Seed discipline: every randomized test announces its RNG seed so that any
// red run can be reproduced from its log alone. ROCK_TRACE_SEED attaches the
// seed to every gtest failure raised in the current scope (SCOPED_TRACE);
// ROCK_SEEDED_RNG declares a traced rock::Rng in one line. Default-
// constructed RNGs are banned in tests — always pass an explicit seed
// through one of these macros.
//
// On-disk formats: ExpectRejectsEveryCorruptionShape is the one corruption
// harness every versioned+CRC'd format runs (the transaction store and the
// sealed files of util/bytes.h: the pipeline checkpoint and the model
// bundle), and PatchAndReseal forges a sealed payload field behind a valid
// CRC so a test can reach the format's own count caps.

#ifndef ROCK_TESTS_TEST_SUPPORT_H_
#define ROCK_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "util/bytes.h"
#include "util/checksum.h"

/// Attaches "RNG seed = N" to every failure message in the current scope.
#define ROCK_TRACE_SEED(seed) \
  SCOPED_TRACE(::testing::Message() << "RNG seed = " << (seed))

/// Declares `rock::Rng var(seed)` and traces the seed on failure.
#define ROCK_SEEDED_RNG(var, seed) \
  ROCK_TRACE_SEED(seed);           \
  ::rock::Rng var(seed)

namespace rock {

/// Overwrites the `T` at byte `offset` of a sealed file's `bytes` with
/// `value` and recomputes the envelope CRC, so the forged field reaches
/// the payload parser instead of failing the checksum.
template <typename T>
void PatchAndReseal(std::vector<uint8_t>& bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(value), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  const uint32_t crc = Crc32(bytes.data() + kSealedHeaderSize,
                             bytes.size() - kSealedHeaderSize);
  std::memcpy(bytes.data() + kSealedHeaderSize - sizeof(crc), &crc,
              sizeof(crc));
}

/// The corruption harness for every format whose header opens with
/// [u64 magic][u32 version]. `good` holds a valid file that `load` (the
/// format's loader, reduced to its status) accepts; `scratch`
/// is a path the harness may overwrite and finally deletes. Every shape
/// must load as Corruption: 90 seeded trials of truncation, a single-bit
/// flip and a duplicated tail (30 each), a wrong magic, a version bump,
/// and two garbage files. A missing file must be IOError.
inline void ExpectRejectsEveryCorruptionShape(
    const std::string& good, const std::string& scratch,
    const std::function<Status(const std::string&)>& load, uint64_t seed) {
  ASSERT_TRUE(load(good).ok()) << "the harness needs a loadable file";
  Result<std::vector<uint8_t>> read = ReadFileBytes(good);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const std::vector<uint8_t> bytes = std::move(read).value();
  ASSERT_GT(bytes.size(), kSealedHeaderSize);

  auto expect_corruption = [&](const std::vector<uint8_t>& b,
                               const char* shape) {
    ASSERT_TRUE(WriteFileBytes(scratch, b.data(), b.size()).ok());
    const Status s = load(scratch);
    EXPECT_TRUE(s.IsCorruption()) << shape << ": " << s.ToString();
  };

  ROCK_SEEDED_RNG(rng, seed);
  for (int trial = 0; trial < 90; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    std::vector<uint8_t> mutated = bytes;
    switch (trial % 3) {
      case 0:
        mutated.resize(static_cast<size_t>(rng.UniformUint64(bytes.size())));
        expect_corruption(mutated, "truncation");
        break;
      case 1: {
        const size_t i = static_cast<size_t>(rng.UniformUint64(bytes.size()));
        mutated[i] = static_cast<uint8_t>(mutated[i] ^
                                          (1u << rng.UniformUint64(8)));
        expect_corruption(mutated, "bit flip");
        break;
      }
      default: {
        const size_t k = 1 + static_cast<size_t>(rng.UniformUint64(
                                 std::min<size_t>(bytes.size(), 64)));
        mutated.insert(mutated.end(), bytes.end() - static_cast<long>(k),
                       bytes.end());
        expect_corruption(mutated, "duplicated tail");
        break;
      }
    }
  }

  std::vector<uint8_t> wrong_magic = bytes;
  wrong_magic[0] = static_cast<uint8_t>(wrong_magic[0] ^ 0xff);
  expect_corruption(wrong_magic, "wrong magic");

  std::vector<uint8_t> bumped = bytes;
  bumped[8] = static_cast<uint8_t>(bumped[8] + 1);  // the u32 version
  expect_corruption(bumped, "version bump");

  const std::string text = "not a sealed file";
  expect_corruption(std::vector<uint8_t>(text.begin(), text.end()),
                    "short garbage");
  expect_corruption(std::vector<uint8_t>(bytes.size(), 0xab), "garbage");

  std::remove(scratch.c_str());
  const Status missing = load(scratch);
  EXPECT_TRUE(missing.IsIOError()) << missing.ToString();
}

}  // namespace rock

#endif  // ROCK_TESTS_TEST_SUPPORT_H_
