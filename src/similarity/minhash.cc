#include "similarity/minhash.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"

namespace rock {

namespace {

/// Stateless 64-bit mix (splitmix64 finalizer) — a cheap hash whose
/// per-function variation comes from xoring a random mixer first.
inline uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

MinHasher::MinHasher(size_t num_hashes, uint64_t seed) {
  SplitMix64 sm(seed);
  mix_.resize(num_hashes);
  for (auto& m : mix_) m = sm.Next();
}

std::vector<uint64_t> MinHasher::Signature(const Transaction& tx) const {
  std::vector<uint64_t> sig(mix_.size(),
                            std::numeric_limits<uint64_t>::max());
  for (ItemId item : tx) {
    for (size_t k = 0; k < mix_.size(); ++k) {
      const uint64_t h = Mix64(static_cast<uint64_t>(item) ^ mix_[k]);
      sig[k] = std::min(sig[k], h);
    }
  }
  return sig;
}

void MinHasher::SignatureInto(const uint32_t* items, size_t count,
                              uint64_t* out) const {
  std::fill(out, out + mix_.size(), std::numeric_limits<uint64_t>::max());
  for (size_t i = 0; i < count; ++i) {
    const auto item = static_cast<uint64_t>(items[i]);
    for (size_t k = 0; k < mix_.size(); ++k) {
      const uint64_t h = Mix64(item ^ mix_[k]);
      out[k] = std::min(out[k], h);
    }
  }
}

uint64_t LshBandKey(const uint64_t* slice, size_t rows, size_t band) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (band * 0xff51afd7ed558ccdULL);
  for (size_t r = 0; r < rows; ++r) h = Mix64(h ^ slice[r]);
  return h;
}

double MinHasher::EstimateJaccard(const std::vector<uint64_t>& a,
                                  const std::vector<uint64_t>& b) {
  if (a.empty() || a.size() != b.size()) return 0.0;
  size_t match = 0;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k] == b[k]) ++match;
  }
  return static_cast<double>(match) / static_cast<double>(a.size());
}

Status LshOptions::Validate() const {
  if (num_bands == 0 || rows_per_band == 0) {
    return Status::InvalidArgument("num_bands and rows_per_band must be >= 1");
  }
  return Status::OK();
}

LshOptions TuneLshOptions(double theta, uint64_t seed) {
  LshOptions tuned;
  tuned.seed = seed;
  if (!(theta > 0.0 && theta < 1.0)) return tuned;
  constexpr double kTargetMiss = 5e-4;  // recall ≥ 99.95% at s = θ
  constexpr size_t kMaxSignature = 256;
  bool found = false;
  for (size_t r = 1; r <= 16; ++r) {
    const double per_band = std::pow(theta, static_cast<double>(r));
    const size_t b = static_cast<size_t>(
        std::ceil(std::log(kTargetMiss) / std::log(1.0 - per_band)));
    if (b == 0 || b * r > kMaxSignature) continue;
    // Candidates with larger r keep overwriting: the largest feasible r
    // gives the sharpest filter at the same recall target.
    tuned.num_bands = b;
    tuned.rows_per_band = r;
    found = true;
  }
  if (!found) {
    tuned.num_bands = kMaxSignature;
    tuned.rows_per_band = 1;
  }
  return tuned;
}

double LshCollisionProbability(double s, const LshOptions& options) {
  const double per_band = std::pow(s, static_cast<double>(
                                          options.rows_per_band));
  return 1.0 - std::pow(1.0 - per_band,
                        static_cast<double>(options.num_bands));
}

}  // namespace rock
