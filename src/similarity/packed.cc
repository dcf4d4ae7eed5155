#include "similarity/packed.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#define ROCK_PACKED_X86 1
#include <immintrin.h>
#else
#define ROCK_PACKED_X86 0
#endif

namespace rock {
namespace {

uint64_t IntersectScalar(const uint64_t* a, const uint64_t* b, size_t words) {
  uint64_t total = 0;
  for (size_t w = 0; w < words; ++w) {
    total += static_cast<uint64_t>(std::popcount(a[w] & b[w]));
  }
  return total;
}

#if ROCK_PACKED_X86
// Nibble-LUT popcount over AND'd 256-bit blocks (4 words per step); the
// per-byte counts are folded with psadbw so the accumulator never saturates.
__attribute__((target("avx2"))) uint64_t IntersectAvx2(const uint64_t* a,
                                                       const uint64_t* b,
                                                       size_t words) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    const __m256i v = _mm256_and_si256(va, vb);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < words; ++w) {
    total += static_cast<uint64_t>(std::popcount(a[w] & b[w]));
  }
  return total;
}
#endif  // ROCK_PACKED_X86

using IntersectFn = uint64_t (*)(const uint64_t*, const uint64_t*, size_t);

IntersectFn ResolveIntersect() {
#if ROCK_PACKED_X86
  if (__builtin_cpu_supports("avx2")) return &IntersectAvx2;
#endif
  return &IntersectScalar;
}

const IntersectFn g_intersect = ResolveIntersect();

}  // namespace

uint64_t IntersectPopcount(const uint64_t* a, const uint64_t* b, size_t words) {
  return g_intersect(a, b, words);
}

bool PackedKernelUsesAvx2() {
#if ROCK_PACKED_X86
  return g_intersect == &IntersectAvx2;
#else
  return false;
#endif
}

uint64_t LeastPassingIntersection(uint64_t t, uint64_t s, double theta) {
  const uint64_t most = std::min(t, s);
  const double sum = static_cast<double>(t) + static_cast<double>(s);
  // 0/0 (two empty sets) is NaN and never passes, like JaccardSimilarity's
  // 0 for an empty union at θ > 0.
  auto passes = [&](uint64_t k) {
    const double kd = static_cast<double>(k);
    return kd / (sum - kd) >= theta;
  };
  // Over the reals k/(t+s−k) ≥ θ ⇔ k ≥ θ(t+s)/(1+θ). Rounding moves the
  // IEEE boundary by at most a step from that estimate; the predicate is
  // monotone in k, so stepping settles on the exact least k.
  // `k == most + 1` means none passes.
  const double estimate = theta * sum / (1.0 + theta);
  uint64_t k = most + 1;
  if (!(estimate > 0.0)) {
    k = 0;
  } else if (estimate < static_cast<double>(most)) {
    k = static_cast<uint64_t>(std::ceil(estimate));
  }
  while (k > 0 && passes(k - 1)) --k;
  while (k <= most && !passes(k)) ++k;
  return k > most ? kUnreachableIntersection : k;
}

namespace {

// The scalar sweep, inlined into each caller so the POPCNT variant compiles
// it with its own target.
[[gnu::always_inline]] inline ThresholdSweepCounts SweepScalarBody(
    const PointPlane& plane, size_t begin, size_t end, const uint64_t* row,
    const uint64_t* need) {
  ThresholdSweepCounts out;
  for (size_t p = begin; p < end; ++p) {
    const uint64_t threshold = need[plane.size_class[p]];
    if (threshold == kUnreachableIntersection) {
      ++out.unreachable;
      continue;
    }
    uint64_t inter = 0;
    const uint64_t* word = plane.bits + p;
    for (size_t w = 0; w < plane.words; ++w, word += plane.stride) {
      inter += static_cast<uint64_t>(__builtin_popcountll(*word & row[w]));
    }
    if (inter >= threshold) ++out.passed;
  }
  return out;
}

ThresholdSweepCounts SweepScalar(const PointPlane& plane, size_t begin,
                                 size_t end, const uint64_t* row,
                                 const uint64_t* need) {
  return SweepScalarBody(plane, begin, end, row, need);
}

#if ROCK_PACKED_X86
__attribute__((target("popcnt"))) ThresholdSweepCounts SweepPopcnt(
    const PointPlane& plane, size_t begin, size_t end, const uint64_t* row,
    const uint64_t* need) {
  return SweepScalarBody(plane, begin, end, row, need);
}

// Four points per step: AND each word row's 4-point block with the probe
// word, nibble-LUT popcount, psadbw folds the bytes into one count per
// 64-bit lane = per point. The threshold compare stays scalar.
__attribute__((target("avx2,popcnt"))) ThresholdSweepCounts SweepAvx2(
    const PointPlane& plane, size_t begin, size_t end, const uint64_t* row,
    const uint64_t* need) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  ThresholdSweepCounts out;
  size_t p = begin;
  for (; p + 4 <= end; p += 4) {
    __m256i count = zero;
    const uint64_t* word = plane.bits + p;
    for (size_t w = 0; w < plane.words; ++w, word += plane.stride) {
      const __m256i v = _mm256_and_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(word)),
          _mm256_set1_epi64x(static_cast<long long>(row[w])));
      const __m256i lo = _mm256_and_si256(v, low_mask);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
      const __m256i bytes = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                            _mm256_shuffle_epi8(lut, hi));
      count = _mm256_add_epi64(count, _mm256_sad_epu8(bytes, zero));
    }
    alignas(32) uint64_t inter[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(inter), count);
    for (size_t i = 0; i < 4; ++i) {
      const uint64_t threshold = need[plane.size_class[p + i]];
      if (threshold == kUnreachableIntersection) {
        ++out.unreachable;
      } else if (inter[i] >= threshold) {
        ++out.passed;
      }
    }
  }
  const ThresholdSweepCounts tail = SweepScalarBody(plane, p, end, row, need);
  out.passed += tail.passed;
  out.unreachable += tail.unreachable;
  return out;
}

// Eight points per step with VPOPCNTDQ. Full blocks load unmasked; the
// tail block masks its loads, gather and compares, so no point range needs
// padding. The gather takes an explicit source operand — the unmasked form
// trips GCC 12's -Wmaybe-uninitialized. Lane counts accumulate in vectors
// and are reduced once per call.
#define ROCK_AVX512_TARGET \
  __attribute__((target("avx512f,avx512vl,avx512vpopcntdq,popcnt")))

ROCK_AVX512_TARGET [[gnu::always_inline]] inline void SweepAvx512Block(
    const PointPlane& plane, size_t p, __mmask8 lanes, const uint64_t* row,
    const uint64_t* need, __m512i* passed, __m512i* dead) {
  const __m512i never =
      _mm512_set1_epi64(static_cast<long long>(kUnreachableIntersection));
  const __m512i one = _mm512_set1_epi64(1);
  __m512i count = _mm512_setzero_si512();
  const uint64_t* word = plane.bits + p;
  for (size_t w = 0; w < plane.words; ++w, word += plane.stride) {
    count = _mm512_add_epi64(
        count, _mm512_popcnt_epi64(_mm512_and_si512(
                   _mm512_maskz_loadu_epi64(lanes, word),
                   _mm512_set1_epi64(static_cast<long long>(row[w])))));
  }
  const __m256i classes =
      _mm256_maskz_loadu_epi32(lanes, plane.size_class + p);
  const __m512i threshold =
      _mm512_mask_i32gather_epi64(never, lanes, classes, need, 8);
  const __mmask8 unreachable =
      _mm512_mask_cmpeq_epi64_mask(lanes, threshold, never);
  const __mmask8 pass = _mm512_mask_cmpge_epu64_mask(
      static_cast<__mmask8>(lanes & ~unreachable), count, threshold);
  *passed = _mm512_mask_add_epi64(*passed, pass, *passed, one);
  *dead = _mm512_mask_add_epi64(*dead, unreachable, *dead, one);
}

ROCK_AVX512_TARGET ThresholdSweepCounts SweepAvx512(const PointPlane& plane,
                                                    size_t begin, size_t end,
                                                    const uint64_t* row,
                                                    const uint64_t* need) {
  __m512i passed = _mm512_setzero_si512();
  __m512i dead = _mm512_setzero_si512();
  size_t p = begin;
  for (; p + 8 <= end; p += 8) {
    SweepAvx512Block(plane, p, static_cast<__mmask8>(0xFF), row, need,
                     &passed, &dead);
  }
  if (p < end) {
    SweepAvx512Block(plane, p, static_cast<__mmask8>((1u << (end - p)) - 1u),
                     row, need, &passed, &dead);
  }
  // Stored and summed by hand: _mm512_reduce_add_epi64 trips GCC 12's
  // -Wuninitialized through _mm256_undefined_si256.
  alignas(64) uint64_t lanes[2][8];
  _mm512_store_si512(lanes[0], passed);
  _mm512_store_si512(lanes[1], dead);
  ThresholdSweepCounts out;
  for (size_t i = 0; i < 8; ++i) {
    out.passed += static_cast<uint32_t>(lanes[0][i]);
    out.unreachable += static_cast<uint32_t>(lanes[1][i]);
  }
  return out;
}
#undef ROCK_AVX512_TARGET
#endif  // ROCK_PACKED_X86

using SweepFn = ThresholdSweepCounts (*)(const PointPlane&, size_t, size_t,
                                         const uint64_t*, const uint64_t*);

SweepFn SweepFor(SweepIsa isa) {
  switch (isa) {
#if ROCK_PACKED_X86
    case SweepIsa::kPopcnt:
      return &SweepPopcnt;
    case SweepIsa::kAvx2:
      return &SweepAvx2;
    case SweepIsa::kAvx512:
      return &SweepAvx512;
#endif
    default:
      return &SweepScalar;
  }
}

SweepIsa ResolveSweepIsa() {
#if ROCK_PACKED_X86
  __builtin_cpu_init();
#endif
  for (SweepIsa isa : {SweepIsa::kAvx512, SweepIsa::kAvx2, SweepIsa::kPopcnt}) {
    if (SweepIsaSupported(isa)) return isa;
  }
  return SweepIsa::kScalar;
}

const SweepIsa g_sweep_isa = ResolveSweepIsa();
const SweepFn g_sweep = SweepFor(g_sweep_isa);

}  // namespace

bool SweepIsaSupported(SweepIsa isa) {
  switch (isa) {
    case SweepIsa::kScalar:
      return true;
#if ROCK_PACKED_X86
    case SweepIsa::kPopcnt:
      return __builtin_cpu_supports("popcnt");
    case SweepIsa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
    case SweepIsa::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512vpopcntdq") &&
             __builtin_cpu_supports("popcnt");
#endif
    default:
      return false;
  }
}

SweepIsa ActiveSweepIsa() { return g_sweep_isa; }

const char* SweepIsaName(SweepIsa isa) {
  switch (isa) {
    case SweepIsa::kPopcnt:
      return "popcnt";
    case SweepIsa::kAvx2:
      return "avx2";
    case SweepIsa::kAvx512:
      return "avx512-vpopcntdq";
    default:
      return "scalar";
  }
}

ThresholdSweepCounts ThresholdSweep(const PointPlane& plane, size_t begin,
                                    size_t end, const uint64_t* row,
                                    const uint64_t* need) {
  return g_sweep(plane, begin, end, row, need);
}

ThresholdSweepCounts ThresholdSweepWith(SweepIsa isa, const PointPlane& plane,
                                        size_t begin, size_t end,
                                        const uint64_t* row,
                                        const uint64_t* need) {
  return SweepFor(isa)(plane, begin, end, row, need);
}

std::unique_ptr<PackedJaccard> PackedJaccard::FromRows(
    std::vector<std::vector<uint32_t>> rows, uint64_t universe,
    size_t max_bytes, size_t extra_bytes) {
  if (universe > std::numeric_limits<uint32_t>::max()) return nullptr;
  if (extra_bytes > max_bytes) return nullptr;
  const size_t n = rows.size();
  const size_t words = static_cast<size_t>((universe + 63) / 64);
  const size_t budget_words = (max_bytes - extra_bytes) / 8;
  if (n != 0 && words != 0 && words > budget_words / n) return nullptr;

  auto packed = std::unique_ptr<PackedJaccard>(new PackedJaccard());
  packed->n_ = n;
  packed->words_ = words;
  packed->bits_.assign(n * words, 0);
  packed->sizes_.resize(n);
  size_t total_items = 0;
  for (const auto& row : rows) total_items += row.size();
  packed->items_.row_offsets.reserve(n + 1);
  packed->items_.row_offsets.push_back(0);
  packed->items_.items.reserve(total_items);
  packed->items_.universe = static_cast<uint32_t>(universe);
  for (size_t r = 0; r < n; ++r) {
    uint64_t* plane = packed->bits_.data() + r * words;
    for (const uint32_t item : rows[r]) {
      plane[item >> 6] |= uint64_t{1} << (item & 63);
      packed->items_.items.push_back(item);
    }
    packed->sizes_[r] = static_cast<uint32_t>(rows[r].size());
    packed->items_.row_offsets.push_back(packed->items_.items.size());
  }
  return packed;
}

std::unique_ptr<PackedJaccard> PackedJaccard::PackTransactions(
    const TransactionDataset& dataset, size_t max_bytes) {
  const size_t n = dataset.size();
  // Universe = max observed id + 1, not the dictionary size: rows may carry
  // ids never interned (hand-built Transaction({...}) test data).
  uint64_t universe = 0;
  std::vector<std::vector<uint32_t>> rows(n);
  for (size_t r = 0; r < n; ++r) {
    const Transaction& tx = dataset.transaction(r);
    rows[r].assign(tx.begin(), tx.end());
    if (!tx.empty()) {
      universe = std::max(universe, uint64_t{tx.items().back()} + 1);
    }
  }
  return FromRows(std::move(rows), universe, max_bytes, 0);
}

namespace {

// (attribute, value) item encoding shared by the two categorical packings:
// attribute a's values occupy [offset[a], offset[a] + width[a]) where
// width[a] = max observed present value + 1 (observed, not interned — test
// records may carry raw value ids). Returns false when the item space
// overflows uint32_t.
bool EncodeAttributeValueRows(const CategoricalDataset& dataset,
                              std::vector<std::vector<uint32_t>>* rows,
                              uint64_t* universe) {
  const size_t n = dataset.size();
  const size_t d = n == 0 ? 0 : dataset.record(0).size();
  std::vector<uint64_t> width(d, 0);
  for (size_t r = 0; r < n; ++r) {
    const Record& rec = dataset.record(r);
    for (size_t a = 0; a < d; ++a) {
      const ValueId v = rec.value(a);
      if (v != kMissingValue) width[a] = std::max(width[a], uint64_t{v} + 1);
    }
  }
  std::vector<uint64_t> offset(d + 1, 0);
  for (size_t a = 0; a < d; ++a) offset[a + 1] = offset[a] + width[a];
  *universe = offset[d];
  if (*universe > std::numeric_limits<uint32_t>::max()) return false;
  rows->assign(n, {});
  for (size_t r = 0; r < n; ++r) {
    const Record& rec = dataset.record(r);
    std::vector<uint32_t>& row = (*rows)[r];
    for (size_t a = 0; a < d; ++a) {
      const ValueId v = rec.value(a);
      if (v != kMissingValue) {
        row.push_back(static_cast<uint32_t>(offset[a] + v));
      }
    }
  }
  return true;
}

}  // namespace

std::unique_ptr<PackedJaccard> PackedJaccard::PackCategorical(
    const CategoricalDataset& dataset, size_t max_bytes) {
  std::vector<std::vector<uint32_t>> rows;
  uint64_t universe = 0;
  if (!EncodeAttributeValueRows(dataset, &rows, &universe)) return nullptr;
  return FromRows(std::move(rows), universe, max_bytes, 0);
}

std::unique_ptr<PackedJaccard> PackedJaccard::PackPairwiseMissing(
    const CategoricalDataset& dataset, size_t max_bytes) {
  std::vector<std::vector<uint32_t>> rows;
  uint64_t universe = 0;
  if (!EncodeAttributeValueRows(dataset, &rows, &universe)) return nullptr;
  const size_t n = dataset.size();
  const size_t d = n == 0 ? 0 : dataset.record(0).size();
  const size_t pres_words = (d + 63) / 64;
  auto packed =
      FromRows(std::move(rows), universe, max_bytes, n * pres_words * 8);
  if (packed == nullptr) return nullptr;
  packed->pairwise_missing_ = true;
  packed->pres_words_ = pres_words;
  packed->presence_.assign(n * pres_words, 0);
  for (size_t r = 0; r < n; ++r) {
    const Record& rec = dataset.record(r);
    uint64_t* plane = packed->presence_.data() + r * pres_words;
    for (size_t a = 0; a < d; ++a) {
      if (!rec.IsMissing(a)) plane[a >> 6] |= uint64_t{1} << (a & 63);
    }
  }
  return packed;
}

void PackedJaccard::SimilarityBatch(size_t i, const uint32_t* js, size_t count,
                                    double* out) const {
  const uint64_t* row_i = bits_.data() + i * words_;
  if (!pairwise_missing_) {
    const uint64_t si = sizes_[i];
    for (size_t t = 0; t < count; ++t) {
      const size_t j = js[t];
      const uint64_t inter =
          IntersectPopcount(row_i, bits_.data() + j * words_, words_);
      const uint64_t uni = si + sizes_[j] - inter;
      out[t] = uni == 0 ? 0.0
                        : static_cast<double>(inter) / static_cast<double>(uni);
    }
    return;
  }
  const uint64_t* pres_i = presence_.data() + i * pres_words_;
  for (size_t t = 0; t < count; ++t) {
    const size_t j = js[t];
    const uint64_t both = IntersectPopcount(
        pres_i, presence_.data() + j * pres_words_, pres_words_);
    if (both == 0) {
      out[t] = 0.0;
      continue;
    }
    const uint64_t equal =
        IntersectPopcount(row_i, bits_.data() + j * words_, words_);
    out[t] =
        static_cast<double>(equal) / static_cast<double>(2 * both - equal);
  }
}

}  // namespace rock
