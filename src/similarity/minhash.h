// librock — similarity/minhash.h
//
// MinHash + LSH-banding primitives for the neighbor-graph phase on
// market-basket data. The paper's pipeline spends O(n²) similarity
// evaluations building the neighbor graph (§4.5); for Jaccard similarity
// the classic MinHash sketch lets us generate *candidate* neighbor pairs
// in roughly O(n · signature) time and verify only the candidates exactly,
// preserving ROCK's semantics: every reported edge satisfies
// sim(i, j) >= θ exactly (precision 1), while recall is controlled by the
// banding parameters (probability of missing a pair at similarity s is
// (1 − s^r)^b). The neighbor builder itself is the packed engine's LSH
// pass (graph/neighbor_engine.h, PackedStrategy::kLsh).

#ifndef ROCK_SIMILARITY_MINHASH_H_
#define ROCK_SIMILARITY_MINHASH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "graph/neighbors.h"

namespace rock {

/// Computes fixed-length MinHash signatures of item sets.
class MinHasher {
 public:
  /// `num_hashes` independent permutation approximations, derived from
  /// `seed`.
  MinHasher(size_t num_hashes, uint64_t seed);

  /// Signature of a transaction: per hash function, the minimum hashed
  /// item value. Empty transactions get all-max signatures.
  std::vector<uint64_t> Signature(const Transaction& tx) const;

  /// Signature of an item-id array into caller storage (`out` must hold
  /// num_hashes() words). Same function as Signature(), minus the
  /// allocation — the packed neighbor engine calls this once per row.
  void SignatureInto(const uint32_t* items, size_t count,
                     uint64_t* out) const;

  /// Fraction of matching positions — an unbiased estimate of Jaccard.
  static double EstimateJaccard(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b);

  size_t num_hashes() const { return mix_.size(); }

 private:
  std::vector<uint64_t> mix_;  // per-hash xor mixers
};

/// Options for LSH-accelerated neighbor computation.
struct LshOptions {
  /// Number of bands b and rows per band r; signature length = b · r.
  /// The collision threshold sits near (1/b)^(1/r) — defaults target high
  /// recall for θ ≥ 0.5.
  size_t num_bands = 50;
  size_t rows_per_band = 3;
  uint64_t seed = 0x5eed;

  Status Validate() const;
};

/// Expected probability that a pair at similarity `s` becomes a candidate
/// under the banding parameters: 1 − (1 − s^r)^b. Exposed for tests and
/// for tuning recall targets.
double LshCollisionProbability(double s, const LshOptions& options);

/// Picks banding parameters for a threshold θ: the sharpest S-curve (the
/// largest rows-per-band r, with the band count b sized so that a pair at
/// similarity exactly θ is still recalled with probability ≥ 99.95%) that
/// fits a bounded signature length b·r ≤ 256. Larger r steepens the curve,
/// so below-θ pairs generate fewer junk candidates at the same recall.
/// For θ where no r fits the budget (θ → 0) the whole budget goes to
/// single-row bands, the best recall the budget buys. θ ≤ 0 or θ ≥ 1 get
/// the LshOptions defaults (banding cannot help those thresholds).
LshOptions TuneLshOptions(double theta, uint64_t seed);

/// Bucket key of one band slice (`rows` consecutive signature words),
/// salted by the band index so equal slices in different bands land in
/// distinct bucket spaces. Used by the packed neighbor engine's LSH pass
/// (graph/neighbor_engine.h, PackedStrategy::kLsh).
uint64_t LshBandKey(const uint64_t* slice, size_t rows, size_t band);

}  // namespace rock

#endif  // ROCK_SIMILARITY_MINHASH_H_
