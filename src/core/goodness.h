// librock — core/goodness.h
//
// The goodness measure of paper §4.2:
//
//     g(C_i, C_j) = link[C_i, C_j] / ((n_i+n_j)^{1+2f(θ)} − n_i^{1+2f(θ)} − n_j^{1+2f(θ)})
//
// The denominator is the *expected* number of cross-links between the two
// clusters; dividing by it stops large clusters from swallowing everything
// merely because they have more raw cross-links.
//
// Cluster sizes are small integers bounded by n, and the merge loop asks
// for the same handful of powers millions of times, so size^{1+2f(θ)} is
// served from a lazily-grown memo table instead of a std::pow call per
// evaluation. Values are bit-identical to the direct std::pow path — each
// table slot is filled by the exact same std::pow(i, exponent) call the
// unmemoized code would have made (tests/rock_test.cc pins this).

#ifndef ROCK_CORE_GOODNESS_H_
#define ROCK_CORE_GOODNESS_H_

#include <cstdint>
#include <vector>

#include "core/options.h"

namespace rock {

/// Precomputed goodness evaluator for a fixed θ and f.
class GoodnessMeasure {
 public:
  /// Captures exponent 1 + 2f(θ). `options.f` must be set.
  explicit GoodnessMeasure(const RockOptions& options)
      : exponent_(1.0 + 2.0 * options.f(options.theta)) {}

  /// Direct construction from a precomputed f(θ) value.
  GoodnessMeasure(double theta, double f_of_theta)
      : exponent_(1.0 + 2.0 * f_of_theta) {
    (void)theta;
  }

  /// The exponent 1 + 2f(θ).
  double exponent() const { return exponent_; }

  /// Expected number of intra-cluster links of an n-point cluster:
  /// n^{1+2f(θ)}. Memoized; the first call for a new maximum grows the
  /// table through that size.
  double ExpectedIntraLinks(size_t n) const {
    if (n < table_.size()) return table_[n];
    return GrowAndGet(n);
  }

  /// Expected cross-links created by merging clusters of sizes ni and nj:
  /// (ni+nj)^{1+2f(θ)} − ni^{1+2f(θ)} − nj^{1+2f(θ)}.
  double ExpectedCrossLinks(size_t ni, size_t nj) const;

  /// g(C_i, C_j) for the observed cross-link count.
  double Goodness(uint64_t cross_links, size_t ni, size_t nj) const;

  /// Pre-fills the memo through size `max_size` so every later
  /// ExpectedIntraLinks(n ≤ max_size) is a pure table read. Concurrent
  /// reads of a reserved table are race-free; concurrent lazy growth is
  /// not, so a caller that shares one measure across threads must reserve
  /// its size ceiling up front.
  void Reserve(size_t max_size) const {
    if (max_size >= table_.size()) GrowAndGet(max_size);
  }

 private:
  /// Extends the table through index n (each slot i = std::pow(i, e)) and
  /// returns table_[n].
  double GrowAndGet(size_t n) const;

  double exponent_;
  /// table_[i] == std::pow(i, exponent_); grown monotonically, never
  /// shrunk. Mutable: memoization is invisible to callers.
  mutable std::vector<double> table_;
};

}  // namespace rock

#endif  // ROCK_CORE_GOODNESS_H_
