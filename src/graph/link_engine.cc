#include "graph/link_engine.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace rock {
namespace {

/// Upper-triangular slice of one row: (partner q > p, link count) in
/// ascending partner order.
using UpperRow = std::vector<std::pair<PointIndex, LinkCount>>;

/// Serial mirror + CSR assembly shared by both counting passes. Row r
/// receives its mirrored partners p < r while the outer loop passes
/// p = 0..r−1 (ascending) and then its own upper partners q > r
/// (ascending), so every row comes out strictly ascending — the exact
/// layout LinkMatrix::Freeze() produces.
LinkMatrix AssembleFromUpper(size_t n, const std::vector<UpperRow>& upper) {
  std::vector<size_t> sizes(n, 0);
  for (size_t p = 0; p < n; ++p) {
    sizes[p] += upper[p].size();
    for (const auto& [q, c] : upper[p]) ++sizes[q];
  }
  std::vector<size_t> offsets(n + 1, 0);
  for (size_t p = 0; p < n; ++p) offsets[p + 1] = offsets[p] + sizes[p];
  std::vector<PointIndex> partners(offsets[n]);
  std::vector<LinkCount> counts(offsets[n]);
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t p = 0; p < n; ++p) {
    for (const auto& [q, c] : upper[p]) {
      partners[cursor[p]] = q;
      counts[cursor[p]] = c;
      ++cursor[p];
      partners[cursor[q]] = static_cast<PointIndex>(p);
      counts[cursor[q]] = c;
      ++cursor[q];
    }
  }
  return LinkMatrix::FromCsr(n, std::move(offsets), std::move(partners),
                             std::move(counts));
}

/// Dense ScanCount pass: for each row p, every neighbor i's adjacency
/// suffix beyond p is scattered into a per-worker count array — count[q]
/// ends at |N(p) ∩ N(q)| because each shared neighbor contributes exactly
/// one increment — while a ⌈n/64⌉-word bitmap records first touches. The
/// bitmap sweep then emits the row's partners in ascending order and
/// resets both scratch structures. Row outputs depend only on the graph,
/// so any schedule produces the same upper rows.
LinkMatrix ScatterPass(const NeighborGraph& graph,
                       const PackedLinkOptions& options) {
  const size_t n = graph.size();
  const size_t words = (n + 63) / 64;
  const size_t workers = ResolveThreads(options.num_threads);
  diag::AddCounter(options.metrics, "links.scatter_pass", 1);
  std::vector<UpperRow> upper(n);
  std::vector<uint64_t> found(workers, 0);
  // Per-worker scratch, sized on the worker's first chunk.
  struct Scratch {
    std::vector<LinkCount> count;
    std::vector<uint64_t> touched;
  };
  std::vector<Scratch> scratch(workers);
  ParallelChunks(workers, n, options.row_chunk, [&](size_t worker,
                                                   size_t begin,
                                                   size_t end) {
    Scratch& s = scratch[worker];
    if (s.count.empty()) {
      s.count.assign(n, 0);
      s.touched.assign(words, 0);
    }
    // Raw pointers, so the hot loop need not reload the vectors' headers.
    LinkCount* const count = s.count.data();
    uint64_t* const touched = s.touched.data();
    for (size_t p = begin; p < end; ++p) {
      const auto& nbrs = graph.nbrlist[p];
      if (nbrs.empty()) continue;
      const auto pi = static_cast<PointIndex>(p);
      for (const PointIndex i : nbrs) {
        const auto& ni = graph.nbrlist[i];
        // Partners q > p form a suffix of the ascending adjacency list.
        for (auto it = std::upper_bound(ni.begin(), ni.end(), pi);
             it != ni.end(); ++it) {
          const size_t q = *it;
          ++count[q];
          touched[q >> 6] |= uint64_t{1} << (q & 63);
        }
      }
      UpperRow& out = upper[p];
      for (size_t w = p >> 6; w < words; ++w) {
        uint64_t bits = touched[w];
        touched[w] = 0;
        while (bits != 0) {
          const auto q = static_cast<PointIndex>(
              (w << 6) + static_cast<size_t>(std::countr_zero(bits)));
          bits &= bits - 1;
          out.emplace_back(q, count[q]);
          count[q] = 0;
        }
      }
      found[worker] += out.size();
    }
  });
  scratch.clear();
  uint64_t candidates = 0;
  for (const uint64_t f : found) candidates += f;
  diag::AddCounter(options.metrics, "links.candidate_pairs", candidates);
  diag::AddCounter(options.metrics, "links.pairs_counted", candidates);
  return AssembleFromUpper(n, upper);
}

}  // namespace

LinkMatrix ComputeLinksPacked(const NeighborGraph& graph,
                              const PackedLinkOptions& options) {
  const size_t n = graph.size();
  if (n < 2) {
    LinkMatrix links(n);
    links.Freeze();
    diag::AddCounter(options.metrics, "links.candidate_pairs", 0);
    diag::AddCounter(options.metrics, "links.pairs_counted", 0);
    return links;
  }
  const size_t words = (n + 63) / 64;

  PackedLinkStrategy strategy = options.strategy;
  if (strategy == PackedLinkStrategy::kAuto) {
    // Scatter iff its exact total increment count undercuts the plane's
    // OR-mask word reads alone — a certain win, and a data-only choice, so
    // the decision (and every links.* metric) is identical at any thread
    // count.
    uint64_t scatter_ops = 0;
    uint64_t degree_sum = 0;
    for (const auto& nbrs : graph.nbrlist) {
      const auto m = static_cast<uint64_t>(nbrs.size());
      scatter_ops += m * (m - (m > 0 ? 1 : 0)) / 2;
      degree_sum += m;
    }
    strategy = scatter_ops < degree_sum * words
                   ? PackedLinkStrategy::kScatter
                   : PackedLinkStrategy::kPlane;
  }
  if (strategy == PackedLinkStrategy::kScatter ||
      words > options.pack_budget_bytes / sizeof(uint64_t) / n) {
    // The dense scatter needs no plane, so it is also the exact answer
    // when the plane would not fit the packing budget.
    return ScatterPass(graph, options);
  }

  // Plane: row i holds N(i) as an n-bit set. Rows are the adjacency matrix
  // rows, so popcount(row_p AND row_q) = |N(p) ∩ N(q)| = link(p, q).
  // Rows write disjoint plane segments, so packing shards cleanly.
  std::vector<uint64_t> plane;
  {
    diag::ScopedTimer pack_timer(options.metrics, "stage.links.pack");
    plane.assign(n * words, 0);
    ParallelChunks(options.num_threads, n, options.row_chunk,
                   [&](size_t, size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       uint64_t* row = plane.data() + i * words;
                       for (const PointIndex q : graph.nbrlist[i]) {
                         row[q >> 6] |= uint64_t{1} << (q & 63);
                       }
                     }
                   });
  }

  // Per-row pass over the upper triangle. Candidates q > p are the set bits
  // of OR_{i ∈ N(p)} row_i restricted to the suffix beyond p — each such q
  // shares the witness neighbor i with p, so its link count is ≥ 1 and the
  // popcount sweep is never wasted. Each row's output depends only on the
  // graph, so any thread schedule produces the same upper rows.
  const size_t workers = ResolveThreads(options.num_threads);
  std::vector<UpperRow> upper(n);
  std::vector<uint64_t> found(workers, 0);
  std::vector<std::vector<uint64_t>> masks(workers);
  ParallelChunks(workers, n, options.row_chunk, [&](size_t worker,
                                                   size_t begin,
                                                   size_t end) {
    if (masks[worker].empty()) masks[worker].assign(words, 0);
    uint64_t* const mask = masks[worker].data();
    for (size_t p = begin; p < end; ++p) {
      const auto& nbrs = graph.nbrlist[p];
      if (nbrs.empty()) continue;
      const size_t wp = p >> 6;
      for (const PointIndex i : nbrs) {
        const uint64_t* row = plane.data() + size_t{i} * words;
        for (size_t w = wp; w < words; ++w) mask[w] |= row[w];
      }
      // Drop bits ≤ p from the first word: candidates must exceed p.
      // (For p ≡ 63 mod 64 the mask value wraps to 0 and clears the whole
      // word — unsigned wrap-around, well defined.)
      mask[wp] &= ~((uint64_t{2} << (p & 63)) - 1);
      const uint64_t* row_p = plane.data() + p * words;
      UpperRow& out = upper[p];
      for (size_t w = wp; w < words; ++w) {
        uint64_t bits = mask[w];
        mask[w] = 0;  // leave the scratch mask clean for the next row
        while (bits != 0) {
          const auto q = static_cast<PointIndex>(
              (w << 6) + static_cast<size_t>(std::countr_zero(bits)));
          bits &= bits - 1;
          const uint64_t common = IntersectPopcount(
              row_p, plane.data() + size_t{q} * words, words);
          out.emplace_back(q, static_cast<LinkCount>(common));
        }
      }
      found[worker] += out.size();
    }
  });
  masks.clear();
  plane.clear();
  plane.shrink_to_fit();

  uint64_t candidates = 0;
  for (const uint64_t f : found) candidates += f;
  diag::AddCounter(options.metrics, "links.candidate_pairs", candidates);
  // Enumeration is exact (every candidate stores a non-zero count), so the
  // two counters agree, as they do on the scatter pass.
  diag::AddCounter(options.metrics, "links.pairs_counted", candidates);

  return AssembleFromUpper(n, upper);
}

}  // namespace rock
