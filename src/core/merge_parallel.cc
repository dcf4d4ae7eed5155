// librock — core/merge_parallel.cc
//
// The production merge engine (the default; DESIGN.md §12). Same Fig. 3
// algorithm and byte-identical results as the hashed oracle
// (core/merge_hashed.cc); the greedy merge sequence is serial — one
// globally best pair per step — and the per-merge work is restructured for
// throughput:
//
//   * Interleaved rows: each cluster's cross-links live in one vector of
//     24-byte RowEntry{partner, count, goodness} records instead of three
//     parallel vectors. The per-partner scatter append into an arbitrary
//     cluster's row touches one cache line instead of three — the relink
//     is memory-bound on exactly that scatter.
//   * Memoized goodness: GoodnessMeasure serves size^{1+2f(θ)} from a
//     table (Reserve()d to the id ceiling up front, so the relink loop
//     never grows it), and the merged cluster's own term is hoisted out of
//     the relink loop. The remaining per-partner cost is two table loads,
//     two subtractions and one division, evaluated in the exact same
//     operation order as GoodnessMeasure::Goodness — bit-identical values.
//   * Lazy best cleaning: on real data the merging pair (u, v) is each
//     touched neighbor's own best partner almost every time (the pair
//     with globally maximal goodness sits inside a natural cluster, and
//     so do its neighbors), so an eager "rescan when the best dies" over
//     a tracked argmax fires on ~99% of touches — ~1.6M full row scans on
//     the n=5k basket benchmark. Here a cluster
//     whose best died is just marked dirty, keeping max(old best, new
//     goodness) as its stored priority — a provable upper bound on its
//     true best (dead entries only remove candidates; the one new entry
//     is folded in). A dirty cluster is cleaned (one rescan + one heap
//     fixup) only when it surfaces at the heap top. Because no stored
//     priority ever understates a true best, cleaning the top until it
//     is clean pops exactly the cluster the eager engines pop — same
//     priority, same (priority desc, key asc) tie-break — so the merge
//     sequence is byte-identical while O(row) rescans collapse to O(1)
//     dirty marks.
//   * Elided heap fixups: a global-heap InsertOrUpdate is emitted only
//     when a partner's stored priority actually changed. An update to an
//     unchanged priority is a content no-op, and heap *content* is all
//     that can affect results (the strict total order has a unique
//     maximum), so eliding them is invisible. With lazy cleaning the
//     stored priority moves only when the upper bound rises, so most
//     heap traffic disappears outright.
//   * Periodic compaction sweep: every kSweepInterval merges the arena is
//     walked and rows dominated by stale entries are compacted — catching
//     rows that went stale through weeding, which the per-touch
//     compaction cannot see.
//
// Metrics beyond the hashed oracle's set: merge.relink_partners,
// merge.relink_dead_skipped, merge.relink_best_rescans,
// merge.relink_compactions, heap.ops, merge.compact_sweeps and the
// stage.merge.relink / .heap timers (docs/OBSERVABILITY.md).

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/criterion.h"
#include "core/merge_engine.h"
#include "diag/invariants.h"
#include "util/updatable_heap.h"

namespace rock::internal {

namespace {

/// Internal cluster id. Initial clusters take ids 0 … n−1; every merge mints
/// the next id, so ids never exceed 2n−1.
using ClusterId = uint32_t;

constexpr double kNoCandidate = -std::numeric_limits<double>::infinity();

/// Merges between periodic dead-entry compaction sweeps.
constexpr size_t kSweepInterval = 512;

/// One cross-link record: partner id, link count, cached goodness. The
/// interleaved layout makes the scatter append into a partner's row a
/// single cache-line touch.
struct RowEntry {
  ClusterId partner;
  uint64_t count;
  double goodness;
};

/// Bookkeeping for one cluster. `row` is in strictly ascending partner-id
/// order; entries whose partner has died (alive bitmap) are stale and
/// skipped lazily, so only `live_links` of them are meaningful.
/// `best_key`/`best_priority` replace the paper's local heap with a
/// tracked argmax — except when `dirty` is set, in which case best_priority
/// is only an upper bound on the true best (and best_key is meaningless)
/// until the cluster is cleaned at the heap top.
struct ParClusterState {
  std::vector<PointIndex> members;  // sorted point ids
  std::vector<RowEntry> row;        // ascending partners; may contain dead
  size_t live_links = 0;            // entries whose partner is alive
  ClusterId best_key = 0;
  double best_priority = -std::numeric_limits<double>::infinity();
  bool dirty = false;               // best died; priority is an upper bound
};

using HeapEntry = UpdatableHeap<ClusterId, double>::Entry;

class ParallelMergeEngine {
 public:
  ParallelMergeEngine(const NeighborGraph& graph, const RockOptions& options)
      : options_(options),
        goodness_(options),
        graph_(graph) {}

  RockResult Run() {
    Timer total_timer;
    RockResult result;
    result.stats.num_points = graph_.size();
    result.stats.average_degree = graph_.AverageDegree();
    result.stats.max_degree = graph_.MaxDegree();

    diag::MetricsRegistry registry;
    metrics_ = options_.diag.collect_metrics ? &registry : nullptr;
    check_every_ =
        diag::InvariantCheckInterval(options_.diag.invariant_check_every);

    PruneIsolatedPoints();
    result.stats.num_pruned_points = pruned_.size();

    Timer link_timer;
    LinkMatrix links = ComputeLinkStage(graph_, options_, metrics_);
    links.Freeze();  // CSR layout for the init scans (packed: already built)
    result.stats.link_seconds = link_timer.ElapsedSeconds();
    if (metrics_ != nullptr) {
      metrics_->RecordSeconds("stage.links", result.stats.link_seconds);
      metrics_->AddCounter("graph.points", graph_.size());
      metrics_->AddCounter("graph.edges", graph_.NumEdges());
      metrics_->AddCounter("graph.max_degree", graph_.MaxDegree());
      metrics_->SetGauge("graph.average_degree", graph_.AverageDegree());
      metrics_->AddCounter("prune.isolated_points", pruned_.size());
      metrics_->AddCounter("links.nonzero_pairs", links.NumNonZeroPairs());
      metrics_->AddCounter("links.total", links.TotalLinks());
    }
    if (check_every_ > 0) {
      diag::CheckNeighborGraph(graph_, &invariant_report_);
      diag::CheckLinkMatrixSymmetry(links, &invariant_report_);
    }

    Timer merge_timer;
    // Every goodness argument is a cluster size (or a sum of two), all
    // bounded by n — fill the memo once so the relink only ever reads.
    goodness_.Reserve(graph_.size());
    InitializeClusters(links);
    if (metrics_ != nullptr) {
      size_t local_entries = 0;
      for (ClusterId c = 0; c < next_id_; ++c) {
        if (alive_[c]) local_entries += arena_[c].live_links;
      }
      metrics_->MaxCounter("heap.global_peak", global_.size());
      metrics_->MaxCounter("heap.local_entries_peak", local_entries);
    }
    if (check_every_ > 0) VerifyBookkeeping(links);
    MergeLoop(&result, links);
    if (check_every_ > 0) VerifyBookkeeping(links);
    result.stats.merge_seconds = merge_timer.ElapsedSeconds();

    BuildClustering(&result);
    result.stats.total_seconds = total_timer.ElapsedSeconds();
    result.stats.criterion_value =
        CriterionFunction(result.clustering, links, goodness_);
    if (metrics_ != nullptr) {
      metrics_->RecordSeconds("stage.merge", result.stats.merge_seconds);
      metrics_->RecordSeconds("stage.merge.relink", relink_seconds_);
      metrics_->RecordSeconds("stage.merge.heap", heap_seconds_);
      metrics_->RecordSeconds("stage.total", result.stats.total_seconds);
      metrics_->AddCounter("merge.merges", result.stats.num_merges);
      // Every relinked partner gets exactly one goodness update.
      metrics_->AddCounter("merge.goodness_updates", relink_partners_);
      metrics_->AddCounter("merge.relink_partners", relink_partners_);
      metrics_->AddCounter("merge.relink_dead_skipped", relink_dead_skipped_);
      metrics_->AddCounter("merge.relink_compactions", relink_compactions_);
      metrics_->AddCounter("merge.relink_best_rescans", best_rescans_);
      metrics_->AddCounter("merge.compact_sweeps", compact_sweeps_);
      metrics_->AddCounter("heap.ops", heap_ops_);
      metrics_->AddCounter("weed.clusters", result.stats.num_weeded_clusters);
      metrics_->AddCounter("weed.points", result.stats.num_weeded_points);
      metrics_->AddCounter("diag.invariant_checks",
                           invariant_report_.checks_run());
      metrics_->AddCounter("diag.invariant_violations",
                           invariant_report_.violations().size());
      metrics_->SetGauge("criterion.value", result.stats.criterion_value);
      result.metrics = registry.Snapshot();
    }
    metrics_ = nullptr;
    return result;
  }

 private:
  void PruneIsolatedPoints() {
    for (size_t p = 0; p < graph_.size(); ++p) {
      if (graph_.Degree(p) < options_.min_neighbors) {
        pruned_.push_back(static_cast<PointIndex>(p));
      }
    }
  }

  bool IsPruned(PointIndex p) const {
    return std::binary_search(pruned_.begin(), pruned_.end(), p);
  }

  void InitializeClusters(const LinkMatrix& links) {
    const size_t n = graph_.size();
    arena_.resize(2 * n);  // ids 0 … 2n−1 suffice for n−1 merges
    alive_.assign(2 * n, 0);
    for (PointIndex p = 0; p < n; ++p) {
      if (IsPruned(p)) continue;
      arena_[p].members.push_back(p);
      alive_[p] = 1;
      ++num_live_;
    }
    next_id_ = static_cast<ClusterId>(n);

    // Seed cross-links from the frozen CSR rows: partners arrive already
    // sorted, so each row fills in one pass and the best entry falls out
    // of the scan (ascending ids ⇒ ties keep the smaller key, matching
    // the heaps' order). Links to pruned points are dropped: pruned
    // outliers never participate.
    for (PointIndex p = 0; p < n; ++p) {
      if (!alive_[p]) continue;
      const LinkRowSpan row = links.FlatRow(p);
      ParClusterState& s = arena_[p];
      s.row.reserve(row.size);
      for (size_t i = 0; i < row.size; ++i) {
        const PointIndex q = row.partners[i];
        if (!alive_[q]) continue;
        const double g = goodness_.Goodness(row.counts[i], 1, 1);
        s.row.push_back(RowEntry{q, row.counts[i], g});
        if (g > s.best_priority) {
          s.best_priority = g;
          s.best_key = q;
        }
      }
      s.live_links = s.row.size();
    }

    // One O(n) heapify instead of n sifted inserts; keys are unique and the
    // resulting heap content is identical.
    std::vector<HeapEntry> entries;
    entries.reserve(num_live_);
    for (PointIndex p = 0; p < n; ++p) {
      if (alive_[p]) entries.push_back(HeapEntry{p, LocalBest(p)});
    }
    global_.Assign(std::move(entries));
    heap_ops_ += global_.size();
  }

  double LocalBest(ClusterId c) const { return arena_[c].best_priority; }

  /// Recomputes a cluster's best live entry by scanning its row, clearing
  /// its dirty mark. Ascending partner order makes ties resolve toward the
  /// smaller id, matching UpdatableHeap's (priority desc, key asc) order.
  void RecomputeBest(ParClusterState& s) {
    ++best_rescans_;
    s.best_priority = kNoCandidate;
    s.best_key = 0;
    s.dirty = false;
    for (const RowEntry& e : s.row) {
      if (!alive_[e.partner]) continue;
      if (e.goodness > s.best_priority) {
        s.best_priority = e.goodness;
        s.best_key = e.partner;
      }
    }
  }

  /// link[u, v] from u's row. The row stays sorted even with stale entries
  /// (ids are minted monotonically), so this is a binary search.
  uint64_t CountOf(const ParClusterState& s, ClusterId partner) const {
    auto it = std::lower_bound(
        s.row.begin(), s.row.end(), partner,
        [](const RowEntry& e, ClusterId p) { return e.partner < p; });
    assert(it != s.row.end() && it->partner == partner);
    return it->count;
  }

  void MergeLoop(RockResult* result, const LinkMatrix& links) {
    const size_t k = options_.num_clusters;
    const size_t weed_at = WeedThreshold();
    bool weeded = (weed_at == 0);

    while (num_live_ > k) {
      if (!weeded && num_live_ <= weed_at) {
        WeedSmallClusters(result);
        weeded = true;
        continue;
      }
      if (global_.empty()) break;
      const auto top = global_.Top();
      if (top.priority == kNoCandidate) break;  // all cross-links are zero
      const ClusterId u = top.key;
      if (arena_[u].dirty) {
        // Lazy cleaning: settle the top's true best and re-evaluate. The
        // stored value was an upper bound, so no cluster whose true best
        // exceeds this one can be hiding below it.
        RecomputeBest(arena_[u]);
        global_.InsertOrUpdate(u, arena_[u].best_priority);
        heap_ops_ += 1;
        continue;
      }
      const ClusterId v = arena_[u].best_key;
      Merge(u, v, result);
      if (result->stats.num_merges % kSweepInterval == 0) {
        SweepCompact();
      }
      if (check_every_ > 0 &&
          result->stats.num_merges % check_every_ == 0) {
        VerifyBookkeeping(links);
      }
    }
    // A weeding pause configured below k (or exactly at k) still applies
    // when the loop exits normally.
    if (!weeded && num_live_ <= weed_at) {
      WeedSmallClusters(result);
    }
  }

  size_t WeedThreshold() const {
    if (options_.outlier_stop_multiple <= 0.0) return 0;
    const double raw = options_.outlier_stop_multiple *
                       static_cast<double>(options_.num_clusters);
    return static_cast<size_t>(std::ceil(raw));
  }

  /// Frees a dead cluster's slab. The arena slot itself stays (stable
  /// references), only the heap-allocated vectors are returned.
  static void ReleaseState(ParClusterState& s) { s = ParClusterState{}; }

  /// Drops stale (dead-partner) entries once they dominate the row. The
  /// 2× threshold amortizes to O(1) per append; tiny rows are left alone.
  /// Compaction changes neither the live entries nor their order, so it is
  /// invisible to results.
  void MaybeCompact(ParClusterState& s) {
    if (s.row.size() < 8 || s.row.size() < 2 * s.live_links) {
      return;
    }
    size_t out = 0;
    for (size_t i = 0; i < s.row.size(); ++i) {
      if (!alive_[s.row[i].partner]) continue;
      s.row[out] = s.row[i];
      ++out;
    }
    assert(out == s.live_links);
    s.row.resize(out);
    ++relink_compactions_;
  }

  /// The relink kernel: three-way sorted merge of u's and v's rows into
  /// the merged cluster w's row (ascending partner order), applying the
  /// partner-side updates (append, live_links, best, compaction) and
  /// recording partners whose stored priority changed into changed_ for
  /// the deferred heap fixups.
  void Relink(ClusterId u, ClusterId v, ClusterId w, size_t nw) {
    const ParClusterState& su = arena_[u];
    const ParClusterState& sv = arena_[v];
    ParClusterState& sw = arena_[w];
    const RowEntry* ru = su.row.data();
    const RowEntry* rv = sv.row.data();
    const size_t eu = su.row.size();
    const size_t ev = sv.row.size();
    const double t_nw = goodness_.ExpectedIntraLinks(nw);
    sw.row.reserve(su.live_links + sv.live_links);
    changed_.clear();
    uint64_t partners = 0;
    uint64_t dead_skipped = 0;
    ClusterId best_key = 0;
    double best_priority = kNoCandidate;

    // One pass over both rows in ascending partner order; each iteration
    // skips dead entries, then consumes the smaller live partner (or both
    // rows' entries for a shared partner, summing their counts).
    size_t iu = 0;
    size_t iv = 0;
    while (true) {
      while (iu < eu && !alive_[ru[iu].partner]) {
        ++iu;
        ++dead_skipped;
      }
      while (iv < ev && !alive_[rv[iv].partner]) {
        ++iv;
        ++dead_skipped;
      }
      ClusterId x;
      uint64_t count;
      bool from_both = false;
      if (iu < eu && (iv == ev || ru[iu].partner < rv[iv].partner)) {
        x = ru[iu].partner;
        count = ru[iu].count;
        ++iu;
      } else if (iv < ev && (iu == eu || rv[iv].partner < ru[iu].partner)) {
        x = rv[iv].partner;
        count = rv[iv].count;
        ++iv;
      } else if (iu < eu) {
        x = ru[iu].partner;
        count = ru[iu].count + rv[iv].count;
        from_both = true;
        ++iu;
        ++iv;
      } else {
        break;  // both rows exhausted
      }

      // Goodness in the exact operation order of GoodnessMeasure::Goodness
      // — (T[nx+nw] − T[nx]) − T[nw], then the divide — with T[nw] hoisted
      // (same value, same order).
      ParClusterState& sx = arena_[x];
      ++partners;
      const size_t nx = sx.members.size();
      const double expected =
          (goodness_.ExpectedIntraLinks(nx + nw) -
           goodness_.ExpectedIntraLinks(nx)) -
          t_nw;
      const double g =
          expected <= 0.0 ? 0.0 : static_cast<double>(count) / expected;
      const double old_best = sx.best_priority;
      // x's entries for u/v just died and (w, g) replaces them. The argmax
      // updates in O(1); a dying best marks x dirty (lazy cleaning) with
      // max(old best, g) kept as the upper bound instead of rescanning.
      sx.row.push_back(RowEntry{w, count, g});  // w > every id: stays sorted
      if (from_both) {
        sx.live_links -= 1;  // entries for u and v die, one for w is born
      }
      if (sx.dirty) {
        if (g > sx.best_priority) sx.best_priority = g;  // raise the bound
      } else if (sx.best_key == u || sx.best_key == v) {
        sx.dirty = true;  // old best ≥ every live entry: still a bound
        if (g > sx.best_priority) sx.best_priority = g;
      } else if (g > sx.best_priority) {
        sx.best_priority = g;
        sx.best_key = w;
      }
      MaybeCompact(sx);
      // The global heap stores (x → stored priority); an unchanged value
      // makes InsertOrUpdate a content no-op, so only real changes queue a
      // fixup. Bitwise compare: goodness values are never NaN.
      if (sx.best_priority != old_best) changed_.push_back(x);

      sw.row.push_back(RowEntry{x, count, g});  // x ascends across passes
      if (g > best_priority) {  // ties keep the smaller id
        best_priority = g;
        best_key = x;
      }
    }
    sw.live_links = sw.row.size();
    sw.best_key = best_key;
    sw.best_priority = best_priority;
    relink_partners_ += partners;
    relink_dead_skipped_ += dead_skipped;
  }

  void Merge(ClusterId u, ClusterId v, RockResult* result) {
    ParClusterState& su = arena_[u];
    ParClusterState& sv = arena_[v];
    const ClusterId w = next_id_++;
    ParClusterState& sw = arena_[w];  // arena is pre-sized: no reallocation

    sw.members.resize(su.members.size() + sv.members.size());
    std::merge(su.members.begin(), su.members.end(), sv.members.begin(),
               sv.members.end(), sw.members.begin());
    const size_t nw = sw.members.size();

    result->merges.push_back(MergeRecord{
        u, v, w,
        goodness_.Goodness(CountOf(su, v), su.members.size(),
                           sv.members.size()),
        nw});
    ++result->stats.num_merges;

    global_.Erase(v);  // u's entry is renamed to w at the end of the merge
    heap_ops_ += 1;
    // Kill u and v up front: the lazy skip then drops their entries from
    // every partner row (including each other's), and a compaction that
    // fires mid-relink must not keep them. w is born alive for the same
    // reason — its freshly appended entries must survive compaction.
    alive_[u] = 0;
    alive_[v] = 0;
    alive_[w] = 1;

    Timer relink_timer;
    Relink(u, v, w, nw);
    ReleaseState(su);
    ReleaseState(sv);
    --num_live_;  // two die, one is born
    relink_seconds_ += relink_timer.ElapsedSeconds();

    // Deferred global-heap fixups, in ascending partner order: only
    // partners whose best actually changed, plus w taking over u's
    // still-present entry in one sift.
    Timer heap_timer;
    for (ClusterId x : changed_) global_.InsertOrUpdate(x, LocalBest(x));
    global_.ReplaceKey(u, w, LocalBest(w));
    heap_ops_ += changed_.size() + 1;
    heap_seconds_ += heap_timer.ElapsedSeconds();
  }

  /// Periodic dead-entry sweep: compacts every live row now dominated by
  /// stale entries. Catches rows staled by weeding, which no relink ever
  /// touches again.
  void SweepCompact() {
    ++compact_sweeps_;
    for (ClusterId id = 0; id < next_id_; ++id) {
      if (alive_[id]) MaybeCompact(arena_[id]);
    }
  }

  void WeedSmallClusters(RockResult* result) {
    std::vector<ClusterId> victims;
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (alive_[c] &&
          arena_[c].members.size() < options_.min_cluster_support) {
        victims.push_back(c);
      }
    }
    for (ClusterId c : victims) {
      ParClusterState& sc = arena_[c];
      result->stats.num_weeded_points += sc.members.size();
      for (PointIndex p : sc.members) weeded_points_.push_back(p);
      alive_[c] = 0;  // partners now skip c's stale entries lazily
      for (const RowEntry& e : sc.row) {
        const ClusterId x = e.partner;
        if (!alive_[x]) continue;
        ParClusterState& sx = arena_[x];
        --sx.live_links;
        // Lazy cleaning: losing c only removes candidates, so the stored
        // priority stays a valid upper bound and the heap needs no fixup
        // at all — x is cleaned if and when it surfaces at the top.
        if (!sx.dirty && sx.best_key == c) sx.dirty = true;
      }
      global_.Erase(c);
      heap_ops_ += 1;
      ReleaseState(sc);
      --num_live_;
      ++result->stats.num_weeded_clusters;
    }
  }

  /// Re-derives the merge loop's redundant state from first principles and
  /// reports every disagreement — the same checks (a)–(f) as the hashed
  /// oracle (membership partition, cross-links, goodness, heaps) over the
  /// interleaved row layout. Debug cadence only, never on by default.
  void VerifyBookkeeping(const LinkMatrix& links) {
    invariant_report_.NoteCheck();
    constexpr ClusterId kNoCluster = std::numeric_limits<ClusterId>::max();

    // (a) Live-cluster census and the monotone merge identity.
    size_t live = 0;
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (alive_[c]) ++live;
    }
    if (live != num_live_) {
      invariant_report_.Report(
          "merge.live_count", "num_live_ = " + std::to_string(num_live_) +
                                  " but census found " +
                                  std::to_string(live));
    }

    // (b) Membership partition: each unpruned, unweeded point sits in
    // exactly one live cluster.
    std::vector<PointIndex> weeded_sorted = weeded_points_;
    std::sort(weeded_sorted.begin(), weeded_sorted.end());
    std::vector<ClusterId> cluster_of(graph_.size(), kNoCluster);
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (!alive_[c]) continue;
      for (PointIndex p : arena_[c].members) {
        if (cluster_of[p] != kNoCluster) {
          invariant_report_.Report(
              "merge.partition", "point " + std::to_string(p) +
                                     " is in clusters " +
                                     std::to_string(cluster_of[p]) + " and " +
                                     std::to_string(c));
        }
        cluster_of[p] = c;
      }
    }
    for (size_t p = 0; p < graph_.size(); ++p) {
      const bool excluded =
          IsPruned(static_cast<PointIndex>(p)) ||
          std::binary_search(weeded_sorted.begin(), weeded_sorted.end(),
                             static_cast<PointIndex>(p));
      if (excluded == (cluster_of[p] != kNoCluster)) {
        invariant_report_.Report(
            "merge.partition",
            "point " + std::to_string(p) +
                (excluded ? " is pruned/weeded but still clustered"
                          : " is unassigned but not pruned/weeded"));
      }
    }

    for (ClusterId c = 0; c < next_id_; ++c) {
      if (!alive_[c]) continue;
      const ParClusterState& sc = arena_[c];

      // (c) Row shape: partner ids strictly ascending and live_links equal
      // to the live-entry census.
      size_t live_entries = 0;
      for (size_t i = 0; i < sc.row.size(); ++i) {
        if (i > 0 && sc.row[i].partner <= sc.row[i - 1].partner) {
          invariant_report_.Report(
              "merge.flat_row",
              "cluster " + std::to_string(c) + " partner row not strictly " +
                  "ascending at index " + std::to_string(i));
        }
        if (alive_[sc.row[i].partner]) ++live_entries;
      }
      if (live_entries != sc.live_links) {
        invariant_report_.Report(
            "merge.flat_row",
            "cluster " + std::to_string(c) + " live_links = " +
                std::to_string(sc.live_links) + " but census found " +
                std::to_string(live_entries));
      }

      // (d) Cross-links against a fresh recount from the point links.
      std::unordered_map<ClusterId, uint64_t> expect;
      for (PointIndex p : sc.members) {
        for (const auto& [q, count] : links.Row(p)) {
          const ClusterId other = cluster_of[q];
          if (other != kNoCluster && other != c) expect[other] += count;
        }
      }
      if (expect.size() != live_entries) {
        invariant_report_.Report(
            "merge.cross_links",
            "cluster " + std::to_string(c) + " tracks " +
                std::to_string(live_entries) + " partners but recount has " +
                std::to_string(expect.size()));
      }
      for (const RowEntry& e : sc.row) {
        if (!alive_[e.partner]) continue;
        auto it = expect.find(e.partner);
        if (it == expect.end() || it->second != e.count) {
          invariant_report_.Report(
              "merge.cross_links",
              "link[" + std::to_string(c) + ", " + std::to_string(e.partner) +
                  "] = " + std::to_string(e.count) + " but recount = " +
                  (it == expect.end() ? std::string("missing")
                                      : std::to_string(it->second)));
        }
      }

      // (e) Stored goodness values and the tracked argmax.
      ClusterId expect_best_key = 0;
      double expect_best_priority = kNoCandidate;
      for (const RowEntry& e : sc.row) {
        if (!alive_[e.partner]) continue;
        const double expected_g = goodness_.Goodness(
            e.count, sc.members.size(), arena_[e.partner].members.size());
        if (std::abs(e.goodness - expected_g) >
            1e-9 * (1.0 + std::abs(expected_g))) {
          invariant_report_.Report(
              "merge.goodness",
              "g(" + std::to_string(c) + ", " + std::to_string(e.partner) +
                  ") = " + std::to_string(e.goodness) +
                  " but recompute = " + std::to_string(expected_g));
        }
        if (e.goodness > expect_best_priority) {
          expect_best_priority = e.goodness;
          expect_best_key = e.partner;
        }
      }
      if (sc.dirty) {
        // A dirty cluster promises only an upper bound (lazy cleaning).
        if (sc.best_priority < expect_best_priority) {
          invariant_report_.Report(
              "merge.local_best",
              "dirty cluster " + std::to_string(c) + " stores bound " +
                  std::to_string(sc.best_priority) +
                  " below its true best " +
                  std::to_string(expect_best_priority));
        }
      } else if (sc.best_priority != expect_best_priority ||
                 (live_entries > 0 && sc.best_key != expect_best_key)) {
        invariant_report_.Report(
            "merge.local_best",
            "cluster " + std::to_string(c) + " tracks best (" +
                std::to_string(sc.best_key) + ", " +
                std::to_string(sc.best_priority) + ") but scan found (" +
                std::to_string(expect_best_key) + ", " +
                std::to_string(expect_best_priority) + ")");
      }

      // (f) Global heap: every live cluster present, keyed by its local
      // best.
      if (!global_.Contains(c)) {
        invariant_report_.Report(
            "merge.global_heap",
            "cluster " + std::to_string(c) + " missing from global heap");
        continue;
      }
      const double expected_best = LocalBest(c);
      const double actual_best = global_.PriorityOf(c);
      if (!(actual_best == expected_best) &&
          std::abs(actual_best - expected_best) >
              1e-9 * (1.0 + std::abs(expected_best))) {
        invariant_report_.Report(
            "merge.global_heap",
            "global priority of " + std::to_string(c) + " = " +
                std::to_string(actual_best) + " but local best = " +
                std::to_string(expected_best));
      }
    }
    if (global_.size() != num_live_) {
      invariant_report_.Report(
          "merge.global_heap",
          "global heap has " + std::to_string(global_.size()) +
              " entries for " + std::to_string(num_live_) +
              " live clusters");
    }
  }

  void BuildClustering(RockResult* result) {
    std::vector<ClusterIndex> assignment(graph_.size(), kUnassigned);
    ClusterIndex next = 0;
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (!alive_[c]) continue;
      for (PointIndex p : arena_[c].members) {
        assignment[p] = next;
      }
      ++next;
    }
    result->clustering = Clustering::FromAssignment(std::move(assignment));
    result->clustering.SortBySizeDescending();
  }

  const RockOptions& options_;
  GoodnessMeasure goodness_;
  const NeighborGraph& graph_;

  /// Per-run arena: slab per possible cluster id, allocated once. Slots of
  /// dead clusters are released (vectors freed) but never reused.
  std::vector<ParClusterState> arena_;
  std::vector<uint8_t> alive_;             // parallel to arena_
  UpdatableHeap<ClusterId, double> global_;
  std::vector<PointIndex> pruned_;         // sorted by construction
  std::vector<PointIndex> weeded_points_;
  std::vector<ClusterId> changed_;         // relink scratch: heap fixups
  size_t num_live_ = 0;
  ClusterId next_id_ = 0;

  diag::MetricsRegistry* metrics_ = nullptr;  // null → metrics disabled
  diag::InvariantReport invariant_report_;
  size_t check_every_ = 0;  // 0 → invariant checks disabled
  uint64_t relink_partners_ = 0;
  uint64_t relink_dead_skipped_ = 0;
  uint64_t relink_compactions_ = 0;
  uint64_t best_rescans_ = 0;
  uint64_t heap_ops_ = 0;
  uint64_t compact_sweeps_ = 0;
  double relink_seconds_ = 0.0;
  double heap_seconds_ = 0.0;
};

}  // namespace

RockResult RunParallelMergeEngine(const NeighborGraph& graph,
                                  const RockOptions& options) {
  ParallelMergeEngine engine(graph, options);
  return engine.Run();
}

}  // namespace rock::internal
