#include "core/dendrogram.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"

namespace rock {

namespace {

/// Union-find over internal cluster ids with path compression.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = static_cast<uint32_t>(i);
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(uint32_t child, uint32_t root) {
    parent_[Find(child)] = Find(root);
  }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

Result<Dendrogram> Dendrogram::FromRockResult(const RockResult& result,
                                              size_t num_points) {
  if (result.clustering.assignment.size() != num_points) {
    return Status::InvalidArgument(
        "num_points does not match the result's clustering");
  }
  Dendrogram d;
  d.num_points_ = num_points;
  d.merges_ = result.merges;
  d.participates_.assign(num_points, false);
  for (size_t p = 0; p < num_points; ++p) {
    if (result.clustering.assignment[p] != kUnassigned) {
      d.participates_[p] = true;
    }
  }
  for (const MergeRecord& m : d.merges_) {
    if (m.merged < num_points || m.left >= m.merged || m.right >= m.merged) {
      return Status::InvalidArgument("corrupt merge history");
    }
    if (m.left < num_points) d.participates_[m.left] = true;
    if (m.right < num_points) d.participates_[m.right] = true;
  }
  for (size_t p = 0; p < num_points; ++p) {
    if (d.participates_[p]) ++d.num_participants_;
  }
  return d;
}

Clustering Dendrogram::CutAfterMerges(size_t m) const {
  m = std::min(m, merges_.size());
  const size_t id_space =
      merges_.empty() ? num_points_
                      : std::max<size_t>(num_points_,
                                         merges_.back().merged + 1);
  UnionFind uf(id_space);
  for (size_t i = 0; i < m; ++i) {
    uf.Union(merges_[i].left, merges_[i].merged);
    uf.Union(merges_[i].right, merges_[i].merged);
  }
  std::vector<ClusterIndex> assignment(num_points_, kUnassigned);
  std::unordered_map<uint32_t, ClusterIndex> root_to_cluster;
  for (size_t p = 0; p < num_points_; ++p) {
    if (!participates_[p]) continue;
    const uint32_t root = uf.Find(static_cast<uint32_t>(p));
    auto it = root_to_cluster
                  .emplace(root,
                           static_cast<ClusterIndex>(root_to_cluster.size()))
                  .first;
    assignment[p] = it->second;
  }
  Clustering out = Clustering::FromAssignment(std::move(assignment));
  out.SortBySizeDescending();
  return out;
}

Clustering Dendrogram::CutAtK(size_t k) const {
  if (k == 0) k = 1;
  if (num_participants_ <= k) return CutAfterMerges(0);
  const size_t wanted_merges = num_participants_ - k;
  return CutAfterMerges(std::min(wanted_merges, merges_.size()));
}

std::string Dendrogram::ToNewick() const {
  // children[id] = (left, right) for merged nodes.
  std::unordered_map<uint32_t, std::pair<uint32_t, uint32_t>> children;
  std::unordered_map<uint32_t, double> goodness;
  std::vector<bool> consumed_point(num_points_, false);
  std::unordered_map<uint32_t, bool> consumed_merged;
  for (const MergeRecord& m : merges_) {
    children[m.merged] = {m.left, m.right};
    goodness[m.merged] = m.goodness;
    for (uint32_t side : {m.left, m.right}) {
      if (side < num_points_) {
        consumed_point[side] = true;
      } else {
        consumed_merged[side] = true;
      }
    }
  }

  // Roots: merged nodes never consumed, plus participating loose points.
  std::vector<uint32_t> roots;
  for (const MergeRecord& m : merges_) {
    if (consumed_merged.find(m.merged) == consumed_merged.end()) {
      roots.push_back(m.merged);
    }
  }
  for (size_t p = 0; p < num_points_; ++p) {
    if (participates_[p] && !consumed_point[p]) {
      roots.push_back(static_cast<uint32_t>(p));
    }
  }
  std::sort(roots.begin(), roots.end());

  // Iterative rendering (merge chains can be deep).
  std::string out;
  auto render = [&](uint32_t root) {
    struct Frame {
      uint32_t id;
      int stage;  // 0 = open, 1 = between children, 2 = close
    };
    std::vector<Frame> stack{{root, 0}};
    while (!stack.empty()) {
      Frame& f = stack.back();
      auto it = children.find(f.id);
      if (it == children.end()) {
        out.append("p").append(std::to_string(f.id));
        stack.pop_back();
        continue;
      }
      if (f.stage == 0) {
        out += "(";
        f.stage = 1;
        stack.push_back({it->second.first, 0});
      } else if (f.stage == 1) {
        out += ",";
        f.stage = 2;
        stack.push_back({it->second.second, 0});
      } else {
        out += ")g=" + FormatDouble(goodness[f.id], 3);
        stack.pop_back();
      }
    }
  };

  if (roots.size() == 1) {
    render(roots[0]);
  } else {
    out += "(";
    for (size_t r = 0; r < roots.size(); ++r) {
      if (r > 0) out += ",";
      render(roots[r]);
    }
    out += ")";
  }
  out += ";";
  return out;
}

}  // namespace rock
