#include "synth/basket_generator.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace rock {

Status BasketGeneratorOptions::Validate() const {
  if (cluster_sizes.empty()) {
    return Status::InvalidArgument("need at least one cluster");
  }
  if (cluster_sizes.size() != items_per_cluster.size()) {
    return Status::InvalidArgument(
        "cluster_sizes and items_per_cluster must be parallel");
  }
  for (size_t m : items_per_cluster) {
    if (m == 0) return Status::InvalidArgument("clusters need >= 1 item");
  }
  if (!(shared_item_fraction >= 0.0 && shared_item_fraction <= 1.0)) {
    return Status::InvalidArgument("shared_item_fraction must be in [0, 1]");
  }
  if (mean_tx_size <= 0.0 || stddev_tx_size < 0.0) {
    return Status::InvalidArgument("invalid transaction-size distribution");
  }
  if (min_tx_size == 0) {
    return Status::InvalidArgument("min_tx_size must be >= 1");
  }
  return Status::OK();
}

namespace {

/// Draws a clamped-normal transaction size in [min_size, max_size].
size_t DrawTxSize(const BasketGeneratorOptions& options, size_t max_size,
                  Rng* rng) {
  const double raw =
      rng->Normal(options.mean_tx_size, options.stddev_tx_size);
  auto t = static_cast<int64_t>(std::llround(raw));
  t = std::max<int64_t>(t, static_cast<int64_t>(options.min_tx_size));
  t = std::min<int64_t>(t, static_cast<int64_t>(max_size));
  return static_cast<size_t>(t);
}

}  // namespace

Result<TransactionDataset> GenerateBasketData(
    const BasketGeneratorOptions& options) {
  ROCK_RETURN_IF_ERROR(options.Validate());
  Rng rng(options.seed);
  const size_t k = options.cluster_sizes.size();

  // Build defining item sets. Shared items come from a pool sized so each
  // pool item is used by ~2 clusters; the rest are exclusive to a cluster.
  size_t total_shared = 0;
  std::vector<size_t> shared_per_cluster(k);
  for (size_t c = 0; c < k; ++c) {
    shared_per_cluster[c] = static_cast<size_t>(std::llround(
        options.shared_item_fraction *
        static_cast<double>(options.items_per_cluster[c])));
    // A cluster cannot share more items than it has.
    shared_per_cluster[c] =
        std::min(shared_per_cluster[c], options.items_per_cluster[c]);
    total_shared += shared_per_cluster[c];
  }
  const size_t pool_size = std::max<size_t>(1, (total_shared + 1) / 2);

  ItemId next_item = 0;
  std::vector<ItemId> pool(pool_size);
  for (auto& item : pool) item = next_item++;

  std::vector<std::vector<ItemId>> defining(k);
  for (size_t c = 0; c < k; ++c) {
    auto& items = defining[c];
    const size_t want_shared =
        std::min(shared_per_cluster[c], pool.size());
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(pool.size(), want_shared);
    for (size_t idx : picks) items.push_back(pool[idx]);
    const size_t exclusive = options.items_per_cluster[c] - want_shared;
    for (size_t e = 0; e < exclusive; ++e) items.push_back(next_item++);
  }

  std::vector<ItemId> all_items;
  for (const auto& items : defining) {
    all_items.insert(all_items.end(), items.begin(), items.end());
  }
  std::sort(all_items.begin(), all_items.end());
  all_items.erase(std::unique(all_items.begin(), all_items.end()),
                  all_items.end());

  // Generate rows: cluster transactions then outliers, then shuffle.
  struct Row {
    Transaction tx;
    std::string label;
  };
  std::vector<Row> rows;
  size_t total_rows = options.num_outliers;
  for (size_t s : options.cluster_sizes) total_rows += s;
  rows.reserve(total_rows);

  for (size_t c = 0; c < k; ++c) {
    const auto& items = defining[c];
    const std::string label = "cluster" + std::to_string(c);
    for (size_t t = 0; t < options.cluster_sizes[c]; ++t) {
      const size_t size = DrawTxSize(options, items.size(), &rng);
      std::vector<size_t> picks =
          rng.SampleWithoutReplacement(items.size(), size);
      std::vector<ItemId> tx_items;
      tx_items.reserve(size);
      for (size_t idx : picks) tx_items.push_back(items[idx]);
      rows.push_back(Row{Transaction(std::move(tx_items)), label});
    }
  }
  for (size_t o = 0; o < options.num_outliers; ++o) {
    const size_t size = DrawTxSize(options, all_items.size(), &rng);
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(all_items.size(), size);
    std::vector<ItemId> tx_items;
    tx_items.reserve(size);
    for (size_t idx : picks) tx_items.push_back(all_items[idx]);
    rows.push_back(Row{Transaction(std::move(tx_items)),
                       options.outlier_label});
  }
  rng.Shuffle(rows);

  TransactionDataset out;
  // Intern item names up front so ids in transactions match the dictionary.
  for (ItemId item = 0; item < next_item; ++item) {
    out.items().Intern(std::string("i").append(std::to_string(item)));
  }
  for (auto& row : rows) {
    out.AddTransaction(std::move(row.tx));
    out.labels().Append(row.label);
  }
  return out;
}

}  // namespace rock
