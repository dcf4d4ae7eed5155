// tests/streaming_test.cc — streaming append-mode clustering (DESIGN §11).
//
// Covers the store append path (generation stamps, crash-safe commit), the
// StreamingSession online-labeling loop, the drift detector, the
// SwappableModel swap atomicity under concurrent queries, and the soak
// harness at the heart of the PR: a seeded randomized append/query/reload/
// crash loop whose every incremental label is differentially checked
// against the §4.6 oracle — a recomputation (and a full LabelStore scan)
// with the exact model epoch that produced it, across θ × thread counts.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.h"
#include "common/status.h"
#include "core/labeling.h"
#include "core/model_bundle.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/disk_store.h"
#include "data/transaction.h"
#include "eval/drift.h"
#include "serve/model_handle.h"
#include "serve/server.h"
#include "serve/stream.h"
#include "test_support.h"
#include "util/failpoint.h"

namespace rock {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".bin"))
      .string();
}

/// Three well-separated transaction groups (as in serve_test): group g draws
/// items from [g*100, g*100+20), so the sample clusters cleanly and every
/// in-distribution row labels unambiguously.
TransactionDataset MakeGroupedDataset(size_t rows, uint64_t seed) {
  Rng rng(seed);
  TransactionDataset data;
  for (size_t i = 0; i < rows; ++i) {
    const uint32_t group = static_cast<uint32_t>(i % 3);
    std::vector<ItemId> items;
    const size_t k = 4 + static_cast<size_t>(rng.UniformUint64(4));
    for (size_t j = 0; j < k; ++j) {
      items.push_back(group * 100 +
                      static_cast<ItemId>(rng.UniformUint64(20)));
    }
    data.AddTransaction(Transaction(std::move(items)));
    data.labels().Append(std::string("g").append(std::to_string(group)));
  }
  return data;
}

/// One in-distribution row from group `group`.
Transaction MakeGroupedRow(uint32_t group, Rng& rng) {
  std::vector<ItemId> items;
  const size_t k = 4 + static_cast<size_t>(rng.UniformUint64(4));
  for (size_t j = 0; j < k; ++j) {
    items.push_back(group * 100 + static_cast<ItemId>(rng.UniformUint64(20)));
  }
  return Transaction(std::move(items));
}

/// One drifted row: items from a range no labeling set has ever seen, so it
/// labels as an outlier and drags the drift statistics away from the
/// profile.
Transaction MakeDriftedRow(Rng& rng) {
  std::vector<ItemId> items;
  const size_t k = 4 + static_cast<size_t>(rng.UniformUint64(4));
  for (size_t j = 0; j < k; ++j) {
    items.push_back(5000 + static_cast<ItemId>(rng.UniformUint64(40)));
  }
  return Transaction(std::move(items));
}

bool SameOutcome(const TransactionLabeler::AssignOutcome& a,
                 const TransactionLabeler::AssignOutcome& b) {
  return a.cluster == b.cluster && a.neighbors == b.neighbors &&
         a.score == b.score;
}

class StreamingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::Clear();
    store_path_ = Track(TempPath("rock_stream_store"));
    model_path_ = Track(TempPath("rock_stream_model"));
    Track(model_path_ + ".tmp");
    Track(store_path_ + ".append.tmp");
    checkpoint_path_ = Track(TempPath("rock_stream_ckpt"));
    Track(checkpoint_path_ + ".tmp");
  }

  void TearDown() override {
    fail::Clear();
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }

  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }

  void WriteStore(size_t rows, uint64_t seed) {
    ASSERT_TRUE(
        WriteDatasetToStore(MakeGroupedDataset(rows, seed), store_path_).ok());
  }

  ModelBuildOptions BuildOptions(double theta) const {
    ModelBuildOptions opt;
    opt.pipeline.rock.theta = theta;
    opt.pipeline.rock.num_clusters = 3;
    opt.pipeline.sample_size = 60;
    opt.pipeline.seed = 2026;
    opt.pipeline.labeling.seed = 11;
    opt.model_path = model_path_;
    return opt;
  }

  /// Builds + persists the initial model for the current store.
  void BuildInitialModel(double theta) {
    auto built = BuildModel(store_path_, BuildOptions(theta));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
  }

  StreamOptions SessionOptions(double theta) const {
    StreamOptions opt;
    opt.build = BuildOptions(theta);
    opt.build.pipeline.checkpoint_path = checkpoint_path_;
    opt.background_rebuild = false;
    return opt;
  }

  Result<std::unique_ptr<StreamingSession>> OpenSession(double theta) {
    return StreamingSession::Open(store_path_, model_path_,
                                  SessionOptions(theta));
  }

  std::string store_path_;
  std::string model_path_;
  std::string checkpoint_path_;
  std::vector<std::string> cleanup_;
};

// ---------------------------------------------------------------------------
// Store append: generation stamps and commit discipline.

TEST_F(StreamingTest, AppendStampsGenerationAndBaseCount) {
  WriteStore(30, 0x57a1);
  {
    auto r = TransactionStoreReader::Open(store_path_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->generation(), 0u) << "fresh stores start at generation 0";
    EXPECT_EQ(r->base_count(), 30u);
  }

  Rng rng(0x91);
  const std::vector<Transaction> batch1 = {MakeGroupedRow(0, rng),
                                           MakeGroupedRow(1, rng)};
  auto a1 = AppendToStore(store_path_, batch1, nullptr);
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(a1->base_count, 30u);
  EXPECT_EQ(a1->new_count, 32u);
  EXPECT_EQ(a1->generation, 1u);

  const std::vector<Transaction> batch2 = {MakeGroupedRow(2, rng)};
  const std::vector<LabelId> labels2 = {7};
  auto a2 = AppendToStore(store_path_, batch2, &labels2);
  ASSERT_TRUE(a2.ok()) << a2.status().ToString();
  EXPECT_EQ(a2->base_count, 32u);
  EXPECT_EQ(a2->new_count, 33u);
  EXPECT_EQ(a2->generation, 2u);

  // The grown file reads back whole (CRC re-verified), appended rows last,
  // with the header stamps visible to readers.
  auto r = TransactionStoreReader::Open(store_path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->count(), 33u);
  EXPECT_EQ(r->generation(), 2u);
  EXPECT_EQ(r->base_count(), 32u);
  std::vector<Transaction> rows;
  std::vector<LabelId> labels;
  while (r->Next()) {
    rows.push_back(r->transaction());
    labels.push_back(r->label());
  }
  ASSERT_TRUE(r->status().ok()) << r->status().ToString();
  ASSERT_EQ(rows.size(), 33u);
  EXPECT_EQ(rows[30].items(), batch1[0].items());
  EXPECT_EQ(rows[31].items(), batch1[1].items());
  EXPECT_EQ(rows[32].items(), batch2[0].items());
  EXPECT_EQ(labels[32], 7u);
}

TEST_F(StreamingTest, AppendRejectsEmptyAndMismatchedBatches) {
  WriteStore(10, 0xe0);
  Rng rng(0x92);
  EXPECT_TRUE(
      AppendToStore(store_path_, {}, nullptr).status().IsInvalidArgument());
  const std::vector<Transaction> rows = {MakeGroupedRow(0, rng)};
  const std::vector<LabelId> wrong = {1, 2};
  EXPECT_TRUE(
      AppendToStore(store_path_, rows, &wrong).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Incremental labels ≡ full §4.6 relabel, across θ × label threads.

TEST_F(StreamingTest, AppendLabelsMatchFullRelabelAcrossThetaAndThreads) {
  for (const double theta : {0.3, 0.6}) {
    SCOPED_TRACE(::testing::Message() << "theta = " << theta);
    WriteStore(150, 0xd1ff);
    BuildInitialModel(theta);

    auto session = OpenSession(theta);
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    Rng rng(0xbeef + static_cast<uint64_t>(theta * 100));
    std::vector<TransactionLabeler::AssignOutcome> incremental;
    const uint64_t base = (*session)->store_rows();
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<Transaction> rows;
      for (int i = 0; i < 8; ++i) {
        rows.push_back(
            MakeGroupedRow(static_cast<uint32_t>(rng.UniformUint64(3)), rng));
      }
      auto appended = (*session)->Append(rows, nullptr);
      ASSERT_TRUE(appended.ok()) << appended.status().ToString();
      incremental.insert(incremental.end(), appended->outcomes.begin(),
                         appended->outcomes.end());
    }

    // Oracle: the batch pipeline's whole-store labeling scan with the same
    // model, at several worker counts. The appended rows' incremental
    // labels must be the exact tail of every scan.
    auto handle = ModelHandle::Load(model_path_);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "threads = " << threads);
      LabelStoreOptions scan;
      scan.num_threads = threads;
      auto full = LabelStore(store_path_, handle->labeler(), scan);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ASSERT_EQ(full->assignments.size(), base + incremental.size());
      for (size_t i = 0; i < incremental.size(); ++i) {
        EXPECT_EQ(full->assignments[base + i], incremental[i].cluster)
            << "appended row " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property: Assign is order- and batch-independent.

TEST_F(StreamingTest, AssignIsOrderAndBatchIndependent) {
  WriteStore(150, 0x0bde);
  BuildInitialModel(0.4);

  ROCK_SEEDED_RNG(rng, 0x0bde5);
  std::vector<Transaction> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(rng.UniformUint64(5) == 0
                       ? MakeDriftedRow(rng)
                       : MakeGroupedRow(
                             static_cast<uint32_t>(rng.UniformUint64(3)), rng));
  }

  // (a) one bulk append.
  auto bulk_session = OpenSession(0.4);
  ASSERT_TRUE(bulk_session.ok()) << bulk_session.status().ToString();
  auto bulk = (*bulk_session)->Append(rows, nullptr);
  ASSERT_TRUE(bulk.ok()) << bulk.status().ToString();

  // (b) the same rows one at a time, in shuffled order, on a fresh copy of
  // the store (assignments depend only on the transaction and the model,
  // never on what else is in the store or the order of arrival).
  const std::string store2 = Track(TempPath("rock_stream_store_shuffled"));
  Track(store2 + ".append.tmp");
  ASSERT_TRUE(
      WriteDatasetToStore(MakeGroupedDataset(150, 0x0bde), store2).ok());
  auto one_session =
      StreamingSession::Open(store2, model_path_, SessionOptions(0.4));
  ASSERT_TRUE(one_session.ok()) << one_session.status().ToString();
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<size_t>(rng.UniformUint64(i))]);
  }
  std::vector<TransactionLabeler::AssignOutcome> shuffled(rows.size());
  for (const size_t idx : order) {
    auto one = (*one_session)->Append({rows[idx]}, nullptr);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    ASSERT_EQ(one->outcomes.size(), 1u);
    shuffled[idx] = one->outcomes[0];
  }

  // (c) direct AssignDetailed with a cold scratch per row.
  auto handle = ModelHandle::Load(model_path_);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  for (size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "row " << i);
    TransactionLabeler::Scratch cold;
    const auto direct =
        handle->labeler().AssignDetailed(rows[i], &cold, nullptr);
    EXPECT_TRUE(SameOutcome(bulk->outcomes[i], direct))
        << "bulk " << bulk->outcomes[i].cluster << " vs direct "
        << direct.cluster;
    EXPECT_TRUE(SameOutcome(shuffled[i], direct))
        << "shuffled " << shuffled[i].cluster << " vs direct "
        << direct.cluster;
  }
}

// ---------------------------------------------------------------------------
// Drift detection.

TEST_F(StreamingTest, DriftTripsOnShiftedDataAndIsSticky) {
  WriteStore(150, 0xdead);
  BuildInitialModel(0.4);

  StreamOptions opt = SessionOptions(0.4);
  // Verdicts only on a full window: the trip latch is sticky, so a
  // half-filled window's noisy shares must not be allowed to latch it
  // before the in-distribution phase is even complete.
  opt.drift.window = 32;
  opt.drift.min_observations = 32;
  opt.drift.share_tolerance = 0.45;
  // This test targets the share trip; the neighbor check is covered by
  // DriftDetectorTest.NeighborDecayTripsWithoutShareShift (0 disables it —
  // freshly drawn rows legitimately carry fewer neighbors than the
  // profiled sample rows, which can sit in the labeling sets themselves).
  opt.drift.neighbor_ratio = 0.0;
  auto session = StreamingSession::Open(store_path_, model_path_, opt);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  Rng rng(0x5711);
  // In-distribution rows keep the detector quiet.
  std::vector<Transaction> good;
  for (int i = 0; i < 32; ++i) {
    good.push_back(
        MakeGroupedRow(static_cast<uint32_t>(rng.UniformUint64(3)), rng));
  }
  auto quiet = (*session)->Append(good, nullptr);
  ASSERT_TRUE(quiet.ok()) << quiet.status().ToString();
  EXPECT_FALSE(quiet->drift_tripped)
      << "tv=" << quiet->drift.tv_distance
      << " neighbors=" << quiet->drift.window_mean_neighbors;

  // A window full of never-seen items turns everything into outliers: the
  // share distribution collapses into the outlier bucket and trips.
  std::vector<Transaction> drifted;
  for (int i = 0; i < 32; ++i) drifted.push_back(MakeDriftedRow(rng));
  auto shifted = (*session)->Append(drifted, nullptr);
  ASSERT_TRUE(shifted.ok()) << shifted.status().ToString();
  EXPECT_TRUE(shifted->drift_tripped);
  EXPECT_TRUE(shifted->drift.share_tripped);

  // Sticky: good data afterwards does not clear the latch — only a model
  // swap (Reset) does.
  auto after = (*session)->Append(good, nullptr);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->drift_tripped) << "the trip latch must be sticky";
}

TEST(DriftDetectorTest, NeighborDecayTripsWithoutShareShift) {
  ModelProfile profile;
  profile.rows = 100;
  profile.outlier_share = 0.0;
  profile.mean_score = 1.0;
  profile.cluster_share = {1.0};
  profile.mean_neighbors = {10.0};

  DriftOptions opt;
  opt.window = 16;
  opt.min_observations = 8;
  opt.share_tolerance = 0.5;  // shares will not move
  opt.neighbor_ratio = 0.5;   // trip below 5 mean neighbors
  DriftDetector detector(profile, opt);

  // Same cluster as the profile, but barely qualifying: goodness decay.
  for (int i = 0; i < 16; ++i) {
    detector.Observe({/*cluster=*/0, /*neighbors=*/2, /*score=*/0.1});
  }
  EXPECT_TRUE(detector.tripped());
  EXPECT_TRUE(detector.report().neighbor_tripped);
  EXPECT_FALSE(detector.report().share_tripped);

  // Reset installs a new baseline and clears the latch.
  detector.Reset(profile);
  EXPECT_FALSE(detector.tripped());
  EXPECT_EQ(detector.report().window_fill, 0u);
}

TEST(DriftDetectorTest, EmptyProfileObservesButNeverTrips) {
  DriftOptions opt;
  opt.window = 8;
  opt.min_observations = 1;
  DriftDetector detector(ModelProfile{}, opt);
  EXPECT_TRUE(detector.disabled());
  for (int i = 0; i < 32; ++i) {
    detector.Observe({kUnassigned, 0, 0.0});
  }
  EXPECT_FALSE(detector.tripped());
  EXPECT_EQ(detector.observed(), 32u);
}

TEST(DriftDetectorTest, VerdictIsBatchSizeIndependent) {
  ModelProfile profile;
  profile.rows = 90;
  profile.outlier_share = 0.1;
  profile.mean_score = 0.5;
  profile.cluster_share = {0.5, 0.4};
  profile.mean_neighbors = {6.0, 4.0};
  DriftOptions opt;
  opt.window = 24;
  opt.min_observations = 8;

  ROCK_SEEDED_RNG(rng, 0xba7c4);
  std::vector<TransactionLabeler::AssignOutcome> stream;
  for (int i = 0; i < 100; ++i) {
    const uint64_t pick = rng.UniformUint64(10);
    TransactionLabeler::AssignOutcome oc;
    if (pick < 4) {
      oc = {kUnassigned, 0, 0.0};
    } else {
      oc = {static_cast<ClusterIndex>(pick % 2),
            static_cast<uint32_t>(1 + rng.UniformUint64(8)), 0.3};
    }
    stream.push_back(oc);
  }

  // The same observation stream, delivered in any batching, must leave the
  // detector in an identical state after every prefix — Evaluate recomputes
  // from the window, so there is no incremental accumulation to diverge.
  DriftDetector one(profile, opt);
  DriftDetector chunked(profile, opt);
  size_t fed = 0;
  Rng chunk_rng(0x51ce);
  while (fed < stream.size()) {
    const size_t n =
        std::min(stream.size() - fed, 1 + chunk_rng.UniformUint64(7));
    for (size_t i = 0; i < n; ++i) one.Observe(stream[fed + i]);
    for (size_t i = 0; i < n; ++i) chunked.Observe(stream[fed + i]);
    fed += n;
    EXPECT_EQ(one.tripped(), chunked.tripped());
    EXPECT_EQ(one.report().tv_distance, chunked.report().tv_distance);
    EXPECT_EQ(one.report().window_mean_neighbors,
              chunked.report().window_mean_neighbors);
  }
}

// ---------------------------------------------------------------------------
// Drift-triggered rebuild + atomic swap.

TEST_F(StreamingTest, AutoRebuildSwapsModelAndResetsDrift) {
  WriteStore(150, 0xab1e);
  BuildInitialModel(0.4);

  StreamOptions opt = SessionOptions(0.4);
  opt.auto_rebuild = true;
  opt.background_rebuild = false;
  opt.drift.window = 32;
  opt.drift.min_observations = 16;
  opt.drift.share_tolerance = 0.4;
  auto session = StreamingSession::Open(store_path_, model_path_, opt);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const CheckpointFingerprint before = (*session)->Acquire()->fingerprint();

  Rng rng(0x4eb1);
  std::vector<Transaction> drifted;
  for (int i = 0; i < 32; ++i) drifted.push_back(MakeDriftedRow(rng));
  auto appended = (*session)->Append(drifted, nullptr);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_TRUE(appended->drift_tripped);
  EXPECT_TRUE(appended->rebuild_started);
  ASSERT_TRUE((*session)->WaitForRebuild().ok());
  EXPECT_EQ((*session)->rebuilds(), 1u);

  // The swapped-in model is the re-cluster of the grown store: its
  // fingerprint covers the new row count, in process and on disk alike.
  const CheckpointFingerprint after = (*session)->Acquire()->fingerprint();
  EXPECT_FALSE(after == before);
  EXPECT_EQ(after.store_count, (*session)->store_rows());
  auto on_disk = ModelHandle::Load(model_path_);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status().ToString();
  EXPECT_TRUE(on_disk->fingerprint() == after)
      << "the in-process swap and the published bundle must agree";

  // The rebuild resets the drift baseline: the window is empty and the
  // latch is clear.
  const DriftReport report = (*session)->drift_report();
  EXPECT_FALSE(report.tripped);
  EXPECT_EQ(report.window_fill, 0u);

  // The rebuild leaves no checkpoint behind (it is removed after the bundle
  // is safely on disk).
  EXPECT_FALSE(fs::exists(checkpoint_path_));

  // Labels after the swap come from the new model, bit-identical to a
  // fresh load of the published bundle.
  const Transaction probe = MakeGroupedRow(1, rng);
  TransactionLabeler::Scratch cold;
  EXPECT_TRUE(SameOutcome(
      (*session)->Label(probe),
      on_disk->labeler().AssignDetailed(probe, &cold, nullptr)));
}

TEST_F(StreamingTest, MaybeReloadPicksUpExternallyPublishedModel) {
  WriteStore(150, 0x4e10);
  BuildInitialModel(0.4);
  auto session = OpenSession(0.4);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  auto unchanged = (*session)->MaybeReload();
  ASSERT_TRUE(unchanged.ok()) << unchanged.status().ToString();
  EXPECT_FALSE(*unchanged) << "same fingerprint must not reload";

  // Another process publishes a new bundle (different sampling seed →
  // different fingerprint) to the same path.
  ModelBuildOptions other = BuildOptions(0.4);
  other.pipeline.seed = 777;
  ASSERT_TRUE(BuildModel(store_path_, other).ok());

  auto reloaded = (*session)->MaybeReload();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(*reloaded);
  EXPECT_EQ((*session)->Acquire()->fingerprint().sample_seed, 777u);
  auto again = (*session)->MaybeReload();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(*again);
}

// ---------------------------------------------------------------------------
// Swap atomicity under concurrent queries (the stale-handle regression).

TEST_F(StreamingTest, SwapMidStreamNeverMixesModels) {
  // Two hand-built models that answer the same probe differently: under A
  // the probe is cluster 0; under B (whose labeling sets exclude the
  // probe's items) it is an outlier. Any answer other than {0, -1} would
  // mean a query was answered by a mix of the two.
  ModelBundle a;
  a.theta = 0.5;
  a.f_exponent = MarketBasketF(0.5);
  a.labeling_sets = {{Transaction({1, 2, 3}), Transaction({2, 3, 4})},
                     {Transaction({100, 101}), Transaction({101, 102})}};
  a.fingerprint.store_count = 1;
  ModelBundle b;
  b.theta = 0.5;
  b.f_exponent = MarketBasketF(0.5);
  b.labeling_sets = {{Transaction({200, 201}), Transaction({201, 202})},
                     {Transaction({300, 301}), Transaction({301, 302})}};
  b.fingerprint.store_count = 2;

  auto handle_a = ModelHandle::FromBundle(std::move(a));
  auto handle_b = ModelHandle::FromBundle(std::move(b));
  ASSERT_TRUE(handle_a.ok() && handle_b.ok());
  auto shared_a = std::make_shared<const ModelHandle>(std::move(*handle_a));
  auto shared_b = std::make_shared<const ModelHandle>(std::move(*handle_b));

  const Transaction probe({1, 2, 3});
  TransactionLabeler::Scratch cold;
  const ClusterIndex answer_a = shared_a->labeler().Assign(probe);
  const ClusterIndex answer_b = shared_b->labeler().Assign(probe);
  ASSERT_EQ(answer_a, 0);
  ASSERT_EQ(answer_b, kUnassigned);

  SwappableModel model(shared_a);
  ServeOptions serve;
  serve.num_threads = 2;
  serve.max_batch = 4;
  LabelServer server(&model, serve);
  ASSERT_TRUE(server.Start().ok());

  // Hammer the probe while swapping back and forth. Every answer must be
  // exactly A's or exactly B's — snapshots pin whole batches to one model.
  std::vector<std::future<ClusterIndex>> answers;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 8; ++i) {
      auto f = server.Submit(probe);
      if (f.ok()) answers.push_back(std::move(*f));
    }
    model.Swap((round % 2 == 0) ? shared_b : shared_a);
  }
  for (auto& f : answers) {
    const ClusterIndex c = f.get();
    EXPECT_TRUE(c == answer_a || c == answer_b) << "mixed-model answer " << c;
  }

  // After the dust settles, the current model answers.
  model.Swap(shared_b);
  auto last = server.Submit(probe);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->get(), answer_b);
  server.Stop();
  EXPECT_GE(model.swaps(), 51u);
}

// ---------------------------------------------------------------------------
// Background rebuild concurrent with appends and queries (TSan leg).

TEST_F(StreamingTest, BackgroundRebuildRunsConcurrentlyWithTraffic) {
  WriteStore(150, 0xbac6);
  BuildInitialModel(0.4);

  StreamOptions opt = SessionOptions(0.4);
  opt.auto_rebuild = true;
  opt.background_rebuild = true;
  opt.drift.window = 32;
  opt.drift.min_observations = 16;
  opt.drift.share_tolerance = 0.4;
  auto session = StreamingSession::Open(store_path_, model_path_, opt);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  Rng rng(0x7ead);
  const Transaction probe = MakeGroupedRow(0, rng);
  std::atomic<bool> stop{false};
  // A reader thread querying through snapshots while appends trip drift
  // and the rebuild thread swaps the model underneath it.
  std::thread querier([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snapshot = (*session).get()->Acquire();
      TransactionLabeler::Scratch scratch;
      (void)snapshot->labeler().AssignDetailed(probe, &scratch, nullptr);
    }
  });

  bool rebuild_started = false;
  for (int batch = 0; batch < 6 && !rebuild_started; ++batch) {
    std::vector<Transaction> drifted;
    for (int i = 0; i < 16; ++i) drifted.push_back(MakeDriftedRow(rng));
    auto appended = (*session)->Append(drifted, nullptr);
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    rebuild_started = appended->rebuild_started;
  }
  EXPECT_TRUE(rebuild_started);
  ASSERT_TRUE((*session)->WaitForRebuild().ok());
  stop.store(true);
  querier.join();

  EXPECT_EQ((*session)->rebuilds(), 1u);
  EXPECT_EQ((*session)->Acquire()->fingerprint().store_count,
            (*session)->store_rows());
}

// ---------------------------------------------------------------------------
// The soak harness: seeded randomized append/query/reload/crash loop with a
// per-epoch differential oracle, across θ.

TEST_F(StreamingTest, RandomizedSoakDifferential) {
  for (const double theta : {0.3, 0.6}) {
    SCOPED_TRACE(::testing::Message() << "theta = " << theta);
    const uint64_t seed = 0x50a6 + static_cast<uint64_t>(theta * 1000);
    ROCK_SEEDED_RNG(rng, seed);

    WriteStore(150, seed);
    BuildInitialModel(theta);
    auto session = OpenSession(theta);
    ASSERT_TRUE(session.ok()) << session.status().ToString();

    struct LabeledRow {
      uint64_t row;
      size_t epoch;
      Transaction tx;
      TransactionLabeler::AssignOutcome outcome;
    };
    std::vector<LabeledRow> labeled;
    std::vector<std::shared_ptr<const ModelHandle>> epochs = {
        (*session)->Acquire()};
    uint64_t expected_rows = (*session)->store_rows();
    uint64_t expected_generation = 0;

    const auto make_batch = [&](size_t n) {
      std::vector<Transaction> rows;
      for (size_t i = 0; i < n; ++i) {
        rows.push_back(
            rng.UniformUint64(6) == 0
                ? MakeDriftedRow(rng)
                : MakeGroupedRow(static_cast<uint32_t>(rng.UniformUint64(3)),
                                 rng));
      }
      return rows;
    };

    for (int op = 0; op < 60; ++op) {
      SCOPED_TRACE(::testing::Message() << "op " << op);
      const uint64_t pick = rng.UniformUint64(10);
      if (pick < 5) {
        // Append a random batch and record every outcome with its epoch.
        const auto rows = make_batch(1 + rng.UniformUint64(6));
        auto appended = (*session)->Append(rows, nullptr);
        ASSERT_TRUE(appended.ok()) << appended.status().ToString();
        ASSERT_EQ(appended->store.base_count, expected_rows);
        expected_rows += rows.size();
        ++expected_generation;
        ASSERT_EQ(appended->store.generation, expected_generation);
        for (size_t i = 0; i < rows.size(); ++i) {
          labeled.push_back({appended->store.base_count + i,
                             epochs.size() - 1, rows[i],
                             appended->outcomes[i]});
        }
      } else if (pick < 7) {
        // Query: a read-only label must agree with a cold recomputation.
        const Transaction probe =
            MakeGroupedRow(static_cast<uint32_t>(rng.UniformUint64(3)), rng);
        TransactionLabeler::Scratch cold;
        EXPECT_TRUE(SameOutcome((*session)->Label(probe),
                                epochs.back()->labeler().AssignDetailed(
                                    probe, &cold, nullptr)));
      } else if (pick < 8 && fail::BuildEnabled()) {
        // Crash: arm a commit crash, watch the append fail, verify the
        // store is untouched, then retry — no duplicated rows.
        ASSERT_TRUE(
            fail::Configure("store.commit=fire_on_hit_1:crash").ok());
        const auto rows = make_batch(2);
        auto crashed = (*session)->Append(rows, nullptr);
        ASSERT_FALSE(crashed.ok());
        EXPECT_TRUE(fail::IsInjectedCrash(crashed.status()))
            << crashed.status().ToString();
        fail::Clear();
        {
          auto r = TransactionStoreReader::Open(store_path_);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ASSERT_EQ(r->count(), expected_rows)
              << "a crashed append must leave the store untouched";
          ASSERT_EQ(r->generation(), expected_generation);
        }
        auto retried = (*session)->Append(rows, nullptr);
        ASSERT_TRUE(retried.ok()) << retried.status().ToString();
        ASSERT_EQ(retried->store.base_count, expected_rows);
        expected_rows += rows.size();
        ++expected_generation;
        for (size_t i = 0; i < rows.size(); ++i) {
          labeled.push_back({retried->store.base_count + i, epochs.size() - 1,
                             rows[i], retried->outcomes[i]});
        }
      } else if (pick < 9) {
        // Reload: tear the session down and reopen it. The store header
        // and the model fingerprint must survive the round-trip.
        const CheckpointFingerprint fp = epochs.back()->fingerprint();
        session = OpenSession(theta);
        ASSERT_TRUE(session.ok()) << session.status().ToString();
        EXPECT_EQ((*session)->store_rows(), expected_rows);
        EXPECT_EQ((*session)->generation(), expected_generation);
        EXPECT_TRUE((*session)->Acquire()->fingerprint() == fp);
        epochs.back() = (*session)->Acquire();
      } else {
        // Re-cluster the grown store and swap: a new epoch begins.
        Status s = (*session)->Rebuild();
        ASSERT_TRUE(s.ok()) << s.ToString();
        epochs.push_back((*session)->Acquire());
        ASSERT_EQ(epochs.back()->fingerprint().store_count, expected_rows);
      }
    }

    // Differential oracle, per epoch: every incremental label must be
    // bit-identical to a cold recomputation with the model epoch that
    // produced it.
    for (const LabeledRow& entry : labeled) {
      SCOPED_TRACE(::testing::Message()
                   << "store row " << entry.row << " epoch " << entry.epoch);
      TransactionLabeler::Scratch cold;
      const auto oracle = epochs[entry.epoch]->labeler().AssignDetailed(
          entry.tx, &cold, nullptr);
      ASSERT_TRUE(SameOutcome(entry.outcome, oracle))
          << "incremental " << entry.outcome.cluster << " vs oracle "
          << oracle.cluster;
    }

    // And the rows labeled under the final epoch must be the exact tail of
    // a full multi-threaded LabelStore scan with that model.
    const size_t final_epoch = epochs.size() - 1;
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "threads = " << threads);
      LabelStoreOptions scan;
      scan.num_threads = threads;
      auto full =
          LabelStore(store_path_, epochs[final_epoch]->labeler(), scan);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      ASSERT_EQ(full->assignments.size(), expected_rows);
      for (const LabeledRow& entry : labeled) {
        if (entry.epoch != final_epoch) continue;
        EXPECT_EQ(full->assignments[entry.row], entry.outcome.cluster)
            << "store row " << entry.row;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CLI: `rock append` wires the whole stack together.

TEST_F(StreamingTest, CliAppendWritesTailIdenticalAssignments) {
  WriteStore(150, 0xc11);
  std::string out;
  ASSERT_EQ(RunCli({"build", "--store=" + store_path_,
                    "--model=" + model_path_, "--theta=0.4", "--k=3",
                    "--sample-size=60"},
                   &out),
            0)
      << out;

  const std::string extra = Track(TempPath("rock_stream_cli_extra"));
  ASSERT_TRUE(
      WriteDatasetToStore(MakeGroupedDataset(20, 0xc12), extra).ok());
  const std::string append_csv = Track(TempPath("rock_stream_cli_append"));
  out.clear();
  ASSERT_EQ(RunCli({"append", "--store=" + store_path_,
                    "--model=" + model_path_, "--from-store=" + extra,
                    "--assignments=" + append_csv},
                   &out),
            0)
      << out;
  EXPECT_NE(out.find("append: +20 rows"), std::string::npos) << out;

  const std::string full_csv = Track(TempPath("rock_stream_cli_full"));
  out.clear();
  ASSERT_EQ(RunCli({"query", "--model=" + model_path_,
                    "--from-store=" + store_path_,
                    "--assignments=" + full_csv},
                   &out),
            0)
      << out;

  // The append CSV (absolute row indices) must be the exact tail of the
  // full relabel CSV.
  std::ifstream full_in(full_csv);
  std::vector<std::string> full_lines;
  std::string line;
  while (std::getline(full_in, line)) full_lines.push_back(line);
  std::ifstream append_in(append_csv);
  std::vector<std::string> append_lines;
  while (std::getline(append_in, line)) append_lines.push_back(line);
  ASSERT_EQ(append_lines.size(), 21u) << "header + 20 rows";
  ASSERT_EQ(full_lines.size(), 171u);
  for (size_t i = 1; i < append_lines.size(); ++i) {
    EXPECT_EQ(append_lines[i], full_lines[150 + i]) << "line " << i;
  }
}

}  // namespace
}  // namespace rock
