// tests/serve_test.cc — the build/serve split (clustering-as-a-service).
//
// Covers the model-bundle format (round-trip, pinned bytes, version-1
// loading, and every corruption shape must refuse to load), the
// ModelHandle query parser in id- and name-mode, the LabelServer's
// batching/admission/metrics behavior, the ServeLines line protocol, and
// the differential at the heart of the split: a served answer
// must be bit-identical to what `rock pipeline` assigns the same row, for
// every worker count and batch size.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/model_bundle.h"
#include "core/options.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/disk_store.h"
#include "data/transaction.h"
#include "diag/metrics.h"
#include "serve/model_handle.h"
#include "serve/reload.h"
#include "serve/server.h"
#include "test_support.h"
#include "util/bytes.h"
#include "util/checksum.h"
#include "util/failpoint.h"

namespace rock {
namespace {

namespace fs = std::filesystem;

constexpr size_t kStoreRows = 120;

std::string TempPath(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".bin"))
      .string();
}

/// Three well-separated transaction groups, as in pipeline_resume_test: the
/// sample clusters cleanly so labeling is deterministic across the grid.
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

/// A tiny hand-built id-mode bundle: cluster 0 lives on items 1..4,
/// cluster 1 on items 100..102. theta = 0.5 keeps the arithmetic obvious.
ModelBundle TinyBundle() {
  ModelBundle bundle;
  bundle.theta = 0.5;
  bundle.f_exponent = MarketBasketF(0.5);
  bundle.labeling_sets = {
      {Transaction({1, 2, 3}), Transaction({2, 3, 4})},
      {Transaction({100, 101}), Transaction({101, 102})},
  };
  bundle.fingerprint.store_count = 42;
  bundle.fingerprint.theta = bundle.theta;
  return bundle;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::Clear();
    store_path_ = TempPath("rock_serve_store");
    model_path_ = TempPath("rock_serve_model");
    ASSERT_TRUE(
        WriteDatasetToStore(MakeGroupedDataset(kStoreRows, 0x5e47), store_path_)
            .ok());
  }

  void TearDown() override {
    fail::Clear();
    std::remove(store_path_.c_str());
    std::remove(model_path_.c_str());
    std::remove((model_path_ + ".tmp").c_str());
  }

  PipelineOptions BaseOptions(double theta) const {
    PipelineOptions opt;
    opt.rock.theta = theta;
    opt.rock.num_clusters = 3;
    opt.sample_size = 60;
    opt.seed = 2026;
    opt.labeling.seed = 11;
    return opt;
  }

  std::string store_path_;
  std::string model_path_;
};

// ---------------------------------------------------------------------------
// Model-bundle format.

TEST_F(ServeTest, BundleRoundTripsEveryField) {
  ModelBundle bundle = TinyBundle();
  bundle.dictionary = {"milk", "bread", "beer"};
  ASSERT_TRUE(SaveModelBundle(bundle, model_path_).ok());

  auto loaded = LoadModelBundle(model_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->fingerprint == bundle.fingerprint);
  EXPECT_DOUBLE_EQ(loaded->theta, bundle.theta);
  EXPECT_DOUBLE_EQ(loaded->f_exponent, bundle.f_exponent);
  ASSERT_EQ(loaded->labeling_sets.size(), bundle.labeling_sets.size());
  for (size_t c = 0; c < bundle.labeling_sets.size(); ++c) {
    ASSERT_EQ(loaded->labeling_sets[c].size(), bundle.labeling_sets[c].size());
    for (size_t i = 0; i < bundle.labeling_sets[c].size(); ++i) {
      EXPECT_EQ(loaded->labeling_sets[c][i].items(),
                bundle.labeling_sets[c][i].items())
          << "cluster " << c << " point " << i;
    }
  }
  EXPECT_EQ(loaded->dictionary, bundle.dictionary);

  // The bundle is the labeler's only on-disk form: the reloaded model must
  // assign exactly as the labeler it was frozen from, including a probe
  // with no known item and the empty transaction.
  auto source = TransactionLabeler::FromParts(bundle.theta, bundle.f_exponent,
                                              bundle.labeling_sets);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto handle = ModelHandle::FromBundle(std::move(loaded).value());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const std::vector<Transaction> probes = {
      Transaction({1, 2}), Transaction({100, 101, 102}), Transaction({1, 102}),
      Transaction({999}), Transaction{},
  };
  for (const Transaction& probe : probes) {
    EXPECT_EQ(handle->labeler().Assign(probe), source->Assign(probe));
  }
}

// Byte length and CRC-32 of SaveModelBundle(TinyBundle()), recorded when
// the bundle moved onto the shared sealed-file envelope: the move must not
// change a single byte of the format.
TEST_F(ServeTest, BundleFormatIsPinned) {
  ASSERT_TRUE(SaveModelBundle(TinyBundle(), model_path_).ok());
  auto bytes = ReadFileBytes(model_path_);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes->size(), 248u);
  EXPECT_EQ(Crc32(bytes->data(), bytes->size()), 0x6b4b4688u);
}

TEST_F(ServeTest, Version1BundleLoadsWithEmptyProfile) {
  // A version-1 bundle is a version-2 one without the profile tail
  // (rows, outlier_share, mean_score, and a zero cluster count: 32 bytes
  // for an empty profile), sealed with version 1.
  ASSERT_TRUE(SaveModelBundle(TinyBundle(), model_path_).ok());
  auto read = ReadFileBytes(model_path_);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  std::vector<uint8_t> bytes = std::move(read).value();
  bytes.resize(bytes.size() - 32);
  const uint32_t version = 1;
  const uint64_t payload_size = bytes.size() - kSealedHeaderSize;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  PatchAndReseal(bytes, 12, payload_size);
  ASSERT_TRUE(WriteFileBytes(model_path_, bytes.data(), bytes.size()).ok());

  auto loaded = LoadModelBundle(model_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->profile.empty());
  EXPECT_TRUE(loaded->profile.cluster_share.empty());
  ASSERT_EQ(loaded->labeling_sets.size(), 2u);
  EXPECT_EQ(loaded->labeling_sets[1][1].items(),
            TinyBundle().labeling_sets[1][1].items());
  EXPECT_TRUE(ModelHandle::FromBundle(std::move(loaded).value()).ok());
}

TEST_F(ServeTest, LoadBundleRejectsEveryCorruptionShape) {
  ASSERT_TRUE(SaveModelBundle(TinyBundle(), model_path_).ok());
  const std::string scratch = model_path_ + ".corrupt";
  ExpectRejectsEveryCorruptionShape(
      model_path_, scratch,
      [](const std::string& path) { return LoadModelBundle(path).status(); },
      0x5e47ULL);
  std::remove(scratch.c_str());
}

TEST_F(ServeTest, ImplausibleParametersRefuseToServe) {
  ModelBundle bundle = TinyBundle();
  bundle.theta = 1.5;  // parses fine, but no valid model has this
  EXPECT_TRUE(SaveModelBundle(bundle, model_path_).IsInvalidArgument());
  EXPECT_TRUE(ModelHandle::FromBundle(bundle).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// ModelHandle query parsing.

TEST_F(ServeTest, IdModeParsesNumericTokens) {
  auto handle = ModelHandle::FromBundle(TinyBundle());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_FALSE(handle->has_dictionary());

  auto tx = handle->ParseQuery("3 1  2\t3");
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  EXPECT_EQ(tx->items(), (std::vector<ItemId>{1, 2, 3}));  // sorted, deduped

  EXPECT_TRUE(handle->ParseQuery("1 beer").status().IsInvalidArgument());
  EXPECT_TRUE(handle->ParseQuery("-3").status().IsInvalidArgument());
  EXPECT_TRUE(handle->ParseQuery("").status().IsInvalidArgument());
  EXPECT_TRUE(handle->ParseQuery("   \t ").status().IsInvalidArgument());
}

TEST_F(ServeTest, NameModeMapsTokensThroughDictionary) {
  ModelBundle bundle = TinyBundle();
  // Items 0..2 get names; the labeling sets above use other ids, but the
  // parser only needs the dictionary.
  bundle.dictionary = {"milk", "bread", "beer"};
  auto handle = ModelHandle::FromBundle(std::move(bundle));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(handle->has_dictionary());

  auto tx = handle->ParseQuery("beer milk");
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(tx->items(), (std::vector<ItemId>{0, 2}));

  // Unknown names map past the dictionary (never colliding with known
  // items), and the same unknown token dedupes within one query.
  auto unknown = handle->ParseQuery("milk caviar caviar truffle");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->items(), (std::vector<ItemId>{0, 3, 4}));
}

TEST_F(ServeTest, AssignMatchesHandAssignment) {
  auto handle = ModelHandle::FromBundle(TinyBundle());
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->num_clusters(), 2u);
  EXPECT_EQ(handle->labeler().Assign(Transaction({1, 2, 3})), 0);
  EXPECT_EQ(handle->labeler().Assign(Transaction({100, 101})), 1);
  EXPECT_EQ(handle->labeler().Assign(Transaction({500, 501})), kUnassigned);
}

// ---------------------------------------------------------------------------
// LabelServer.

TEST_F(ServeTest, ServerAnswersQueriesAndExportsMetrics) {
  auto handle = ModelHandle::FromBundle(TinyBundle());
  ASSERT_TRUE(handle.ok());

  diag::MetricsRegistry registry;
  ServeOptions options;
  options.num_threads = 2;
  options.max_batch = 4;
  options.metrics = &registry;
  LabelServer server(&*handle, options);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<ClusterIndex>> futures;
  for (int i = 0; i < 30; ++i) {
    auto f = server.Submit(Transaction({1, 2, 3}));
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    futures.push_back(std::move(*f));
  }
  auto outlier = server.Submit(Transaction({500}));
  ASSERT_TRUE(outlier.ok());
  for (auto& f : futures) EXPECT_EQ(f.get(), 0);
  EXPECT_EQ(outlier->get(), kUnassigned);
  server.Stop();

  const LabelServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, 31u);
  EXPECT_EQ(stats.outliers, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.batch_fill, 0.0);
  EXPECT_LE(stats.batch_fill, 4.0);

  const diag::RunMetrics metrics = registry.Snapshot();
  EXPECT_EQ(metrics.CounterOr("serve.requests"), 31u);
  EXPECT_EQ(metrics.CounterOr("serve.outliers"), 1u);
  EXPECT_EQ(metrics.CounterOr("serve.rejected"), 0u);
  EXPECT_GE(metrics.CounterOr("serve.batches"), 1u);
}

TEST_F(ServeTest, AdmissionBoundRejectsWhenQueueIsFull) {
  auto handle = ModelHandle::FromBundle(TinyBundle());
  ASSERT_TRUE(handle.ok());

  ServeOptions options;
  options.max_queue = 4;
  LabelServer server(&*handle, options);

  // Before Start nothing drains, so the queue fills deterministically.
  std::vector<std::future<ClusterIndex>> admitted;
  for (int i = 0; i < 4; ++i) {
    auto f = server.Submit(Transaction({1, 2, 3}));
    ASSERT_TRUE(f.ok()) << "submission " << i;
    admitted.push_back(std::move(*f));
  }
  auto rejected = server.Submit(Transaction({1, 2, 3}));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsFailedPrecondition());

  // The admitted four still get answers once the workers start.
  ASSERT_TRUE(server.Start().ok());
  for (auto& f : admitted) EXPECT_EQ(f.get(), 0);
  server.Stop();
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().requests, 4u);
  EXPECT_EQ(server.stats().peak_queue_depth, 4u);

  // After Stop every submission is refused.
  EXPECT_TRUE(server.Submit(Transaction({1}))
                  .status()
                  .IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// ServeLines protocol.

TEST_F(ServeTest, ServeLinesAnswersInOrderWithErrorsAndComments) {
  auto handle = ModelHandle::FromBundle(TinyBundle());
  ASSERT_TRUE(handle.ok());

  std::istringstream in(
      "# a comment line\n"
      "1 2 3\n"
      "\n"
      "   \n"
      "100 101\n"
      "not-an-id\n"
      "500 501\n"
      "2 3 4\n");
  std::ostringstream out;
  ServeOptions options;
  options.num_threads = 2;
  options.max_batch = 2;
  ASSERT_TRUE(ServeLines(*handle, options, in, out).ok());

  // One answer per non-blank, non-comment line, in submission order; the
  // malformed line yields an ERR slot in sequence.
  std::istringstream answers(out.str());
  std::string line;
  std::vector<std::string> got;
  while (std::getline(answers, line)) got.push_back(line);
  ASSERT_EQ(got.size(), 5u) << out.str();
  EXPECT_EQ(got[0], "0");
  EXPECT_EQ(got[1], "1");
  EXPECT_EQ(got[2].substr(0, 4), "ERR:");
  EXPECT_EQ(got[3], "-1");
  EXPECT_EQ(got[4], "0");
}

TEST_F(ServeTest, ServeLinesStaysBoundedOnLongStreams) {
  auto handle = ModelHandle::FromBundle(TinyBundle());
  ASSERT_TRUE(handle.ok());

  // Far more lines than max_queue: the window flush must keep the protocol
  // loop from deadlocking against its own admission bound.
  std::string input;
  for (int i = 0; i < 500; ++i) input += "1 2 3\n";
  std::istringstream in(input);
  std::ostringstream out;
  ServeOptions options;
  options.max_queue = 8;
  options.max_batch = 4;
  ASSERT_TRUE(ServeLines(*handle, options, in, out).ok());

  std::istringstream answers(out.str());
  std::string line;
  size_t count = 0;
  while (std::getline(answers, line)) {
    EXPECT_EQ(line, "0");
    ++count;
  }
  EXPECT_EQ(count, 500u);
}

// ---------------------------------------------------------------------------
// BuildModel and the serve ≡ pipeline differential.

TEST_F(ServeTest, BuildModelPersistsALoadableBundle) {
  ModelBuildOptions build;
  build.pipeline = BaseOptions(0.5);
  build.model_path = model_path_;
  auto built = BuildModel(store_path_, build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->sample_rows.size(), 60u);
  EXPECT_GE(built->bundle.labeling_sets.size(), 3u);
  EXPECT_EQ(built->metrics.CounterOr("model.saved"), 1u);
  EXPECT_EQ(built->metrics.CounterOr("sample.rows"), 60u);

  auto handle = ModelHandle::Load(model_path_);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_TRUE(handle->fingerprint() == built->bundle.fingerprint);
  EXPECT_EQ(handle->num_clusters(), built->bundle.labeling_sets.size());
}

TEST_F(ServeTest, BuildModelRefusesAnEmptyStore) {
  const std::string empty = TempPath("rock_serve_empty");
  ASSERT_TRUE(WriteDatasetToStore(TransactionDataset{}, empty).ok());
  ModelBuildOptions build;
  build.pipeline = BaseOptions(0.5);
  auto r = BuildModel(empty, build);
  std::remove(empty.c_str());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST_F(ServeTest, ServedAnswersMatchPipelineBitForBit) {
  for (double theta : {0.4, 0.5}) {
    SCOPED_TRACE(::testing::Message() << "theta=" << theta);
    auto pipeline = RunRockPipeline(store_path_, BaseOptions(theta));
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();

    ModelBuildOptions build;
    build.pipeline = BaseOptions(theta);
    build.model_path = model_path_;
    auto built = BuildModel(store_path_, build);
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    // The build half must reproduce the pipeline's sample and clustering
    // exactly — same rows, same merges.
    EXPECT_EQ(built->sample_rows, pipeline->sample_rows);
    EXPECT_EQ(built->sample_result.clustering.assignment,
              pipeline->sample_result.clustering.assignment);

    auto handle = ModelHandle::Load(model_path_);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();

    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t max_batch : {size_t{1}, size_t{7}, size_t{64}}) {
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " max_batch=" << max_batch);
        ServeOptions options;
        options.num_threads = threads;
        options.max_batch = max_batch;
        LabelServer server(&*handle, options);
        ASSERT_TRUE(server.Start().ok());

        auto reader = TransactionStoreReader::Open(store_path_);
        ASSERT_TRUE(reader.ok());
        std::vector<std::future<ClusterIndex>> futures;
        while (reader->Next()) {
          auto f = server.Submit(reader->transaction());
          ASSERT_TRUE(f.ok()) << f.status().ToString();
          futures.push_back(std::move(*f));
        }
        ASSERT_TRUE(reader->status().ok());
        ASSERT_EQ(futures.size(), pipeline->labeling.assignments.size());
        for (size_t row = 0; row < futures.size(); ++row) {
          EXPECT_EQ(futures[row].get(), pipeline->labeling.assignments[row])
              << "row " << row;
        }
        server.Stop();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hot reload: ModelReloadPoller + the SwappableModel ServeLines overload.

TEST_F(ServeTest, ReloadPollerSwapsOnlyWhenFingerprintChanges) {
  ASSERT_TRUE(SaveModelBundle(TinyBundle(), model_path_).ok());
  auto handle = ModelHandle::Load(model_path_);
  ASSERT_TRUE(handle.ok());
  SwappableModel model(std::make_shared<const ModelHandle>(std::move(*handle)));

  ModelReloadPoller poller(&model, ReloadOptions{model_path_, 0});

  // Same bundle on disk → no swap, however often we poll.
  for (int i = 0; i < 3; ++i) {
    auto polled = poller.PollOnce();
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    EXPECT_FALSE(*polled);
  }
  EXPECT_EQ(poller.swaps(), 0u);
  EXPECT_EQ(model.swaps(), 0u);

  // Publish a bundle with a different fingerprint (as a rebuild would,
  // atomically) and with the cluster order flipped so answers prove which
  // model served them.
  ModelBundle updated = TinyBundle();
  std::swap(updated.labeling_sets[0], updated.labeling_sets[1]);
  updated.fingerprint.store_count = 43;
  ASSERT_TRUE(SaveModelBundle(updated, model_path_).ok());

  auto polled = poller.PollOnce();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_TRUE(*polled);
  EXPECT_EQ(poller.swaps(), 1u);
  EXPECT_EQ(model.swaps(), 1u);
  EXPECT_EQ(model.Acquire()->fingerprint().store_count, 43u);

  // Polling again settles: the new fingerprint is now the served one.
  polled = poller.PollOnce();
  ASSERT_TRUE(polled.ok());
  EXPECT_FALSE(*polled);
  EXPECT_EQ(poller.polls(), 5u);
  EXPECT_EQ(poller.failures(), 0u);
}

TEST_F(ServeTest, ReloadPollerCountsFailedLoadsAndKeepsServing) {
  ASSERT_TRUE(SaveModelBundle(TinyBundle(), model_path_).ok());
  auto handle = ModelHandle::Load(model_path_);
  ASSERT_TRUE(handle.ok());
  SwappableModel model(std::make_shared<const ModelHandle>(std::move(*handle)));

  // Point the poller at a path with no bundle: every poll fails, nothing
  // swaps, and the in-memory model keeps serving.
  ModelReloadPoller poller(&model, ReloadOptions{model_path_ + ".gone", 0});
  auto polled = poller.PollOnce();
  EXPECT_FALSE(polled.ok());
  EXPECT_EQ(poller.failures(), 1u);
  EXPECT_EQ(poller.swaps(), 0u);
  EXPECT_EQ(model.Acquire()->fingerprint().store_count, 42u);

  diag::MetricsRegistry registry;
  poller.ExportMetrics(&registry);
  const diag::RunMetrics snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterOr("serve.reload.polls"), 1u);
  EXPECT_EQ(snap.CounterOr("serve.reload.failures"), 1u);
  EXPECT_EQ(snap.CounterOr("serve.reload.swaps"), 0u);
}

TEST_F(ServeTest, BackgroundPollerHotSwapsAPublishedBundle) {
  ASSERT_TRUE(SaveModelBundle(TinyBundle(), model_path_).ok());
  auto handle = ModelHandle::Load(model_path_);
  ASSERT_TRUE(handle.ok());
  SwappableModel model(std::make_shared<const ModelHandle>(std::move(*handle)));

  ModelReloadPoller poller(&model, ReloadOptions{model_path_, 2});
  poller.Start();

  ModelBundle updated = TinyBundle();
  updated.fingerprint.store_count = 99;
  ASSERT_TRUE(SaveModelBundle(updated, model_path_).ok());

  // The poll thread should notice within a couple of ticks; bound the wait
  // generously for slow CI machines.
  for (int i = 0; i < 2000 && model.swaps() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  poller.Stop();
  ASSERT_GE(model.swaps(), 1u);
  EXPECT_EQ(model.Acquire()->fingerprint().store_count, 99u);
  EXPECT_GE(poller.polls(), 1u);
}

TEST_F(ServeTest, SwappableServeLinesFollowsTheCurrentModel) {
  auto handle = ModelHandle::FromBundle(TinyBundle());
  ASSERT_TRUE(handle.ok());
  SwappableModel model(std::make_shared<const ModelHandle>(std::move(*handle)));

  ServeOptions options;
  options.num_threads = 2;
  options.max_batch = 2;

  // Model A: items 1..4 are cluster 0.
  {
    std::istringstream in("1 2 3\n100 101\n");
    std::ostringstream out;
    ASSERT_TRUE(ServeLines(model, options, in, out).ok());
    EXPECT_EQ(out.str(), "0\n1\n");
  }

  // Swap to a model with the clusters flipped: the same queries now get
  // the flipped answers — the overload serves whatever the SwappableModel
  // currently holds.
  ModelBundle flipped = TinyBundle();
  std::swap(flipped.labeling_sets[0], flipped.labeling_sets[1]);
  auto flipped_handle = ModelHandle::FromBundle(std::move(flipped));
  ASSERT_TRUE(flipped_handle.ok());
  model.Swap(
      std::make_shared<const ModelHandle>(std::move(*flipped_handle)));
  {
    std::istringstream in("1 2 3\n100 101\n");
    std::ostringstream out;
    ASSERT_TRUE(ServeLines(model, options, in, out).ok());
    EXPECT_EQ(out.str(), "1\n0\n");
  }
}

TEST_F(ServeTest, ModelSaveFaultsSurfaceAndRetry) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";

  // A transient torn write retries transparently…
  ModelBuildOptions build;
  build.pipeline = BaseOptions(0.5);
  build.pipeline.rock.failpoints = "model.save=fire_on_hit_1:torn_write";
  build.pipeline.retry_sleeper = [](double) {};
  build.model_path = model_path_;
  auto built = BuildModel(store_path_, build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_GE(built->metrics.CounterOr("retry.retries"), 1u);
  EXPECT_EQ(built->metrics.CounterOr("fault.fired.model.save"), 1u);
  EXPECT_TRUE(ModelHandle::Load(model_path_).ok());

  // …while a persistent failure fails the build (a model that never hit
  // disk must not report success).
  fail::Clear();
  build.pipeline.rock.failpoints = "model.save=fire_every_1:torn_write";
  auto failed = BuildModel(store_path_, build);
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
}

}  // namespace
}  // namespace rock
