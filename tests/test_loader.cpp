#include <gtest/gtest.h>

#include <climits>
#include <cstring>
#include <numeric>
#include <unordered_set>

#include "loader/host_loader.h"
#include "loader/placement.h"
#include "loader/prefetch.h"
#include "loader/shuffler.h"
#include "loader/storage.h"
#include "tensor/ops.h"

namespace ppgnn::loader {
namespace {

TEST(Shuffler, RandomReshuffleIsPermutation) {
  Rng rng(1);
  const RandomReshuffler rr;
  const auto order = rr.epoch_order(1000, rng);
  std::vector<bool> seen(1000, false);
  for (const auto i : order) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, 1000);
    EXPECT_FALSE(seen[static_cast<std::size_t>(i)]);
    seen[static_cast<std::size_t>(i)] = true;
  }
  // Actually shuffled (astronomically unlikely to be identity).
  bool identity = true;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] != static_cast<std::int64_t>(i)) identity = false;
  }
  EXPECT_FALSE(identity);
}

TEST(Shuffler, DifferentEpochsDiffer) {
  Rng rng(2);
  const RandomReshuffler rr;
  EXPECT_NE(rr.epoch_order(100, rng), rr.epoch_order(100, rng));
}

TEST(Shuffler, ChunkReshuffleKeepsRunsContiguous) {
  Rng rng(3);
  const ChunkReshuffler cr(10);
  const auto order = cr.epoch_order(100, rng);
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < 100; i += 10) {
    EXPECT_EQ(order[i] % 10, 0);  // runs start at chunk boundaries
    for (std::size_t j = 1; j < 10; ++j) {
      EXPECT_EQ(order[i + j], order[i] + static_cast<std::int64_t>(j));
    }
  }
}

TEST(Shuffler, ChunkReshuffleHandlesTail) {
  Rng rng(4);
  const ChunkReshuffler cr(8);
  const auto order = cr.epoch_order(21, rng);  // chunks of 8, 8, 5
  ASSERT_EQ(order.size(), 21u);
  std::unordered_set<std::int64_t> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 21u);
}

TEST(Shuffler, ChunkSizeOneEqualsRR) {
  // Same rng seed: chunk-1 reshuffling is exactly SGD-RR.
  Rng r1(5), r2(5);
  const ChunkReshuffler cr(1);
  const RandomReshuffler rr;
  EXPECT_EQ(cr.epoch_order(64, r1), rr.epoch_order(64, r2));
}

TEST(Shuffler, FactoryPicksImplementation) {
  EXPECT_EQ(make_shuffler(1)->name(), "SGD-RR");
  EXPECT_EQ(make_shuffler(8000)->name(), "SGD-CR(8000)");
  EXPECT_THROW(ChunkReshuffler(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------

class BatchSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(6);
    feats_ = Tensor::normal({103, 7}, rng);
    labels_.resize(103);
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      labels_[i] = static_cast<std::int32_t>(i % 5);
    }
  }
  Tensor feats_;
  std::vector<std::int32_t> labels_;
};

TEST_F(BatchSourceTest, BaselineAndFusedProduceIdenticalBatches) {
  BatchSource src(&feats_, labels_.data(), 16);
  Rng rng(7);
  src.set_epoch_order(RandomReshuffler().epoch_order(103, rng));
  ASSERT_EQ(src.num_batches(), 7u);  // ceil(103/16)
  for (std::size_t k = 0; k < src.num_batches(); ++k) {
    const MiniBatch a = src.assemble_baseline(k);
    const MiniBatch b = src.assemble_fused(k);
    EXPECT_TRUE(allclose(a.features, b.features));
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.indices, b.indices);
  }
}

TEST_F(BatchSourceTest, LastBatchIsShort) {
  BatchSource src(&feats_, labels_.data(), 16);
  const MiniBatch last = src.assemble_fused(6);
  EXPECT_EQ(last.features.rows(), 103u - 6 * 16);
}

TEST_F(BatchSourceTest, BatchContentMatchesOrder) {
  BatchSource src(&feats_, labels_.data(), 10);
  std::vector<std::int64_t> order(103);
  std::iota(order.rbegin(), order.rend(), 0);  // reversed
  src.set_epoch_order(order);
  const MiniBatch mb = src.assemble_fused(0);
  EXPECT_EQ(mb.indices[0], 102);
  EXPECT_TRUE(allclose(gather_rows(feats_, {102, 101}),
                       gather_rows(mb.features, {0, 1})));
  EXPECT_EQ(mb.labels[0], labels_[102]);
}

TEST_F(BatchSourceTest, CountOnlySourceOrdersAndLabelsLikeAFullOne) {
  BatchSource full(&feats_, labels_.data(), 16);
  BatchSource count_only(feats_.rows(), labels_.data(), 16);
  Rng r1(7), r2(7);
  full.set_epoch_order(RandomReshuffler().epoch_order(103, r1));
  count_only.set_epoch_order(RandomReshuffler().epoch_order(103, r2));
  ASSERT_EQ(count_only.num_batches(), full.num_batches());
  for (std::size_t k = 0; k < full.num_batches(); ++k) {
    const MiniBatch a = full.assemble_fused(k);
    const MiniBatch b = count_only.index_batch(k);
    EXPECT_EQ(a.indices, b.indices);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_TRUE(b.features.empty());
  }
  EXPECT_THROW(count_only.assemble_fused(0), std::logic_error);
  EXPECT_THROW(count_only.assemble_baseline(0), std::logic_error);
}

TEST_F(BatchSourceTest, Validation) {
  EXPECT_THROW(BatchSource(nullptr, labels_.data(), 4), std::invalid_argument);
  EXPECT_THROW(BatchSource(&feats_, labels_.data(), 0), std::invalid_argument);
  BatchSource src(&feats_, labels_.data(), 16);
  EXPECT_THROW(src.set_epoch_order({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(src.assemble_fused(99), std::out_of_range);
}

// ---------------------------------------------------------------------------

TEST(Prefetcher, DeliversAllBatchesInOrder) {
  Rng rng(8);
  Tensor feats = Tensor::normal({64, 4}, rng);
  std::vector<std::int32_t> labels(64, 1);
  BatchSource src(&feats, labels.data(), 8);
  PrefetchingLoader loader(
      [&](std::size_t k) { return src.assemble_fused(k); },
      src.num_batches());
  MiniBatch mb;
  std::size_t count = 0;
  std::int64_t expect_first = 0;
  while (loader.next(mb)) {
    EXPECT_EQ(mb.indices[0], expect_first);  // identity order
    expect_first += 8;
    ++count;
  }
  EXPECT_EQ(count, 8u);
  EXPECT_FALSE(loader.next(mb));  // exhausted stays exhausted
}

TEST(Prefetcher, ProducerRunsAheadAtMostTwo) {
  std::atomic<int> produced{0};
  PrefetchingLoader loader(
      [&](std::size_t) {
        ++produced;
        MiniBatch mb;
        mb.features = Tensor({1, 1});
        return mb;
      },
      10);
  // Give the producer time: it may fill the two buffers plus one in-flight.
  MiniBatch mb;
  ASSERT_TRUE(loader.next(mb));
  for (int spin = 0; spin < 1000 && produced.load() < 3; ++spin) {
    std::this_thread::yield();
  }
  EXPECT_LE(produced.load(), 4);  // 1 consumed + 2 buffered + 1 in flight
}

TEST(Prefetcher, ProducerExceptionReachesConsumer) {
  // A storage error on the loader thread must surface as an exception from
  // next() on the consumer thread — never std::terminate.
  PrefetchingLoader loader(
      [](std::size_t k) -> MiniBatch {
        if (k == 2) throw std::runtime_error("injected read failure");
        MiniBatch mb;
        mb.features = Tensor({1, 1});
        mb.labels = {0};
        mb.indices = {static_cast<std::int64_t>(k)};
        return mb;
      },
      /*num_batches=*/8);
  MiniBatch mb;
  std::size_t delivered = 0;
  try {
    while (loader.next(mb)) ++delivered;
    FAIL() << "expected the injected failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected read failure");
  }
  EXPECT_LE(delivered, 2u);
}

TEST(Prefetcher, DestructionWithUnconsumedBatchesIsClean) {
  auto loader = std::make_unique<PrefetchingLoader>(
      [](std::size_t) {
        MiniBatch mb;
        mb.features = Tensor({2, 2});
        return mb;
      },
      100);
  MiniBatch mb;
  ASSERT_TRUE(loader->next(mb));
  loader.reset();  // must join without deadlock
  SUCCEED();
}

// ---------------------------------------------------------------------------

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(9);
    for (int h = 0; h < 3; ++h) {
      hops_.push_back(Tensor::normal({50, 6}, rng));
    }
    dir_ = ::testing::TempDir() + "/ppgnn_store_test";
  }
  std::vector<Tensor> hops_;
  std::string dir_;
};

TEST_F(StorageTest, ChunkReadRoundTrips) {
  const auto store = FeatureFileStore::create(dir_, hops_);
  EXPECT_EQ(store.num_rows(), 50u);
  EXPECT_EQ(store.row_bytes(), 3u * 6 * 4);
  Tensor out({10, 18});
  store.read_chunk(20, 10, out);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t h = 0; h < 3; ++h) {
      for (std::size_t j = 0; j < 6; ++j) {
        EXPECT_FLOAT_EQ(out.at(i, h * 6 + j), hops_[h].at(20 + i, j));
      }
    }
  }
}

TEST_F(StorageTest, RandomRowReadMatchesChunkRead) {
  const auto store = FeatureFileStore::create(dir_, hops_);
  Tensor rows({3, 18});
  store.read_rows({5, 49, 0}, rows);
  Tensor chunk({1, 18});
  store.read_chunk(49, 1, chunk);
  for (std::size_t j = 0; j < 18; ++j) {
    EXPECT_FLOAT_EQ(rows.at(1, j), chunk.at(0, j));
  }
}

TEST_F(StorageTest, ReopenSeesSameData) {
  { const auto store = FeatureFileStore::create(dir_, hops_); }
  const auto reopened = FeatureFileStore::open(dir_, 50, 3, 6);
  Tensor out({50, 18});
  reopened.read_chunk(0, 50, out);
  EXPECT_FLOAT_EQ(out.at(7, 0), hops_[0].at(7, 0));
  EXPECT_FLOAT_EQ(out.at(7, 12), hops_[2].at(7, 0));
}

TEST_F(StorageTest, BoundsChecked) {
  const auto store = FeatureFileStore::create(dir_, hops_);
  Tensor out({10, 18});
  EXPECT_THROW(store.read_chunk(45, 10, out), std::out_of_range);
  Tensor bad({10, 7});
  EXPECT_THROW(store.read_chunk(0, 10, bad), std::invalid_argument);
  Tensor rows({1, 18});
  EXPECT_THROW(store.read_rows({50}, rows), std::out_of_range);
  EXPECT_THROW(store.read_rows({-1}, rows), std::out_of_range);
}

// read_batch must return, row for row, exactly the bytes of a one-row
// read_chunk — whatever the order, the runs, the hop count or the codec.
void expect_batch_matches_rows(const FeatureFileStore& store,
                               const std::vector<std::int64_t>& ids) {
  const std::size_t width = store.num_hops() * store.hop_dim();
  Tensor batch({ids.size(), width});
  store.read_batch(ids, batch);
  Tensor one({1, width});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    store.read_chunk(static_cast<std::size_t>(ids[i]), 1, one);
    ASSERT_EQ(std::memcmp(batch.row(i), one.data(), width * sizeof(float)), 0)
        << "batch position " << i << " (row " << ids[i] << ")";
  }
}

// Row ids with ascending runs of consecutive ids, in no global order.
const std::vector<std::int64_t> kRunIds{10, 11, 12, 3, 4, 40, 41,
                                        42, 43, 0,  49, 7,  7};

TEST_F(StorageTest, BatchReadOfShuffledIdsMatchesRowReads) {
  const auto store = FeatureFileStore::create(dir_, hops_);
  std::vector<std::int64_t> ids(50);
  std::iota(ids.begin(), ids.end(), std::int64_t{0});
  Rng rng(10);
  rng.shuffle(ids);
  expect_batch_matches_rows(store, ids);
}

TEST_F(StorageTest, BatchReadIssuesOnePreadvPerRunPerHop) {
  const auto store = FeatureFileStore::create(dir_, hops_);
  const std::uint64_t before = store.preads();
  Tensor out({kRunIds.size(), 18});
  store.read_batch(kRunIds, out);
  // Runs: 10-12, 3-4, 40-43, 0, 49, 7, 7 (a repeat is its own run).
  EXPECT_EQ(store.preads() - before, 7u * 3);
  expect_batch_matches_rows(store, kRunIds);
}

TEST_F(StorageTest, BatchReadSplitsRunsLongerThanIovMax) {
  Rng rng(11);
  std::vector<Tensor> hops;
  for (int h = 0; h < 3; ++h) hops.push_back(Tensor::normal({2600, 4}, rng));
  const auto store = FeatureFileStore::create(dir_, hops);
  std::vector<std::int64_t> ids(2500);
  std::iota(ids.begin(), ids.end(), std::int64_t{50});
  ASSERT_GT(ids.size(), static_cast<std::size_t>(IOV_MAX));
  const std::uint64_t before = store.preads();
  Tensor out({ids.size(), 12});
  store.read_batch(ids, out);
  const std::size_t per_hop = (ids.size() + IOV_MAX - 1) / IOV_MAX;
  EXPECT_EQ(store.preads() - before, 3 * per_hop);
  expect_batch_matches_rows(store, ids);
}

TEST_F(StorageTest, BatchReadOfOneHopStore) {
  // One hop: a run's row slots touch, so each run is a single iovec.
  const auto store = FeatureFileStore::create(dir_, {hops_[0]});
  const std::uint64_t before = store.preads();
  Tensor out({kRunIds.size(), 6});
  store.read_batch(kRunIds, out);
  EXPECT_EQ(store.preads() - before, 7u);
  expect_batch_matches_rows(store, kRunIds);
}

TEST_F(StorageTest, BatchReadOfInt8StoreMatchesRowReads) {
  const auto store = FeatureFileStore::create(dir_, hops_, RowCodec::kInt8);
  expect_batch_matches_rows(store, kRunIds);
  std::vector<std::int64_t> ids(50);
  std::iota(ids.begin(), ids.end(), std::int64_t{0});
  Rng rng(12);
  rng.shuffle(ids);
  expect_batch_matches_rows(store, ids);
}

TEST_F(StorageTest, BatchReadBoundsChecked) {
  const auto store = FeatureFileStore::create(dir_, hops_);
  Tensor out({2, 18});
  EXPECT_THROW(store.read_batch({0, 50}, out), std::out_of_range);
  EXPECT_THROW(store.read_batch({-1, 0}, out), std::out_of_range);
  Tensor bad({2, 17});
  EXPECT_THROW(store.read_batch({0, 1}, bad), std::invalid_argument);
}

TEST_F(StorageTest, CreateValidatesShapes) {
  hops_.push_back(Tensor({50, 7}));  // wrong dim
  EXPECT_THROW(FeatureFileStore::create(dir_, hops_), std::invalid_argument);
  EXPECT_THROW(FeatureFileStore::create(dir_, {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------

TEST(Placement, SmallInputGoesToGpu) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{3} << 30;   // 3 GiB (papers100M-like)
  req.model_peak_bytes = std::size_t{2} << 30;
  const auto d = decide_placement(req, m);
  EXPECT_EQ(d.placement, sim::DataPlacement::kGpu);
  EXPECT_FALSE(d.chunk_reshuffle);
}

TEST(Placement, MediumInputGoesToHostWithChunks) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{160} << 30;  // 160 GiB (igb-medium R=3)
  req.model_peak_bytes = std::size_t{4} << 30;
  const auto d = decide_placement(req, m);
  EXPECT_EQ(d.placement, sim::DataPlacement::kHost);
  EXPECT_TRUE(d.chunk_reshuffle);
  EXPECT_EQ(d.loader, sim::LoaderKind::kChunkPipeline);
}

TEST(Placement, PinningBudgetFallsBackToRR) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{300} << 30;  // fits 380 GB but > 50% pinnable
  req.model_peak_bytes = std::size_t{4} << 30;
  const auto d = decide_placement(req, m);
  EXPECT_EQ(d.placement, sim::DataPlacement::kHost);
  EXPECT_FALSE(d.chunk_reshuffle);
}

TEST(Placement, UserForcesRR) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{100} << 30;
  req.model_peak_bytes = std::size_t{4} << 30;
  req.force_sgd_rr = true;
  const auto d = decide_placement(req, m);
  EXPECT_FALSE(d.chunk_reshuffle);
}

TEST(Placement, HugeInputGoesToStorage) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{1600} << 30;  // igb-large after expansion
  req.model_peak_bytes = std::size_t{8} << 30;
  const auto d = decide_placement(req, m);
  EXPECT_EQ(d.placement, sim::DataPlacement::kStorage);
  EXPECT_TRUE(d.chunk_reshuffle);
}

TEST(Placement, MultiGpuExpandsGpuBudget) {
  const auto m = sim::MachineSpec::paper_server();
  PlacementRequest req;
  req.input_bytes = std::size_t{100} << 30;  // > 1 GPU (48G), < 4 GPUs
  req.model_peak_bytes = std::size_t{2} << 30;
  req.num_gpus = 4;
  const auto d4 = decide_placement(req, m);
  EXPECT_EQ(d4.placement, sim::DataPlacement::kGpu);
  req.num_gpus = 1;
  const auto d1 = decide_placement(req, m);
  EXPECT_EQ(d1.placement, sim::DataPlacement::kHost);
}

}  // namespace
}  // namespace ppgnn::loader
