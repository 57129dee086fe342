// Failure-injection tests: every misuse or broken environment the library
// can see should fail loudly with a typed exception, never by corrupting
// results.  Covers the storage loader (missing / truncated / permission-
// denied files), out-of-range reads, and trainer misconfiguration.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/precompute.h"
#include "core/sgc.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "loader/storage.h"
#include "tensor/rng.h"

namespace ppgnn {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const char* tag) {
  const auto dir = fs::temp_directory_path() /
                   (std::string("ppgnn_failtest_") + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<Tensor> small_hops(std::size_t rows = 16, std::size_t hops = 2,
                               std::size_t dim = 4) {
  Rng rng(1);
  std::vector<Tensor> out;
  for (std::size_t h = 0; h <= hops; ++h) {
    out.push_back(Tensor::normal({rows, dim}, rng));
  }
  return out;
}

// ------------------------------------------------------------- storage ----

TEST(StorageFailures, OpenMissingDirectoryThrows) {
  EXPECT_THROW(
      loader::FeatureFileStore::open("/nonexistent/ppgnn", 16, 3, 4),
      std::runtime_error);
}

TEST(StorageFailures, OpenMissingHopFileThrows) {
  const auto dir = temp_dir("missing_hop");
  auto store = loader::FeatureFileStore::create(dir, small_hops());
  // Remove one hop file and reopen: must throw, not read garbage.
  fs::remove(fs::path(dir) / "hop_1.bin");
  EXPECT_THROW(loader::FeatureFileStore::open(dir, 16, 3, 4),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(StorageFailures, TruncationDetectedAtOpenAndAtRead) {
  const auto dir = temp_dir("truncated");
  // Truncated after open (the store keeps its fds): the pread hits EOF
  // mid-read and fails at use time.
  auto store = loader::FeatureFileStore::create(dir, small_hops());
  const auto path = (fs::path(dir) / "hop_0.bin").string();
  fs::resize_file(path, fs::file_size(path) / 2);
  Tensor out({8, 3 * 4});
  EXPECT_THROW(store.read_chunk(8, 8, out), std::runtime_error);
  // Truncated before open: the file-length check (which also pins down
  // the row codec) fails loudly up front instead of on first read.
  EXPECT_THROW(loader::FeatureFileStore::open(dir, 16, 3, 4),
               std::invalid_argument);
  fs::remove_all(dir);
}

TEST(StorageFailures, TruncatedHopFileFailsOnAReaderThread) {
  // read_batch reads hop 0 on the calling thread and the other hop files
  // on reader threads.  A truncated hop_1 or hop_2 fails on a reader; the
  // error must be rethrown to the caller after every reader has joined.
  for (const char* victim : {"hop_1.bin", "hop_2.bin"}) {
    const auto dir = temp_dir("truncated_reader");
    auto store = loader::FeatureFileStore::create(dir, small_hops());
    const auto path = (fs::path(dir) / victim).string();
    fs::resize_file(path, fs::file_size(path) / 2);
    Tensor out({3, 3 * 4});
    EXPECT_THROW(store.read_batch({2, 12, 13}, out), std::runtime_error)
        << victim;
    fs::remove_all(dir);
  }
}

TEST(StorageFailures, OutOfRangeChunkThrows) {
  const auto dir = temp_dir("oob_chunk");
  auto store = loader::FeatureFileStore::create(dir, small_hops());
  Tensor out({8, 3 * 4});
  EXPECT_THROW(store.read_chunk(12, 8, out), std::out_of_range);
  EXPECT_THROW(store.read_chunk(16, 1, out), std::out_of_range);
  fs::remove_all(dir);
}

TEST(StorageFailures, OutOfRangeRowThrows) {
  const auto dir = temp_dir("oob_row");
  auto store = loader::FeatureFileStore::create(dir, small_hops());
  Tensor out({2, 3 * 4});
  EXPECT_THROW(store.read_rows({0, 16}, out), std::out_of_range);
  EXPECT_THROW(store.read_rows({-1, 0}, out), std::out_of_range);
  fs::remove_all(dir);
}

TEST(StorageFailures, MismatchedOutputShapeThrows) {
  const auto dir = temp_dir("bad_shape");
  auto store = loader::FeatureFileStore::create(dir, small_hops());
  Tensor wrong({4, 5});  // wrong width
  EXPECT_THROW(store.read_chunk(0, 4, wrong), std::invalid_argument);
  EXPECT_THROW(store.read_rows({0, 1, 2, 3}, wrong), std::invalid_argument);
  fs::remove_all(dir);
}

TEST(StorageFailures, CreateRejectsInconsistentHopShapes) {
  const auto dir = temp_dir("inconsistent");
  Rng rng(2);
  std::vector<Tensor> hops;
  hops.push_back(Tensor::normal({16, 4}, rng));
  hops.push_back(Tensor::normal({16, 5}, rng));  // different dim
  EXPECT_THROW(loader::FeatureFileStore::create(dir, hops),
               std::invalid_argument);
  fs::remove_all(dir);
}

TEST(StorageFailures, RoundTripSurvivesReopen) {
  // Positive control for the failure cases above: an intact store read
  // through a fresh open() returns bit-identical data.
  const auto dir = temp_dir("roundtrip");
  const auto hops = small_hops();
  {
    auto store = loader::FeatureFileStore::create(dir, hops);
  }
  auto store = loader::FeatureFileStore::open(dir, 16, 3, 4);
  Tensor out({16, 3 * 4});
  store.read_chunk(0, 16, out);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t h = 0; h <= 2; ++h) {
      for (std::size_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(out.at(i, h * 4 + d), hops[h].at(i, d));
      }
    }
  }
  fs::remove_all(dir);
}

// ------------------------------------------------------------- trainer ----

TEST(TrainerFailures, RejectsZeroBatchOrEpochs) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  core::PrecomputeConfig pc;
  pc.hops = 2;
  const auto pre = core::precompute(ds.graph, ds.features, pc);
  Rng rng(1);
  core::Sgc model(ds.feature_dim(), 2, ds.num_classes, rng);

  core::PpTrainConfig tc;
  tc.epochs = 0;
  EXPECT_THROW(core::train_pp(model, pre, ds, tc), std::invalid_argument);
  tc.epochs = 1;
  tc.batch_size = 0;
  EXPECT_THROW(core::train_pp(model, pre, ds, tc), std::invalid_argument);
}

TEST(TrainerFailures, RejectsHopMismatchBetweenModelAndPreprocessing) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  core::PrecomputeConfig pc;
  pc.hops = 2;
  const auto pre = core::precompute(ds.graph, ds.features, pc);
  Rng rng(1);
  // Model wants 4 hops; preprocessing provides 2 — width mismatch must
  // surface as an exception from the first forward, not silent slicing.
  core::Sgc model(ds.feature_dim(), 4, ds.num_classes, rng);
  core::PpTrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 64;
  EXPECT_THROW(core::train_pp(model, pre, ds, tc), std::invalid_argument);
}

TEST(TrainerFailures, StorageModeWithUnwritableDirThrows) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  core::PrecomputeConfig pc;
  pc.hops = 2;
  const auto pre = core::precompute(ds.graph, ds.features, pc);
  Rng rng(1);
  core::Sgc model(ds.feature_dim(), 2, ds.num_classes, rng);
  core::PpTrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 64;
  tc.mode = core::LoadingMode::kStorageChunk;
  tc.storage_dir = "/proc/ppgnn_unwritable";  // cannot create files here
  EXPECT_THROW(core::train_pp(model, pre, ds, tc), std::runtime_error);
}

// Truncates one hop file of a storage-mode run on the first training
// forward, i.e. after train_pp has opened the store and while the prefetch
// thread is still reading batches ahead.
class TruncatingModel : public core::PpModel {
 public:
  TruncatingModel(core::PpModel& inner, std::string hop_file)
      : inner_(inner), hop_file_(std::move(hop_file)) {}
  Tensor forward(const Tensor& batch, bool train) override {
    if (train && !done_) {
      fs::resize_file(hop_file_, 0);
      done_ = true;
    }
    return inner_.forward(batch, train);
  }
  void backward(const Tensor& g) override { inner_.backward(g); }
  void collect_params(std::vector<nn::ParamSlot>& out) override {
    inner_.collect_params(out);
  }
  std::string name() const override { return inner_.name(); }
  std::size_t hops() const override { return inner_.hops(); }

 private:
  core::PpModel& inner_;
  std::string hop_file_;
  bool done_ = false;
};

TEST(TrainerFailures, StorageReaderErrorReachesTrainPp) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  core::PrecomputeConfig pc;
  pc.hops = 2;
  const auto pre = core::precompute(ds.graph, ds.features, pc);
  Rng rng(1);
  core::Sgc sgc(ds.feature_dim(), 2, ds.num_classes, rng);
  const auto dir = temp_dir("train_reader");
  TruncatingModel model(sgc, (fs::path(dir) / "hop_1.bin").string());
  core::PpTrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  tc.chunk_size = 1;
  tc.mode = core::LoadingMode::kStorageChunk;
  tc.storage_dir = dir;
  ASSERT_GT(ds.split.train.size(), 8 * tc.batch_size);
  EXPECT_THROW(core::train_pp(model, pre, ds, tc), std::runtime_error);
  fs::remove_all(dir);
}

// ---------------------------------------------------------- precompute ----

TEST(PrecomputeFailures, RejectsFeatureRowMismatch) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  Rng rng(1);
  const Tensor wrong = Tensor::normal({ds.num_nodes() + 1, 8}, rng);
  core::PrecomputeConfig pc;
  pc.hops = 2;
  EXPECT_THROW(core::precompute(ds.graph, wrong, pc), std::invalid_argument);
}

TEST(PrecomputeFailures, MultiOperatorRejectsEmptyAndMismatchedHops) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  EXPECT_THROW(core::precompute_multi(ds.graph, ds.features, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppgnn
