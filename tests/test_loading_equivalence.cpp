// Semantic-equivalence properties of the loading-optimization ladder.
//
// The paper's Section 4 optimizations are pure mechanics: they change *how*
// batches reach the model, never *which* rows in *which* order.  Therefore:
//   (1) all SGD-RR modes (baseline / fused / prefetch) must produce
//       bit-identical training histories for the same seed;
//   (2) both SGD-CR modes (host chunks / storage chunks) must match each
//       other bit-for-bit — the on-disk store is just another byte source;
//   (3) PP-GNN logits are per-row independent: a node's prediction cannot
//       depend on which batch it shares (the property that makes batch
//       assembly order-free and chunk reshuffling safe).
// These hold for every PP-GNN model, so the suite is parameterized over
// all five.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/gamlp.h"
#include "core/hoga.h"
#include "core/precompute.h"
#include "core/sgc.h"
#include "core/sign.h"
#include "core/ssgc.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "tensor/ops.h"

namespace ppgnn::core {
namespace {

std::unique_ptr<PpModel> build(const std::string& kind,
                               const graph::Dataset& ds, std::size_t hops,
                               Rng& rng) {
  if (kind == "SGC") {
    return std::make_unique<Sgc>(ds.feature_dim(), hops, ds.num_classes, rng);
  }
  if (kind == "SSGC") {
    return std::make_unique<Ssgc>(ds.feature_dim(), hops, ds.num_classes, rng);
  }
  if (kind == "SIGN") {
    SignConfig cfg;
    cfg.feat_dim = ds.feature_dim();
    cfg.hops = hops;
    cfg.hidden = 16;
    cfg.classes = ds.num_classes;
    cfg.dropout = 0.f;  // keep forward deterministic across replays
    return std::make_unique<Sign>(cfg, rng);
  }
  if (kind == "GAMLP") {
    GamlpConfig cfg;
    cfg.feat_dim = ds.feature_dim();
    cfg.hops = hops;
    cfg.hidden = 16;
    cfg.classes = ds.num_classes;
    cfg.dropout = 0.f;
    return std::make_unique<Gamlp>(cfg, rng);
  }
  HogaConfig cfg;
  cfg.feat_dim = ds.feature_dim();
  cfg.hops = hops;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.classes = ds.num_classes;
  cfg.dropout = 0.f;
  return std::make_unique<Hoga>(cfg, rng);
}

class LoadingEquivalence : public ::testing::TestWithParam<std::string> {
 protected:
  static const graph::Dataset& dataset() {
    static const graph::Dataset ds =
        graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
    return ds;
  }
  static const Preprocessed& preprocessed() {
    static const Preprocessed pre = [] {
      PrecomputeConfig pc;
      pc.hops = 2;
      return precompute(dataset().graph, dataset().features, pc);
    }();
    return pre;
  }

  TrainHistory run_mode(LoadingMode mode, std::size_t chunk = 64) {
    Rng rng(42);
    auto model = build(GetParam(), dataset(), 2, rng);
    PpTrainConfig tc;
    tc.epochs = 4;
    tc.batch_size = 64;
    tc.chunk_size = chunk;
    tc.eval_every = 1;
    tc.seed = 7;
    tc.mode = mode;
    tc.storage_dir = (std::filesystem::temp_directory_path() /
                      ("ppgnn_equiv_" + GetParam()))
                         .string();
    const auto r = train_pp(*model, preprocessed(), dataset(), tc);
    return r.history;
  }

  static void expect_identical(const TrainHistory& a, const TrainHistory& b) {
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
      EXPECT_DOUBLE_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss)
          << "epoch " << e;
      EXPECT_DOUBLE_EQ(a.epochs[e].val_acc, b.epochs[e].val_acc)
          << "epoch " << e;
    }
  }
};

TEST_P(LoadingEquivalence, AllRrModesBitIdentical) {
  const auto baseline = run_mode(LoadingMode::kBaselinePerRow);
  const auto fused = run_mode(LoadingMode::kFusedAssembly);
  const auto prefetch = run_mode(LoadingMode::kPrefetch);
  expect_identical(baseline, fused);
  expect_identical(baseline, prefetch);
}

TEST_P(LoadingEquivalence, HostAndStorageChunkModesBitIdentical) {
  const auto host = run_mode(LoadingMode::kChunkPrefetch);
  const auto storage = run_mode(LoadingMode::kStorageChunk);
  expect_identical(host, storage);
}

TEST_P(LoadingEquivalence, ChunkSizeOneEqualsSgdRr) {
  // A chunk of one row is SGD-RR by construction (Table 6's chunk=1 rows).
  const auto rr = run_mode(LoadingMode::kPrefetch);
  const auto cr1 = run_mode(LoadingMode::kChunkPrefetch, /*chunk=*/1);
  expect_identical(rr, cr1);
}

TEST_P(LoadingEquivalence, StorageChunkSizeOneEqualsSgdRr) {
  // Storage reads at chunk size 1: every batch is almost all single-row
  // runs, read concurrently per hop file — still SGD-RR, bit for bit.
  const auto rr = run_mode(LoadingMode::kPrefetch);
  const auto storage1 = run_mode(LoadingMode::kStorageChunk, /*chunk=*/1);
  expect_identical(rr, storage1);
}

TEST_P(LoadingEquivalence, LogitsArePerRowIndependent) {
  Rng rng(9);
  auto model = build(GetParam(), dataset(), 2, rng);
  const auto& pre = preprocessed();
  const std::vector<std::int64_t> rows{3, 17, 101, 200};
  const Tensor together = model->forward(pre.expanded_rows(rows), false);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Tensor alone = model->forward(pre.expanded_rows({rows[i]}), false);
    for (std::size_t c = 0; c < together.cols(); ++c) {
      EXPECT_NEAR(together.at(i, c), alone.at(0, c), 1e-4f)
          << "row " << rows[i] << " class " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPpModels, LoadingEquivalence,
                         ::testing::Values("SGC", "SSGC", "SIGN", "GAMLP",
                                           "HOGA"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace ppgnn::core
