// Multi-kernel preprocessing (Eq. 2 with K operators) and its interaction
// with the PP-GNN models and the input-expansion accounting.
#include <gtest/gtest.h>

#include "core/precompute.h"
#include "core/sign.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "tensor/ops.h"

namespace ppgnn::core {
namespace {

std::vector<PrecomputeConfig> three_kernels(std::size_t hops) {
  PrecomputeConfig adj;
  adj.op = OperatorKind::kSymNorm;
  adj.hops = hops;
  PrecomputeConfig ppr;
  ppr.op = OperatorKind::kPpr;
  ppr.hops = hops;
  PrecomputeConfig heat;
  heat.op = OperatorKind::kHeat;
  heat.hops = hops;
  return {adj, ppr, heat};
}

TEST(MultiOperator, MatrixCountIsSharedXPlusKR) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  const auto pre = precompute_multi(ds.graph, ds.features, three_kernels(2));
  // 1 shared X + 3 kernels * 2 hops.
  EXPECT_EQ(pre.hop_features.size(), 1u + 3 * 2);
  EXPECT_EQ(pre.row_bytes(), 7 * ds.feature_dim() * sizeof(float));
}

TEST(MultiOperator, FirstKernelMatchesSingleOperatorRun) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  const auto multi = precompute_multi(ds.graph, ds.features, three_kernels(2));
  PrecomputeConfig adj;
  adj.hops = 2;
  const auto single = precompute(ds.graph, ds.features, adj);
  EXPECT_TRUE(allclose(multi.hop_features[0], single.hop_features[0]));
  EXPECT_TRUE(allclose(multi.hop_features[1], single.hop_features[1]));
  EXPECT_TRUE(allclose(multi.hop_features[2], single.hop_features[2]));
}

TEST(MultiOperator, KernelsProduceDistinctFeatures) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  const auto pre = precompute_multi(ds.graph, ds.features, three_kernels(1));
  // [X, adj, ppr, heat]: the three propagated variants must all differ.
  EXPECT_FALSE(allclose(pre.hop_features[1], pre.hop_features[2]));
  EXPECT_FALSE(allclose(pre.hop_features[1], pre.hop_features[3]));
  EXPECT_FALSE(allclose(pre.hop_features[2], pre.hop_features[3]));
}

TEST(MultiOperator, SignTrainsOnMultiKernelInput) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.08);
  const auto pre = precompute_multi(ds.graph, ds.features, three_kernels(2));
  Rng rng(1);
  SignConfig sc;
  sc.feat_dim = ds.feature_dim();
  sc.hops = pre.hop_features.size() - 1;  // branches = total matrices
  sc.hidden = 32;
  sc.classes = ds.num_classes;
  sc.dropout = 0.2f;
  Sign model(sc, rng);
  PpTrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 128;
  tc.eval_every = 2;
  const auto r = train_pp(model, pre, ds, tc);
  EXPECT_GT(r.history.peak_val_acc(), 0.6);
}

TEST(MultiOperator, RejectsEmptyConfig) {
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  EXPECT_THROW(precompute_multi(ds.graph, ds.features, {}),
               std::invalid_argument);
}

TEST(MultiOperator, PreprocessTimeAccumulates) {
  // The multi-operator time is the sum of one timed propagation per
  // operator — checked by construction, not by racing two wall clocks.
  const auto ds = graph::make_dataset(graph::DatasetName::kPokecSim, 0.05);
  const auto one = precompute(ds.graph, ds.features, {});
  ASSERT_EQ(one.operator_seconds.size(), 1u);
  EXPECT_EQ(one.operator_seconds[0], one.preprocess_seconds);
  const auto multi = precompute_multi(ds.graph, ds.features, three_kernels(3));
  ASSERT_EQ(multi.operator_seconds.size(), 3u);
  double sum = 0;
  for (const double s : multi.operator_seconds) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, multi.preprocess_seconds);
    sum += s;
  }
  EXPECT_EQ(multi.preprocess_seconds, sum);
}

TEST(MultiOperator, ExpansionMatchesPaperFormula) {
  // PaperScale::preprocessed_bytes models K(R+1); the in-memory multi-op
  // result stores 1 + K*R matrices (shared X); both grow linearly in K.
  const auto scale = graph::paper_scale(graph::DatasetName::kProductsSim);
  EXPECT_EQ(scale.preprocessed_bytes(3, 2), 2 * scale.preprocessed_bytes(3, 1));
}

}  // namespace
}  // namespace ppgnn::core
