#include <gtest/gtest.h>

#include <cstring>

#include "grad_check.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace ppgnn {
namespace {

using testing::check_gradients;

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  nn::Linear lin(4, 3, rng);
  lin.bias()[1] = 5.f;
  Tensor x = Tensor::normal({2, 4}, rng);
  const Tensor y = lin.forward(x, false);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 3u);
  // y = xW + b exactly.
  Tensor expect = matmul(x, lin.weight());
  add_row_vector(expect, lin.bias());
  EXPECT_TRUE(allclose(y, expect));
}

TEST(Linear, GradCheck) {
  Rng rng(2);
  nn::Linear lin(5, 4, rng);
  check_gradients(lin, Tensor::normal({3, 5}, rng));
}

TEST(Linear, NoBiasVariant) {
  Rng rng(3);
  nn::Linear lin(3, 2, rng, /*use_bias=*/false);
  std::vector<nn::ParamSlot> slots;
  lin.collect_params(slots);
  EXPECT_EQ(slots.size(), 1u);
  check_gradients(lin, Tensor::normal({2, 3}, rng));
}

TEST(Linear, GradAccumulatesAcrossBackwardCalls) {
  Rng rng(4);
  nn::Linear lin(2, 2, rng);
  Tensor x = Tensor::normal({2, 2}, rng);
  Tensor g = Tensor::full({2, 2}, 1.f);
  lin.zero_grad();
  (void)lin.forward(x, true);
  (void)lin.backward(g);
  std::vector<nn::ParamSlot> slots;
  lin.collect_params(slots);
  const Tensor once = *slots[0].grad;
  (void)lin.forward(x, true);
  (void)lin.backward(g);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR((*slots[0].grad)[i], 2.f * once[i], 1e-5f);
  }
}

TEST(Linear, BackwardParamsMatchesFullBackwardBitwise) {
  // Two layers with the same seed: one runs the full backward, the other
  // the parameters-only one.  dW and db must be the same bytes.
  Rng rng_a(5), rng_b(5), rng(6);
  nn::Linear full(37, 19, rng_a), params_only(37, 19, rng_b);
  const Tensor x = Tensor::normal({23, 37}, rng);
  const Tensor g = Tensor::normal({23, 19}, rng);
  full.zero_grad();
  params_only.zero_grad();
  for (int step = 0; step < 2; ++step) {  // the second accumulates
    (void)full.forward(x, true);
    (void)full.backward(g);
    (void)params_only.forward(x, true);
    params_only.backward_params(g);
  }
  std::vector<nn::ParamSlot> want, got;
  full.collect_params(want);
  params_only.collect_params(got);
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t p = 0; p < got.size(); ++p) {
    ASSERT_EQ(got[p].grad->size(), want[p].grad->size());
    EXPECT_EQ(std::memcmp(got[p].grad->data(), want[p].grad->data(),
                          want[p].grad->bytes()),
              0)
        << want[p].name;
  }
}

TEST(ReLUModule, GradCheck) {
  Rng rng(5);
  nn::ReLU relu;
  // Keep inputs away from the kink at 0 so central differences are valid.
  Tensor x = Tensor::normal({4, 6}, rng);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i]) < 0.1f) x[i] = x[i] < 0 ? -0.1f : 0.1f;
  }
  check_gradients(relu, x);
}

TEST(GELUModule, GradCheck) {
  Rng rng(6);
  nn::GELU gelu;
  check_gradients(gelu, Tensor::normal({4, 6}, rng));
}

TEST(DropoutModule, EvalIsIdentityTrainMasks) {
  Rng rng(7);
  nn::Dropout drop(0.5f, rng);
  Tensor x = Tensor::full({10, 10}, 1.f);
  const Tensor eval_out = drop.forward(x, false);
  EXPECT_TRUE(allclose(eval_out, x));
  const Tensor train_out = drop.forward(x, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < train_out.size(); ++i) {
    if (train_out[i] == 0.f) ++zeros;
  }
  EXPECT_GT(zeros, 20u);
  EXPECT_LT(zeros, 80u);
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(8);
  nn::LayerNorm ln(16);
  Tensor x = Tensor::normal({5, 16}, rng, 3.f, 2.f);
  const Tensor y = ln.forward(x, true);
  for (std::size_t i = 0; i < 5; ++i) {
    double mean = 0, var = 0;
    for (std::size_t j = 0; j < 16; ++j) mean += y.at(i, j);
    mean /= 16;
    for (std::size_t j = 0; j < 16; ++j) {
      var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    }
    var /= 16;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GradCheck) {
  Rng rng(9);
  nn::LayerNorm ln(8);
  check_gradients(ln, Tensor::normal({4, 8}, rng));
}

TEST(LayerNorm, Works3D) {
  Rng rng(10);
  nn::LayerNorm ln(4);
  Tensor x = Tensor::normal({2, 3, 4}, rng);
  const Tensor y = ln.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Attention, OutputShapeMatches) {
  Rng rng(11);
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::normal({3, 5, 8}, rng);
  const Tensor y = attn.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Attention, GradCheckSingleHead) {
  Rng rng(12);
  nn::MultiHeadSelfAttention attn(4, 1, rng);
  // fp32 forward noise dominates at small eps; widen the probe and
  // tolerance (softmax composition is smooth, so this stays a valid check).
  testing::GradCheckOptions opt;
  opt.eps = 2e-2f;
  opt.tol = 8e-2f;
  opt.abs_floor = 2e-3f;
  check_gradients(attn, Tensor::normal({2, 3, 4}, rng), opt);
}

TEST(Attention, GradCheckMultiHead) {
  Rng rng(13);
  nn::MultiHeadSelfAttention attn(8, 4, rng);
  testing::GradCheckOptions opt;
  opt.eps = 2e-2f;
  opt.tol = 8e-2f;
  opt.abs_floor = 2e-3f;
  check_gradients(attn, Tensor::normal({2, 4, 8}, rng), opt);
}

TEST(Attention, RejectsBadDims) {
  Rng rng(14);
  EXPECT_THROW(nn::MultiHeadSelfAttention(7, 2, rng), std::invalid_argument);
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  Tensor bad = Tensor::normal({2, 3, 6}, rng);
  EXPECT_THROW(attn.forward(bad, false), std::invalid_argument);
}

TEST(Attention, PermutationEquivariantWithoutPositions) {
  // Self-attention without positional encodings is permutation-equivariant
  // over tokens; swapping two input tokens swaps the outputs.
  Rng rng(15);
  nn::MultiHeadSelfAttention attn(8, 2, rng);
  Tensor x = Tensor::normal({1, 3, 8}, rng);
  Tensor xp = x;
  for (std::size_t j = 0; j < 8; ++j) std::swap(xp.at(0, 0, j), xp.at(0, 2, j));
  const Tensor y = attn.forward(x, false);
  const Tensor yp = attn.forward(xp, false);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(y.at(0, 0, j), yp.at(0, 2, j), 1e-5f);
    EXPECT_NEAR(y.at(0, 1, j), yp.at(0, 1, j), 1e-5f);
  }
}

TEST(Mlp, GradCheck) {
  Rng rng(16);
  nn::Mlp mlp({6, 8, 4}, /*dropout=*/0.f, rng);
  check_gradients(mlp, Tensor::normal({3, 6}, rng));
}

TEST(Mlp, SingleLayerIsLinear) {
  Rng rng(17);
  nn::Mlp mlp({4, 3}, 0.f, rng);
  EXPECT_EQ(mlp.num_layers(), 1u);
  Tensor x = Tensor::normal({2, 4}, rng);
  const Tensor y = mlp.forward(x, false);
  EXPECT_EQ(y.cols(), 3u);
}

TEST(Mlp, RejectsTooFewDims) {
  Rng rng(18);
  EXPECT_THROW(nn::Mlp({4}, 0.f, rng), std::invalid_argument);
}

TEST(Sgd, DescendsQuadratic) {
  // One parameter, loss = 0.5 * w^2 -> grad = w; SGD converges to 0.
  Tensor w = Tensor::full({1}, 10.f);
  Tensor g({1});
  nn::Sgd opt({{&w, &g, "w"}}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    g[0] = w[0];
    opt.step();
  }
  EXPECT_LT(std::abs(w[0]), 1e-3f);
}

TEST(Sgd, MomentumAcceleratesAndWeightDecayShrinks) {
  Tensor w = Tensor::full({1}, 1.f);
  Tensor g({1});
  nn::Sgd opt({{&w, &g, "w"}}, 0.01f, 0.9f, 0.1f);
  for (int i = 0; i < 200; ++i) {
    g[0] = 0.f;  // pure weight decay
    opt.step();
  }
  EXPECT_LT(w[0], 0.9f);
}

TEST(Adam, DescendsQuadratic) {
  Tensor w = Tensor::full({2}, 5.f);
  Tensor g({2});
  nn::Adam opt({{&w, &g, "w"}}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    g[0] = w[0];
    g[1] = 2.f * w[1];
    opt.step();
  }
  EXPECT_LT(std::abs(w[0]), 1e-2f);
  EXPECT_LT(std::abs(w[1]), 1e-2f);
}

TEST(Optimizer, ZeroGradClears) {
  Tensor w({3});
  Tensor g = Tensor::full({3}, 2.f);
  nn::Adam opt({{&w, &g, "w"}}, 0.1f);
  opt.zero_grad();
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(g[i], 0.f);
}

TEST(Module, NumParamsCounts) {
  Rng rng(19);
  nn::Linear lin(10, 5, rng);
  EXPECT_EQ(lin.num_params(), 10u * 5u + 5u);
}

}  // namespace
}  // namespace ppgnn
