#include "core/precompute.h"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "graph/normalize.h"
#include "graph/spmm.h"
#include "tensor/ops.h"

namespace ppgnn::core {

const char* to_string(OperatorKind k) {
  switch (k) {
    case OperatorKind::kSymNorm: return "sym-norm";
    case OperatorKind::kRowNorm: return "row-norm";
    case OperatorKind::kPpr: return "ppr";
    case OperatorKind::kHeat: return "heat";
  }
  return "?";
}

Preprocessed precompute(const graph::CsrGraph& g, const Tensor& x,
                        const PrecomputeConfig& cfg) {
  if (x.rows() != g.num_nodes()) {
    throw std::invalid_argument("precompute: feature rows != graph nodes");
  }
  const auto t0 = std::chrono::steady_clock::now();

  const graph::CsrGraph b =
      (cfg.op == OperatorKind::kRowNorm)
          ? graph::row_normalized(g, cfg.add_self_loops)
          : graph::sym_normalized(g, cfg.add_self_loops);

  Preprocessed out;
  out.hop_features.reserve(cfg.hops + 1);
  out.hop_features.push_back(x);
  for (std::size_t r = 1; r <= cfg.hops; ++r) {
    Tensor next = graph::spmm(b, out.hop_features.back());
    switch (cfg.op) {
      case OperatorKind::kSymNorm:
      case OperatorKind::kRowNorm:
        break;
      case OperatorKind::kPpr: {
        // X_r = (1-a) B X_{r-1} + a X_0 — the APPNP/PPR power recurrence.
        scale_inplace(next, static_cast<float>(1.0 - cfg.ppr_alpha));
        axpy(static_cast<float>(cfg.ppr_alpha), out.hop_features.front(),
             next);
        break;
      }
      case OperatorKind::kHeat: {
        // r-th Taylor term of exp(t(B - I)): X_r = (t/r) B X_{r-1}.
        scale_inplace(next,
                      static_cast<float>(cfg.heat_t / static_cast<double>(r)));
        break;
      }
    }
    out.hop_features.push_back(std::move(next));
  }
  out.preprocess_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.operator_seconds = {out.preprocess_seconds};
  return out;
}

Preprocessed precompute_multi(const graph::CsrGraph& g, const Tensor& x,
                              const std::vector<PrecomputeConfig>& configs) {
  if (configs.empty()) {
    throw std::invalid_argument("precompute_multi: no operator configs");
  }
  Preprocessed out;
  out.hop_features.push_back(x);  // shared hop-0 features, stored once
  for (const auto& cfg : configs) {
    Preprocessed one = precompute(g, x, cfg);
    out.preprocess_seconds += one.preprocess_seconds;
    out.operator_seconds.push_back(one.preprocess_seconds);
    for (std::size_t r = 1; r < one.hop_features.size(); ++r) {
      out.hop_features.push_back(std::move(one.hop_features[r]));
    }
  }
  return out;
}

Tensor Preprocessed::expanded_rows(
    const std::vector<std::int64_t>& rows) const {
  const std::size_t f = feat_dim();
  const std::size_t hops1 = hop_features.size();
  Tensor out({rows.size(), hops1 * f});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto r = rows[i];
    if (r < 0 || static_cast<std::size_t>(r) >= num_nodes()) {
      throw std::out_of_range("expanded_rows: row out of range");
    }
    float* dst = out.row(i);
    for (std::size_t h = 0; h < hops1; ++h) {
      std::memcpy(dst + h * f,
                  hop_features[h].row(static_cast<std::size_t>(r)),
                  f * sizeof(float));
    }
  }
  return out;
}

}  // namespace ppgnn::core
