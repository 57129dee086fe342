// PP-GNN preprocessing: multi-hop feature propagation (Eq. 2 of the paper).
//
//   S = {X, BX, B^2 X, ..., B^R X}
//
// with B one of the graph filters: the symmetrically normalized adjacency
// (SGC/SIGN/HOGA default), random-walk normalization, or the PPR / heat
// diffusion recurrences of Gasteiger et al.  This is the one-time cost the
// paper amortizes over training runs (Table 2 / Appendix G).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "tensor/tensor.h"

namespace ppgnn::core {

enum class OperatorKind {
  kSymNorm,   // D~^-1/2 (A+I) D~^-1/2
  kRowNorm,   // D~^-1 (A+I)
  kPpr,       // X_r = (1-a) B X_{r-1} + a X_0   (personalized PageRank)
  kHeat,      // X_r = (t/r) B X_{r-1}           (heat-kernel Taylor terms)
};
const char* to_string(OperatorKind k);

struct PrecomputeConfig {
  OperatorKind op = OperatorKind::kSymNorm;
  std::size_t hops = 3;        // R
  double ppr_alpha = 0.15;     // teleport probability for kPpr
  double heat_t = 3.0;         // diffusion time for kHeat
  bool add_self_loops = true;
};

struct Preprocessed {
  // hop_features[r] = B^r-propagated features, [n, F]; hop_features[0] = X.
  std::vector<Tensor> hop_features;
  double preprocess_seconds = 0;
  // Wall time of each operator's propagation, in order; preprocess_seconds
  // is their sum (one entry for precompute, K for precompute_multi).
  std::vector<double> operator_seconds;

  std::size_t num_hops() const { return hop_features.size() - 1; }
  std::size_t num_nodes() const { return hop_features.front().rows(); }
  std::size_t feat_dim() const { return hop_features.front().cols(); }
  // Bytes per expanded training row: (R+1) * F * 4 — the input expansion
  // factor of Section 3.4 (K = 1 operator here).
  std::size_t row_bytes() const {
    return hop_features.size() * feat_dim() * sizeof(float);
  }
  std::size_t total_bytes() const { return num_nodes() * row_bytes(); }

  // Gathers rows into the expanded layout [rows.size(), (R+1)*F], hop-major
  // within each row (hop 0 first).  This is the training-set materialization
  // step; for partially labeled graphs it shrinks the input to the labeled
  // subset (Section 6.4).
  Tensor expanded_rows(const std::vector<std::int64_t>& rows) const;
};

// Runs the propagation.  Wall time is recorded in the result.
Preprocessed precompute(const graph::CsrGraph& g, const Tensor& x,
                        const PrecomputeConfig& cfg);

// Multi-operator preprocessing — Eq. (2) with K > 1 kernels (e.g. SIGN with
// normalized adjacency + PPR + heat simultaneously).  The hop features of
// all operators are concatenated into one matrix list:
//   [X, B1 X, ..., B1^R X, B2 X, ..., BK^R X]
// (the shared raw X appears once, first).  Downstream models are agnostic:
// SIGN grows one branch and HOGA one token per matrix.  Input expansion
// becomes K(R+1) — exactly the Section 3.4 blow-up.
Preprocessed precompute_multi(const graph::CsrGraph& g, const Tensor& x,
                              const std::vector<PrecomputeConfig>& configs);

}  // namespace ppgnn::core
