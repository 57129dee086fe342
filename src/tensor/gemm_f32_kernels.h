// Internal interface between the fp32 GEMM dispatcher (ops.cpp, gemm) and
// the per-arm register-blocked kernels of the ladder (docs/kernels.md,
// "fp32 GEMM").  Not installed API: callers go through ppgnn::gemm, which
// picks the arm from active_isa().
//
// Contract every arm must meet (the bit-identity contract): each element
// of C sees exactly the scalar oracle's IEEE sequence.
//
//  * accumulate mode (NN, TN):  c = beta-scaled C;
//                               for l ascending: c = c + (alpha * a_il) * b_lj
//  * zero mode (NT, TT):        acc = 0;
//                               for l ascending: acc = acc + a_il * b_lj
//                               c = beta-scaled C + alpha * acc
//
// where beta-scaled C is +0 for beta == 0, C for beta == 1 and C * beta
// otherwise.  Every step is a separate multiply then add — never an FMA,
// never a split of k — so the wide TUs carry -ffp-contract=off
// (CMakeLists.txt).  Given that, any partition of the rows of C over
// threads, and any tiling of C, gives the same bytes.
//
// In accumulate mode the tiles read A already multiplied by alpha: the
// dispatcher scales a copy, or for alpha == 1 passes A itself, since
// 1 * x == x for every x but a signaling NaN (which gcc's default
// -fno-signaling-nans assumes away).  Both modes then share one inner loop.
//
// The tile template below is instantiated once per arm with that arm's
// vector traits.  The traits types have internal linkage in their TUs, so
// no instantiation is shared between TUs built with different -m flags.
#pragma once

#include <cstddef>

namespace ppgnn::detail {

struct GemmF32Args {
  const float* a = nullptr;  // logical A(i, l) = a[i * a_rs + l * a_cs],
                             // times alpha in accumulate mode
  std::size_t a_rs = 0, a_cs = 0;
  const float* b = nullptr;  // row-major [k, n]: op(B), packed for NT/TT
  float* c = nullptr;        // row-major [m, n]
  std::size_t n = 0, k = 0;
  float alpha = 1.f, beta = 0.f;
  bool zero_mode = false;    // NT/TT: accumulate from zero, then blend
};

// Rows of C per tile, shared by every wide arm; the dispatcher hands out
// whole tiles so only the last row block is a tail.
inline constexpr std::size_t kGemmF32TileRows = 6;

// Rows [i0, i1) of C, all columns.
void gemm_f32_rows_sse2(const GemmF32Args& g, std::size_t i0, std::size_t i1);
void gemm_f32_rows_avx2(const GemmF32Args& g, std::size_t i0, std::size_t i1);
void gemm_f32_rows_avx512(const GemmF32Args& g, std::size_t i0,
                          std::size_t i1);

// ---------------------------------------------------------------------------
// The tile: R rows x NV vectors of C held in registers over the whole k.
// V supplies reg, kWidth, zero/set1/load/load_n/store/store_n/mul/add;
// load_n/store_n touch only the first `cols` lanes (masked on AVX, staged
// through a stack buffer on SSE2).  Masked = the last vector is partial.
namespace gemm_f32 {

template <class V, bool Masked>
inline typename V::reg load_last(const float* p, std::size_t cols) {
  if constexpr (Masked) return V::load_n(p, cols);
  return V::load(p);
}

template <class V, bool Masked>
inline void store_last(float* p, typename V::reg v, std::size_t cols) {
  if constexpr (Masked) {
    V::store_n(p, v, cols);
  } else {
    V::store(p, v);
  }
}

// beta-scaled C: +0 for beta == 0, C for beta == 1, C * beta otherwise.
template <class V>
inline typename V::reg scaled_c(typename V::reg c, float beta) {
  if (beta == 0.f) return V::zero();
  if (beta == 1.f) return c;
  return V::mul(c, V::set1(beta));
}

template <class V, std::size_t R, std::size_t NV, bool Masked, bool Zero>
void tile(const GemmF32Args& g, std::size_t i, std::size_t j,
          std::size_t cols) {
  using reg = typename V::reg;
  constexpr std::size_t W = V::kWidth;
  const std::size_t last = cols - (NV - 1) * W;  // lanes in the last vector
  float* c = g.c + i * g.n + j;
  reg acc[R][NV];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NV; ++v) {
      if constexpr (Zero) {
        acc[r][v] = V::zero();
      } else {
        float* p = c + r * g.n + v * W;
        acc[r][v] = scaled_c<V>(
            v + 1 < NV ? V::load(p) : load_last<V, Masked>(p, last), g.beta);
      }
    }
  }
  const float* a = g.a + i * g.a_rs;
  const float* b = g.b + j;
  for (std::size_t l = 0; l < g.k; ++l, a += g.a_cs, b += g.n) {
    reg bv[NV];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NV; ++v) {
      bv[v] = v + 1 < NV ? V::load(b + v * W)
                         : load_last<V, Masked>(b + v * W, last);
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const reg av = V::set1(a[r * g.a_rs]);
#pragma GCC unroll 4
      for (std::size_t v = 0; v < NV; ++v) {
        acc[r][v] = V::add(acc[r][v], V::mul(av, bv[v]));
      }
    }
  }
  const reg alpha = V::set1(g.alpha);
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < NV; ++v) {
      float* p = c + r * g.n + v * W;
      reg out = acc[r][v];
      if constexpr (Zero) {
        const reg old = v + 1 < NV ? V::load(p) : load_last<V, Masked>(p, last);
        out = V::add(scaled_c<V>(old, g.beta), V::mul(alpha, out));
      }
      if (v + 1 < NV) {
        V::store(p, out);
      } else {
        store_last<V, Masked>(p, out, last);
      }
    }
  }
}

// The last `rows` (< MR) rows of a panel: tile<rows>, found by recursion.
template <class V, std::size_t R, std::size_t NV, bool Masked, bool Zero>
void row_tail(const GemmF32Args& g, std::size_t i, std::size_t rows,
              std::size_t j, std::size_t cols) {
  if constexpr (R > 0) {
    if (rows == R) {
      tile<V, R, NV, Masked, Zero>(g, i, j, cols);
    } else {
      row_tail<V, R - 1, NV, Masked, Zero>(g, i, rows, j, cols);
    }
  }
}

// One column panel (cols <= NV * W) over rows [i0, i1).
template <class V, std::size_t MR, std::size_t NV, bool Masked, bool Zero>
void panel(const GemmF32Args& g, std::size_t i0, std::size_t i1,
           std::size_t j, std::size_t cols) {
  std::size_t i = i0;
  for (; i + MR <= i1; i += MR) tile<V, MR, NV, Masked, Zero>(g, i, j, cols);
  row_tail<V, MR - 1, NV, Masked, Zero>(g, i, i1 - i, j, cols);
}

// Rows [i0, i1) of C: column panels of 2 vectors outermost, so one panel
// of B (k x 2W floats) stays cache-resident across the row tiles.
template <class V, std::size_t MR, bool Zero>
void rows(const GemmF32Args& g, std::size_t i0, std::size_t i1) {
  constexpr std::size_t W = V::kWidth;
  for (std::size_t j = 0; j < g.n; j += 2 * W) {
    const std::size_t cols = g.n - j < 2 * W ? g.n - j : 2 * W;
    if (cols == 2 * W) {
      panel<V, MR, 2, false, Zero>(g, i0, i1, j, cols);
    } else if (cols > W) {
      panel<V, MR, 2, true, Zero>(g, i0, i1, j, cols);
    } else if (cols == W) {
      panel<V, MR, 1, false, Zero>(g, i0, i1, j, cols);
    } else {
      panel<V, MR, 1, true, Zero>(g, i0, i1, j, cols);
    }
  }
}

// The arm entry point: picks the mode once per call.
template <class V>
void run(const GemmF32Args& g, std::size_t i0, std::size_t i1) {
  if (g.zero_mode) {
    rows<V, kGemmF32TileRows, true>(g, i0, i1);
  } else {
    rows<V, kGemmF32TileRows, false>(g, i0, i1);
  }
}

}  // namespace gemm_f32
}  // namespace ppgnn::detail
