// Fast-mode FBMPK sweeps: dispatched row kernels + packed indices.
//
// The exact sweeps in fbmpk.hpp / fbmpk_parallel.hpp are the numerical
// reference — fixed scalar operation order, bitwise identical between
// serial and every parallel schedule. This header provides the `fast`
// flavour: the same head / forward-backward-pair / tail pipeline, but
// each row dot goes through a RowOps table chosen at runtime
// (kernels/dispatch.hpp) and may read the narrow packed column stream
// (sparse/packed_tri.hpp) instead of full-width CSR indices.
//
// Numerical contract: a fast sweep differs from exact only inside
// single row dots (lane-parallel partial sums). Per power p the error
// is bounded by m·eps·‖A‖∞^p·‖x‖∞ (m = max row nnz) and the test suite
// asserts ‖fast − exact‖∞ ≤ 4·k·m·eps·‖A‖∞^k·‖x‖∞. Determinism still
// holds in fast mode: every schedule (serial, barrier, engine) issues
// the same per-row kernel with the same arguments, so fast results are
// bitwise reproducible across schedules and runs on one machine.
//
// Accumulation is double-only (the dispatch tables accumulate fp64)
// and fast mode covers the BtB variant only — the split-vector
// ablation stays scalar. Reduced-precision *storage*: when the plan
// carries a PackedSplitValues sidecar (fp32), the row kernels read the
// narrow stream and widen per element; the diagonal follows the same
// precision through Rows::diag(i).
#pragma once

#include <span>
#include <utility>

#include "kernels/dispatch.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "sparse/packed_tri.hpp"

namespace fbmpk {

/// Row-dot frontend for one triangle: plain CSR columns or the packed
/// sidecar (u16 narrow bands with full-width fallback), routed through
/// a backend's RowOps. Pointers are non-owning.
struct TriRowKernel {
  const index_t* rp = nullptr;
  const index_t* ci = nullptr;
  const double* va = nullptr;
  const PackedTriangleIndex* packed = nullptr;  ///< null = plain CSR
  const RowOps* ops = nullptr;
  int prefetch = 0;
  // Reduced-precision value stream (null = read the fp64 CSR values).
  // Set via make_dispatch_rows.
  const float* v32 = nullptr;

  // The backends prefetch along the walk the sweep states.
  template <Walk W>
  void dot2(index_t i, const double* xy, double& s0, double& s1,
            WalkTag<W>) const {
    const index_t lo = rp[i];
    const index_t len = rp[i + 1] - lo;
    if (packed == nullptr) {
      if (v32 != nullptr)
        ops->dot2_btb_f32(ci + lo, v32 + lo, len, xy, prefetch, W, s0, s1);
      else
        ops->dot2_btb(ci + lo, va + lo, len, xy, prefetch, W, s0, s1);
      return;
    }
    const auto v = packed->row(i, lo);
    if (v.c16 != nullptr) {
      if (v32 != nullptr)
        ops->dot2_btb_u16_f32(v.c16, v32 + lo, len, v.base, xy, prefetch, W, s0,
                              s1);
      else
        ops->dot2_btb_u16(v.c16, va + lo, len, v.base, xy, prefetch, W, s0, s1);
    } else {
      if (v32 != nullptr)
        ops->dot2_btb_f32(v.c32, v32 + lo, len, xy, prefetch, W, s0, s1);
      else
        ops->dot2_btb(v.c32, va + lo, len, xy, prefetch, W, s0, s1);
    }
  }

  template <Walk W>
  void dot1(index_t i, const double* xy, int offset, double& s,
            WalkTag<W>) const {
    const index_t lo = rp[i];
    const index_t len = rp[i + 1] - lo;
    if (packed == nullptr) {
      if (v32 != nullptr)
        ops->dot1_btb_f32(ci + lo, v32 + lo, len, xy, offset, prefetch, W, s);
      else
        ops->dot1_btb(ci + lo, va + lo, len, xy, offset, prefetch, W, s);
      return;
    }
    const auto v = packed->row(i, lo);
    if (v.c16 != nullptr) {
      if (v32 != nullptr)
        ops->dot1_btb_u16_f32(v.c16, v32 + lo, len, v.base, xy, offset,
                              prefetch, W, s);
      else
        ops->dot1_btb_u16(v.c16, va + lo, len, v.base, xy, offset, prefetch, W,
                          s);
    } else {
      if (v32 != nullptr)
        ops->dot1_btb_f32(v.c32, v32 + lo, len, xy, offset, prefetch, W, s);
      else
        ops->dot1_btb(v.c32, va + lo, len, xy, offset, prefetch, W, s);
    }
  }

  /// Value of nonzero q as the sweep will read it (for the warm pass).
  double value_at(index_t q) const {
    return v32 != nullptr ? static_cast<double>(v32[q]) : va[q];
  }

  /// Stream row i's index/value data into `acc` (engine NUMA warm pass).
  void warm(index_t i, double& acc) const {
    const index_t lo = rp[i];
    const index_t hi = rp[i + 1];
    if (packed == nullptr) {
      for (index_t q = lo; q < hi; ++q)
        acc += value_at(q) + static_cast<double>(ci[q]);
      return;
    }
    const auto v = packed->row(i, lo);
    for (index_t q = 0; q < hi - lo; ++q) {
      const index_t c = v.c16 != nullptr
                            ? v.base + static_cast<index_t>(v.c16[q])
                            : v.c32[q];
      acc += value_at(lo + q) + static_cast<double>(c);
    }
  }
};

/// Row policy (see fbmpk_parallel.hpp's ScalarRows for the exact twin)
/// that routes both triangles through dispatched kernels.
struct DispatchRows {
  TriRowKernel l;
  TriRowKernel u;
  // Diagonal stream at the plan's value precision (exactly one of d64
  // and d32 is active).
  const double* d64 = nullptr;
  const float* d32 = nullptr;

  template <Walk W>
  void l_dot2(index_t i, const double* xy, double& s0, double& s1,
              WalkTag<W> w) const {
    l.dot2(i, xy, s0, s1, w);
  }
  template <Walk W>
  void u_dot2(index_t i, const double* xy, double& s0, double& s1,
              WalkTag<W> w) const {
    u.dot2(i, xy, s0, s1, w);
  }
  template <Walk W>
  void l_dot1(index_t i, const double* xy, int offset, double& s,
              WalkTag<W> w) const {
    l.dot1(i, xy, offset, s, w);
  }
  template <Walk W>
  void u_dot1(index_t i, const double* xy, int offset, double& s,
              WalkTag<W> w) const {
    u.dot1(i, xy, offset, s, w);
  }
  /// Diagonal entry i, widened to double from the stored precision.
  double diag(index_t i) const {
    return d32 != nullptr ? static_cast<double>(d32[i]) : d64[i];
  }
  void warm(index_t i, double& acc) const {
    l.warm(i, acc);
    u.warm(i, acc);
  }
};

/// Assemble the fast row policy for a split. `packed` may be null
/// (plain indices), as may `values` (fp64 storage); `ops` must outlive
/// the returned value (the tables from row_kernels() are
/// process-lifetime statics), and so must `values`.
inline DispatchRows make_dispatch_rows(const TriangularSplit<double>& s,
                                       const PackedSplitIndex* packed,
                                       const PackedSplitValues* values,
                                       const RowOps& ops, int prefetch) {
  DispatchRows r;
  r.l = {s.lower.row_ptr().data(), s.lower.col_idx().data(),
         s.lower.values().data(),
         packed != nullptr ? &packed->lower : nullptr, &ops, prefetch};
  r.u = {s.upper.row_ptr().data(), s.upper.col_idx().data(),
         s.upper.values().data(),
         packed != nullptr ? &packed->upper : nullptr, &ops, prefetch};
  r.d64 = s.diag.data();
  if (values != nullptr && !values->empty()) {
    r.l.v32 = values->lower.f32();
    r.u.v32 = values->upper.f32();
    r.d64 = nullptr;
    r.d32 = values->diag.f32();
  }
  return r;
}

/// Serial fast sweep — fbmpk_sweep_btb's pipeline with dispatched row
/// dots. emit(p, i, v) fires once per power p in [1, k], row i.
///
/// Generic over the iterate element TI: double for single-vector runs,
/// Pack<double, B> for batched multi-vector runs (the xy array then IS
/// the raw xy[2·B·n] vector-major layout). `x0` only needs size() and
/// operator[] returning something convertible to TI — a span for the
/// single-vector case, a gather adapter reading straight from request
/// buffers for the batched case (no staging copy).
template <class TI, class Rows, class X0, class Emit>
void fbmpk_sweep_btb_fast(const TriangularSplit<double>& s, const Rows& rows,
                          const X0& x0, int k, FbWorkspace<TI>& ws,
                          Emit&& emit) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(k >= 1);
  ws.resize(n);

  TI* xy = ws.xy.data();
  TI* tmp = ws.tmp.data();

  for (index_t i = 0; i < n; ++i) xy[2 * i] = x0[i];
  for (index_t i = 0; i < n; ++i) {
    TI sum{};
    rows.u_dot1(i, xy, 0, sum, kWalkUp);
    tmp[i] = sum;
  }

  const int pairs = k / 2;
  for (int it = 0; it < pairs; ++it) {
    const int p_odd = 2 * it + 1;
    const int p_even = 2 * it + 2;

    for (index_t i = 0; i < n; ++i) {
      const double di = rows.diag(i);
      TI sum0 = madd(di, xy[2 * i], tmp[i]);
      TI sum1{};
      rows.l_dot2(i, xy, sum0, sum1, kWalkUp);
      xy[2 * i + 1] = sum0;
      emit(p_odd, i, sum0);
      tmp[i] = madd(di, sum0, sum1);
    }

    const bool prime_next = !(it == pairs - 1 && k % 2 == 0);
    if (prime_next) {
      for (index_t i = n; i-- > 0;) {
        TI sum0 = tmp[i];
        TI sum1{};
        // dot2 accumulates (even, odd); backward wants sum0 += odd,
        // sum1 += even — same output swap as the exact sweep.
        rows.u_dot2(i, xy, sum1, sum0, kWalkDown);
        xy[2 * i] = sum0;
        emit(p_even, i, sum0);
        tmp[i] = sum1;
      }
    } else {
      for (index_t i = n; i-- > 0;) {
        TI sum0 = tmp[i];
        rows.u_dot1(i, xy, 1, sum0, kWalkDown);
        xy[2 * i] = sum0;
        emit(p_even, i, sum0);
      }
    }
  }

  if (k % 2 == 1) {
    for (index_t i = 0; i < n; ++i) {
      TI sum = madd(rows.diag(i), xy[2 * i], tmp[i]);
      rows.l_dot1(i, xy, 0, sum, kWalkUp);
      emit(k, i, sum);
    }
  }
}

/// Krylov basis, serial fast: out[p*n + i] = (A^p x0)[i], p in [0, k].
template <class Rows>
void fbmpk_power_all_fast(const TriangularSplit<double>& s, const Rows& rows,
                          std::span<const double> x0, int k,
                          std::span<double> out, FbWorkspace<double>& ws) {
  const auto n = x0.size();
  FBMPK_CHECK(out.size() == n * static_cast<std::size_t>(k + 1));
  std::copy(x0.begin(), x0.end(), out.begin());
  if (k == 0) return;
  double* op = out.data();
  fbmpk_sweep_btb_fast(s, rows, x0, k, ws, [&](int p, index_t i, double v) {
    op[static_cast<std::size_t>(p) * n + i] = v;
  });
}

/// y = sum_p coeffs[p] A^p x0, serial fast.
template <class Rows>
void fbmpk_polynomial_fast(const TriangularSplit<double>& s, const Rows& rows,
                           std::span<const double> coeffs,
                           std::span<const double> x0, std::span<double> y,
                           FbWorkspace<double>& ws) {
  FBMPK_CHECK(!coeffs.empty());
  FBMPK_CHECK(y.size() == x0.size());
  const int k = static_cast<int>(coeffs.size()) - 1;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = coeffs[0] * x0[i];
  if (k == 0) return;
  double* yp = y.data();
  const double* cp = coeffs.data();
  fbmpk_sweep_btb_fast(s, rows, x0, k, ws, [&](int p, index_t i, double v) {
    yp[i] += cp[p] * v;
  });
}

}  // namespace fbmpk
