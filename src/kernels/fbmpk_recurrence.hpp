// Three-term-recurrence FBMPK: generalizes the forward-backward
// pipeline from monomial powers x_p = A x_{p-1} to
//
//     x_p = alpha_p * A x_{p-1} + beta_p * x_{p-1} + gamma_p * x_{p-2}
//
// (x_{-1} = 0). This covers the numerically stable polynomial bases of
// the applications that motivate SSpMV in the paper's introduction —
// Chebyshev filters in eigensolvers (EVSL [18], ChASE [19]) and
// Chebyshev semi-iterations for linear systems — while keeping FBMPK's
// ~(k+1)/2 matrix sweeps.
//
// Why the pipeline admits it: when the forward sweep finishes row i of
// the odd iterate it has (A x_even)[i] in hand, x_even[i] in xy[2i] and
// the two-generations-old odd iterate still in xy[2i+1] (about to be
// overwritten) — exactly the three recurrence inputs. The backward
// sweep is symmetric. The pipelined second dot product (L·x_odd or
// U·x_even) automatically picks up the *recurrence-updated* neighbor
// values because rows write before later rows read, so the saved matrix
// sweeps carry over unchanged. alpha_p = 1, beta_p = gamma_p = 0
// reduces bit-for-bit to the monomial kernel's results.
#pragma once

#include <cmath>
#include <span>
#include <utility>

#include "kernels/fb_detail.hpp"
#include "kernels/fbmpk.hpp"
#include "reorder/abmc.hpp"
#include "sparse/split.hpp"
#include "support/error.hpp"

namespace fbmpk {

/// Per-step recurrence coefficients: step p (1-based) maps
/// x_p = alpha * A x_{p-1} + beta * x_{p-1} + gamma * x_{p-2}.
template <class T>
struct RecurrenceStep {
  T alpha{1};
  T beta{0};
  T gamma{0};
};

namespace detail {

/// One row of one recurrence step: alpha·(A x_{p-1})[i] + beta·x_{p-1}[i]
/// + gamma·x_{p-2}[i].
///
/// noinline for the reason row_dot2_btb_bat is: a sum of two products
/// can contract into an FMA around either product, and the optimizer
/// chooses per inlining context. -march=x86-64-v3 builds were seen to
/// choose differently in a plan's serial recurrence and in a direct
/// kernel call. One out-of-line copy means one choice.
template <class T>
[[gnu::noinline]] T recurrence_row(const RecurrenceStep<T>& c, T a_x, T x1,
                                   T x2) {
  return c.alpha * a_x + c.beta * x1 + c.gamma * x2;
}

}  // namespace detail

/// Outcome of a checked kernel execution. Long unattended SSpMV
/// sequences report numerical breakdown (NaN/Inf iterates) through
/// this instead of silently propagating non-finite values into the
/// caller's output.
struct KernelStatus {
  bool ok = true;
  ErrorCode code = ErrorCode::kInternal;  ///< meaningful when !ok
  index_t row = -1;                       ///< first offending row, or -1
  const char* detail = "";                ///< short static description

  static KernelStatus success() { return {}; }
  static KernelStatus breakdown(index_t row, const char* detail) {
    return {false, ErrorCode::kNumericalBreakdown, row, detail};
  }
};

/// Scan a vector for NaN/Inf; returns a breakdown status naming the
/// first offending row, or success.
template <class T>
KernelStatus check_finite(std::span<const T> v, const char* detail) {
  for (std::size_t i = 0; i < v.size(); ++i)
    if (!std::isfinite(v[i]))
      return KernelStatus::breakdown(static_cast<index_t>(i), detail);
  return KernelStatus::success();
}

/// Serial recurrence sweep (BtB layout) in an explicit row order:
/// fwd_rows(f) / bwd_rows(f) call f(i) on every row in a valid order
/// for the forward sweep over L / the backward sweep over U (a level
/// plan's stage-major walk). fwd_rows walks upward; `bwd` states the
/// address direction bwd_rows walks in. steps.size() = k >= 1;
/// emit(p, i, v) fires once per step p in [1, k] and row i with
/// v = x_p[i].
template <class T, class Emit, class FwdRows, class BwdRows, Walk BW>
void fbmpk_recurrence_sweep(const TriangularSplit<T>& s,
                            std::span<const RecurrenceStep<T>> steps,
                            std::span<const T> x0, FbWorkspace<T>& ws,
                            Emit&& emit, FwdRows&& fwd_rows,
                            BwdRows&& bwd_rows, WalkTag<BW> /*bwd*/) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
  const int k = static_cast<int>(steps.size());
  FBMPK_CHECK(k >= 1);
  ws.resize(n);

  const index_t* lrp = s.lower.row_ptr().data();
  const index_t* lci = s.lower.col_idx().data();
  const T* lva = s.lower.values().data();
  const index_t* urp = s.upper.row_ptr().data();
  const index_t* uci = s.upper.col_idx().data();
  const T* uva = s.upper.values().data();
  const T* d = s.diag.data();
  T* xy = ws.xy.data();
  T* tmp = ws.tmp.data();
  NullTracer tr;

  // Head: even slots <- x0, odd slots <- x_{-1} = 0, tmp <- U·x0.
  for (index_t i = 0; i < n; ++i) {
    xy[2 * i] = x0[i];
    xy[2 * i + 1] = T{};
  }
  for (index_t i = 0; i < n; ++i) {
    T sum{};
    detail::row_dot1_btb<Walk::kUp>(uci, uva, urp[i], urp[i + 1], xy, 0, sum,
                                    tr);
    tmp[i] = sum;
  }

  const int pairs = k / 2;
  for (int it = 0; it < pairs; ++it) {
    const int p_odd = 2 * it + 1;
    const int p_even = 2 * it + 2;
    const RecurrenceStep<T> co = steps[p_odd - 1];
    const RecurrenceStep<T> ce = steps[p_even - 1];

    // Forward over L: finish x_{p_odd}, prime tmp = (L + D)·x_{p_odd}.
    fwd_rows([&](index_t i) {
      T raw = tmp[i] + d[i] * xy[2 * i];  // (A x_even)[i] accumulator
      T sum1{};
      detail::row_dot2_btb<Walk::kUp>(lci, lva, lrp[i], lrp[i + 1], xy, raw,
                                      sum1, tr);
      const T v = detail::recurrence_row(co, raw, xy[2 * i], xy[2 * i + 1]);
      xy[2 * i + 1] = v;
      emit(p_odd, i, v);
      tmp[i] = sum1 + d[i] * v;
    });

    // Backward over U: finish x_{p_even}, prime tmp = U·x_{p_even}.
    const bool prime_next = !(it == pairs - 1 && k % 2 == 0);
    bwd_rows([&](index_t i) {
      T raw = tmp[i];
      T v;
      if (prime_next) {
        T sum1{};
        detail::row_dot2_btb<BW>(uci, uva, urp[i], urp[i + 1], xy, sum1, raw,
                                 tr);
        v = detail::recurrence_row(ce, raw, xy[2 * i + 1], xy[2 * i]);
        xy[2 * i] = v;
        emit(p_even, i, v);
        tmp[i] = sum1;
      } else {
        detail::row_dot1_btb<BW>(uci, uva, urp[i], urp[i + 1], xy, 1, raw,
                                 tr);
        v = detail::recurrence_row(ce, raw, xy[2 * i + 1], xy[2 * i]);
        xy[2 * i] = v;
        emit(p_even, i, v);
      }
    });
  }

  if (k % 2 == 1) {
    const RecurrenceStep<T> ck = steps[k - 1];
    // Tail: even slots hold x_{k-1}, odd slots x_{k-2}, tmp = U·x_{k-1}.
    for (index_t i = 0; i < n; ++i) {
      T raw = tmp[i] + d[i] * xy[2 * i];
      detail::row_dot1_btb<Walk::kUp>(lci, lva, lrp[i], lrp[i + 1], xy, 0,
                                      raw, tr);
      emit(k, i,
           detail::recurrence_row(ck, raw, xy[2 * i], xy[2 * i + 1]));
    }
  }
}

/// Serial recurrence sweep in the natural order (rows ascending
/// forward, descending backward).
template <class T, class Emit>
void fbmpk_recurrence_sweep(const TriangularSplit<T>& s,
                            std::span<const RecurrenceStep<T>> steps,
                            std::span<const T> x0, FbWorkspace<T>& ws,
                            Emit&& emit) {
  const index_t n = s.lower.rows();
  fbmpk_recurrence_sweep(
      s, steps, x0, ws, std::forward<Emit>(emit),
      [n](auto&& f) {
        for (index_t i = 0; i < n; ++i) f(i);
      },
      [n](auto&& f) {
        for (index_t i = n; i-- > 0;) f(i);
      },
      kWalkDown);
}

/// Parallel recurrence sweep under an ABMC color schedule (same
/// preconditions as fbmpk_parallel_sweep; bitwise-equal to the serial
/// sweep on the permuted matrix).
template <class T, class Emit>
void fbmpk_recurrence_parallel_sweep(const TriangularSplit<T>& s,
                                     const AbmcOrdering& o,
                                     std::span<const RecurrenceStep<T>> steps,
                                     std::span<const T> x0,
                                     FbWorkspace<T>& ws, Emit&& emit) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
  const int k = static_cast<int>(steps.size());
  FBMPK_CHECK(k >= 1);
  FBMPK_CHECK_MSG(!o.block_ptr.empty() && o.block_ptr.back() == n,
                  "schedule does not cover the matrix");
  ws.resize(n);

  const index_t* lrp = s.lower.row_ptr().data();
  const index_t* lci = s.lower.col_idx().data();
  const T* lva = s.lower.values().data();
  const index_t* urp = s.upper.row_ptr().data();
  const index_t* uci = s.upper.col_idx().data();
  const T* uva = s.upper.values().data();
  const T* d = s.diag.data();
  T* xy = ws.xy.data();
  T* tmp = ws.tmp.data();
  const T* x0p = x0.data();
  const RecurrenceStep<T>* st = steps.data();
  const int pairs = k / 2;
  NullTracer tr;

#ifdef _OPENMP
#pragma omp parallel default(shared)
#endif
  {
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (index_t i = 0; i < n; ++i) {
      xy[2 * i] = x0p[i];
      xy[2 * i + 1] = T{};
    }
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (index_t i = 0; i < n; ++i) {
      T sum{};
      detail::row_dot1_btb<Walk::kUp>(uci, uva, urp[i], urp[i + 1], xy, 0,
                                      sum, tr);
      tmp[i] = sum;
    }

    for (int it = 0; it < pairs; ++it) {
      const int p_odd = 2 * it + 1;
      const int p_even = 2 * it + 2;
      const RecurrenceStep<T> co = st[p_odd - 1];
      const RecurrenceStep<T> ce = st[p_even - 1];

      for (index_t c = 0; c < o.num_colors; ++c) {
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b) {
          for (index_t i = o.block_ptr[b]; i < o.block_ptr[b + 1]; ++i) {
            T raw = tmp[i] + d[i] * xy[2 * i];
            T sum1{};
            detail::row_dot2_btb<Walk::kUp>(lci, lva, lrp[i], lrp[i + 1],
                                            xy, raw, sum1, tr);
            const T v =
                detail::recurrence_row(co, raw, xy[2 * i], xy[2 * i + 1]);
            xy[2 * i + 1] = v;
            emit(p_odd, i, v);
            tmp[i] = sum1 + d[i] * v;
          }
        }
      }

      const bool prime_next = !(it == pairs - 1 && k % 2 == 0);
      for (index_t c = o.num_colors; c-- > 0;) {
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b) {
          for (index_t i = o.block_ptr[b + 1]; i-- > o.block_ptr[b];) {
            T raw = tmp[i];
            T v;
            if (prime_next) {
              T sum1{};
              detail::row_dot2_btb<Walk::kDown>(uci, uva, urp[i],
                                                urp[i + 1], xy, sum1, raw,
                                                tr);
              v = detail::recurrence_row(ce, raw, xy[2 * i + 1], xy[2 * i]);
              xy[2 * i] = v;
              emit(p_even, i, v);
              tmp[i] = sum1;
            } else {
              detail::row_dot1_btb<Walk::kDown>(uci, uva, urp[i],
                                                urp[i + 1], xy, 1, raw, tr);
              v = detail::recurrence_row(ce, raw, xy[2 * i + 1], xy[2 * i]);
              xy[2 * i] = v;
              emit(p_even, i, v);
            }
          }
        }
      }
    }

    if (k % 2 == 1) {
      const RecurrenceStep<T> ck = st[k - 1];
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
      for (index_t i = 0; i < n; ++i) {
        T raw = tmp[i] + d[i] * xy[2 * i];
        detail::row_dot1_btb<Walk::kUp>(lci, lva, lrp[i], lrp[i + 1], xy, 0,
                                        raw, tr);
        emit(k, i, detail::recurrence_row(ck, raw, xy[2 * i], xy[2 * i + 1]));
      }
    }
  }
}

/// y = x_k of the recurrence, serial.
template <class T>
void fbmpk_recurrence(const TriangularSplit<T>& s,
                      std::span<const RecurrenceStep<T>> steps,
                      std::span<const T> x0, std::span<T> y,
                      FbWorkspace<T>& ws) {
  FBMPK_CHECK(y.size() == x0.size());
  const int k = static_cast<int>(steps.size());
  T* yp = y.data();
  fbmpk_recurrence_sweep(s, steps, x0, ws, [&](int p, index_t i, T v) {
    if (p == k) yp[i] = v;
  });
}

/// Checked variant: rejects a non-finite input vector or non-finite
/// recurrence coefficients up front, runs the sweep, and reports
/// non-finite entries in y as a breakdown status instead of handing
/// the caller NaN. y is fully written either way.
template <class T>
KernelStatus fbmpk_recurrence_checked(const TriangularSplit<T>& s,
                                      std::span<const RecurrenceStep<T>> steps,
                                      std::span<const T> x0, std::span<T> y,
                                      FbWorkspace<T>& ws) {
  for (const auto& st : steps)
    if (!std::isfinite(st.alpha) || !std::isfinite(st.beta) ||
        !std::isfinite(st.gamma))
      return KernelStatus::breakdown(-1, "non-finite recurrence coefficient");
  if (auto st = check_finite(x0, "non-finite input vector"); !st.ok)
    return st;
  fbmpk_recurrence(s, steps, x0, y, ws);
  return check_finite(std::span<const T>(y.data(), y.size()),
                      "non-finite recurrence iterate");
}

}  // namespace fbmpk
