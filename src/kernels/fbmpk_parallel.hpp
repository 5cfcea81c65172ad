// Parallel FBMPK under the ABMC color schedule (paper Algorithm 2,
// §III-D/E).
//
// Preconditions: the TriangularSplit must come from the ABMC-*permuted*
// matrix, and the AbmcOrdering must be the schedule that produced that
// permutation. Forward sweeps walk colors in ascending order, backward
// sweeps descending; blocks within one color run in parallel (their
// rows share no matrix edges by the coloring invariant), with one
// barrier per color per sweep. Head/tail sweeps are plain row-parallel
// SpMVs — they only read completed vectors.
//
// The computation is exactly the serial FBMPK of the permuted matrix
// (same FP operations per row; only row completion order changes), so
// results are bitwise identical to the serial kernel.
#pragma once

#include <span>
#include <utility>

#include "kernels/fb_detail.hpp"
#include "kernels/fbmpk.hpp"
#include "reorder/abmc.hpp"
#include "sparse/split.hpp"
#include "support/error.hpp"
#include "support/threading.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk {

/// Exact row policy: every L/U row dot goes straight to the shared
/// fb_detail helpers, so any sweep parameterized on it performs exactly
/// the operations of the serial reference kernel (bitwise identical).
/// kernels/fb_simd.hpp provides DispatchRows, the fast-mode twin with
/// the same member signatures (runtime-dispatched SIMD + packed
/// indices); the parallel sweeps (here and in fbmpk_level*.hpp) are
/// templated on the policy.
template <class T>
struct ScalarRows {
  const index_t* lrp;
  const index_t* lci;
  const T* lva;
  const index_t* urp;
  const index_t* uci;
  const T* uva;
  const T* dgv;

  explicit ScalarRows(const TriangularSplit<T>& s)
      : lrp(s.lower.row_ptr().data()),
        lci(s.lower.col_idx().data()),
        lva(s.lower.values().data()),
        urp(s.upper.row_ptr().data()),
        uci(s.upper.col_idx().data()),
        uva(s.upper.values().data()),
        dgv(s.diag.data()) {}

  // The trailing tag is the walk direction the calling sweep states.
  template <Walk W>
  void l_dot2(index_t i, const T* xy, T& s0, T& s1, WalkTag<W>) const {
    NullTracer tr;
    detail::row_dot2_btb<W>(lci, lva, lrp[i], lrp[i + 1], xy, s0, s1, tr);
  }
  template <Walk W>
  void u_dot2(index_t i, const T* xy, T& s0, T& s1, WalkTag<W>) const {
    NullTracer tr;
    detail::row_dot2_btb<W>(uci, uva, urp[i], urp[i + 1], xy, s0, s1, tr);
  }
  template <Walk W>
  void l_dot1(index_t i, const T* xy, int offset, T& s, WalkTag<W>) const {
    NullTracer tr;
    detail::row_dot1_btb<W>(lci, lva, lrp[i], lrp[i + 1], xy, offset, s, tr);
  }
  template <Walk W>
  void u_dot1(index_t i, const T* xy, int offset, T& s, WalkTag<W>) const {
    NullTracer tr;
    detail::row_dot1_btb<W>(uci, uva, urp[i], urp[i + 1], xy, offset, s, tr);
  }
  /// Diagonal entry i (exact storage — the fp64 reference stream).
  T diag(index_t i) const { return dgv[i]; }
  /// Stream row i's index/value data (the level engine's
  /// first-touch warm pass).
  void warm(index_t i, T& acc) const {
    for (index_t q = lrp[i]; q < lrp[i + 1]; ++q)
      acc += lva[q] + static_cast<T>(lci[q]);
    for (index_t q = urp[i]; q < urp[i + 1]; ++q)
      acc += uva[q] + static_cast<T>(uci[q]);
  }
};

/// Color-scheduled parallel sweep over an explicit row policy.
/// emit(p, i, v) fires once per power p in [1, k] and (permuted) row i;
/// it may be called concurrently for distinct rows and must be safe
/// under that.
///
/// `ctl` (optional) is a cooperative cancellation token: it is polled
/// at every stage boundary (head, each color of each sweep, tail).
/// Once it reports cancelled, the remaining row work is skipped but
/// every thread still encounters every worksharing construct, so the
/// kernel terminates promptly with the outputs unspecified — the
/// caller must discard them. Never throws across the parallel region.
///
/// Generic over the iterate element TI (double, or Pack<double, B> for
/// batched multi-vector sweeps) and the x0 source X0 (a span, or a
/// gather adapter reading straight from request buffers); T stays the
/// split's element type.
template <class T, class TI, class Rows, class X0, class Emit>
void fbmpk_parallel_sweep_rows(const TriangularSplit<T>& s,
                               const AbmcOrdering& o, const Rows& rows,
                               const X0& x0, int k, FbWorkspace<TI>& ws,
                               Emit&& emit, RunControl* ctl = nullptr) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(k >= 1);
  FBMPK_CHECK_MSG(!o.block_ptr.empty() && o.block_ptr.back() == n,
                  "schedule does not cover the matrix");
  ws.resize(n);

  TI* xy = ws.xy.data();
  TI* tmp = ws.tmp.data();

  const int pairs = k / 2;
  const index_t num_colors = o.num_colors;

  detail::RegionSync sync;  // fork/join edges for ThreadSanitizer only
  sync.fork();
#ifdef _OPENMP
#pragma omp parallel default(shared)
#endif
  {
    sync.enter();
    // Telemetry (compiled out when FBMPK_TELEMETRY is off): one span
    // per (k-step, color) stage, recorded by thread 0 — the implicit
    // barrier after each `omp for` makes its timestamps bracket the
    // whole team's color.
    FBMPK_TELEMETRY_ONLY(
        telemetry::SweepRecorder fbmpk_rec{false};
        const bool fbmpk_rec0 = thread_id() == 0;)

    // Per-stage cancellation poll. Thread 0 additionally drives the
    // heartbeat / injected-stall checkpoint; diverging answers across
    // the team are harmless — every worksharing construct below is
    // still encountered by every thread, only loop bodies are skipped.
    const auto stage_dead = [&]() -> bool {
      if (ctl == nullptr) return false;
      if (thread_id() == 0) return ctl->checkpoint();
      return ctl->cancelled();
    };
    bool dead = stage_dead();

    // Head: even slots <- x0; tmp <- U·x0. Row-parallel, no coloring
    // needed (reads only x0).
    FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (index_t i = 0; i < n; ++i) {
      if (dead) continue;
      xy[2 * i] = x0[i];
    }
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (index_t i = 0; i < n; ++i) {
      if (dead) continue;
      TI sum{};
      rows.u_dot1(i, xy, 0, sum, kWalkUp);
      tmp[i] = sum;
    }
    FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_end("head", 0, -1);)

    for (int it = 0; it < pairs; ++it) {
      const int p_odd = 2 * it + 1;
      const int p_even = 2 * it + 2;

      // Forward: colors ascending; blocks of one color in parallel;
      // rows within a block top-down.
      for (index_t c = 0; c < num_colors; ++c) {
        dead = dead || stage_dead();
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b) {
          if (dead) continue;
          for (index_t i = o.block_ptr[b]; i < o.block_ptr[b + 1]; ++i) {
            const auto di = rows.diag(i);
            TI sum0 = madd(di, xy[2 * i], tmp[i]);
            TI sum1{};
            rows.l_dot2(i, xy, sum0, sum1, kWalkUp);
            xy[2 * i + 1] = sum0;
            emit(p_odd, i, sum0);
            tmp[i] = madd(di, sum0, sum1);
          }
        }  // implicit barrier: color c complete before c+1 starts
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0)
                                 fbmpk_rec.stage_end("fwd", p_odd,
                                                     static_cast<int>(c));)
      }

      // Backward: colors descending; rows within a block bottom-up.
      const bool prime_next = !(it == pairs - 1 && k % 2 == 0);
      for (index_t c = num_colors; c-- > 0;) {
        dead = dead || stage_dead();
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b) {
          if (dead) continue;
          for (index_t i = o.block_ptr[b + 1]; i-- > o.block_ptr[b];) {
            TI sum0 = tmp[i];
            if (prime_next) {
              TI sum1{};
              rows.u_dot2(i, xy, sum1, sum0, kWalkDown);
              xy[2 * i] = sum0;
              emit(p_even, i, sum0);
              tmp[i] = sum1;
            } else {
              rows.u_dot1(i, xy, 1, sum0, kWalkDown);
              xy[2 * i] = sum0;
              emit(p_even, i, sum0);
            }
          }
        }
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0)
                                 fbmpk_rec.stage_end("bwd", p_even,
                                                     static_cast<int>(c));)
      }
    }

    if (k % 2 == 1) {
      // Tail: reads only completed even slots and tmp; row-parallel.
      dead = dead || stage_dead();
      FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
      for (index_t i = 0; i < n; ++i) {
        if (dead) continue;
        TI sum = madd(rows.diag(i), xy[2 * i], tmp[i]);
        rows.l_dot1(i, xy, 0, sum, kWalkUp);
        emit(k, i, sum);
      }
      FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_end("tail", k, -1);)
    }
    sync.leave();
  }
  sync.join();
}

/// Color-scheduled parallel sweep with the exact scalar row policy —
/// bitwise identical to the serial kernel.
template <class T, class Emit>
void fbmpk_parallel_sweep(const TriangularSplit<T>& s, const AbmcOrdering& o,
                          std::span<const T> x0, int k, FbWorkspace<T>& ws,
                          Emit&& emit, RunControl* ctl = nullptr) {
  fbmpk_parallel_sweep_rows(s, o, ScalarRows<T>(s), x0, k, ws,
                            std::forward<Emit>(emit), ctl);
}

/// y = A^k x0, parallel; operates in the permuted index space.
template <class T>
void fbmpk_parallel_power(const TriangularSplit<T>& s, const AbmcOrdering& o,
                          std::span<const T> x0, int k, std::span<T> y,
                          FbWorkspace<T>& ws) {
  FBMPK_CHECK(y.size() == x0.size());
  FBMPK_CHECK(k >= 0);
  if (k == 0) {
    std::copy(x0.begin(), x0.end(), y.begin());
    return;
  }
  T* yp = y.data();
  fbmpk_parallel_sweep(s, o, x0, k, ws, [&](int p, index_t i, T v) {
    if (p == k) yp[i] = v;
  });
}

/// Krylov basis, parallel: out[p*n + i] = (A^p x0)[i], p in [0, k].
template <class T>
void fbmpk_parallel_power_all(const TriangularSplit<T>& s,
                              const AbmcOrdering& o, std::span<const T> x0,
                              int k, std::span<T> out, FbWorkspace<T>& ws) {
  const auto n = x0.size();
  FBMPK_CHECK(out.size() == n * static_cast<std::size_t>(k + 1));
  std::copy(x0.begin(), x0.end(), out.begin());
  if (k == 0) return;
  T* op = out.data();
  fbmpk_parallel_sweep(s, o, x0, k, ws, [&](int p, index_t i, T v) {
    op[static_cast<std::size_t>(p) * n + i] = v;
  });
}

/// y = sum_p coeffs[p] A^p x0, parallel.
template <class T>
void fbmpk_parallel_polynomial(const TriangularSplit<T>& s,
                               const AbmcOrdering& o,
                               std::span<const T> coeffs,
                               std::span<const T> x0, std::span<T> y,
                               FbWorkspace<T>& ws) {
  FBMPK_CHECK(!coeffs.empty());
  FBMPK_CHECK(y.size() == x0.size());
  const int k = static_cast<int>(coeffs.size()) - 1;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = coeffs[0] * x0[i];
  if (k == 0) return;
  T* yp = y.data();
  const T* cp = coeffs.data();
  fbmpk_parallel_sweep(s, o, x0, k, ws, [&](int p, index_t i, T v) {
    yp[i] += cp[p] * v;
  });
}

}  // namespace fbmpk
