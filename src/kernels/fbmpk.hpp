// Serial forward-backward MPK (FBMPK) — the paper's core contribution
// (§III-B/C, Algorithm 2's serial skeleton).
//
// Two variants:
//  - fbmpk_sweep_btb:   back-to-back (BtB) interleaved iterate storage,
//                       xy[2i] = even iterate, xy[2i+1] = odd iterate —
//                       the paper's full "FB+BtB" configuration.
//  - fbmpk_sweep_split: identical pipeline with the two iterates in
//                       separate arrays — the "FB only" ablation of
//                       Fig 10.
//
// Pipeline recap: after the head primes tmp = U·x0, each (forward,
// backward) pair advances the power by two while reading L and U once
// each. The forward sweep walks L's rows top-down: it completes the odd
// iterate (x_odd[i] = tmp[i] + d[i]·x_even[i] + (L·x_even)[i]) and — in
// the same pass over L's row — accumulates (L·x_odd)[i], legal because
// all x_odd[j], j < i are already final. The backward sweep mirrors this
// on U bottom-up, completing the even iterate and priming U·x_even for
// the next pair. Odd k finishes with a tail sweep over L.
//
// Matrix traffic: ⌈(k+1)/2⌉ combined L+U reads vs k full reads for the
// standard MPK (see DESIGN.md §1). Row-level arithmetic lives in
// kernels/fb_detail.hpp and is shared with the parallel kernel so both
// produce bitwise-identical results.
#pragma once

#include <span>
#include <utility>

#include "kernels/fb_detail.hpp"
#include "kernels/spmv.hpp"
#include "kernels/tracer.hpp"
#include "sparse/split.hpp"
#include "support/aligned_buffer.hpp"
#include "support/error.hpp"

namespace fbmpk {

/// Fixed-width lane pack: the iterate element of a batched (multi
/// right-hand-side) sweep. Standard layout with no padding, so an
/// FbWorkspace<Pack<double, B>>::xy array IS the raw xy[2·B·n]
/// vector-major interleaved layout: row slot i's B even-iterate lanes
/// occupy doubles [2·B·i, 2·B·i + B) and its odd lanes
/// [2·B·i + B, 2·B·i + 2B). Arithmetic is elementwise, so each lane
/// follows exactly the scalar pipeline's operation order and a batched
/// sweep's lane b is bitwise identical to the B=1 sweep of that lane.
template <class T, int B>
struct Pack {
  T v[B];

  Pack& operator+=(const Pack& o) {
    for (int b = 0; b < B; ++b) v[b] += o.v[b];
    return *this;
  }
  friend Pack operator+(Pack a, const Pack& b) {
    for (int i = 0; i < B; ++i) a.v[i] += b.v[i];
    return a;
  }
  friend Pack operator*(T s, Pack a) {
    for (int i = 0; i < B; ++i) a.v[i] = s * a.v[i];
    return a;
  }
};
static_assert(sizeof(Pack<double, 4>) == 4 * sizeof(double));

/// a + s·x with the multiply-add as ONE expression per lane. The sweep
/// pipelines must use this — never `a + s * x` through the Pack
/// operators — for the iterate updates: operator temporaries split the
/// shape across statements, where FMA contraction under -ffp-contract
/// defaults is at the optimizer's whim and was observed to diverge
/// between the serial and the parallel instantiations of the same
/// template. Expression-local contraction is uniform for the scalar
/// form, so every pipeline makes the same decision per build.
///
/// The Pack overload is additionally noinline: even as a single
/// expression per lane, the lane loop inlined into three different
/// sweep pipelines gave the optimizer three independent shots at the
/// contract-or-not choice, and the engine's Pack<double,2> copy was
/// observed to disagree with the others on -march=x86-64-v3. One
/// out-of-line copy per (T, B) means one choice, shared by every
/// pipeline — load-bearing for the batched bitwise contract.
inline double madd(double s, double x, double a) { return a + s * x; }
template <class T, int B>
[[gnu::noinline]] inline Pack<T, B> madd(T s, const Pack<T, B>& x,
                                         const Pack<T, B>& a) {
  Pack<T, B> r;
  for (int b = 0; b < B; ++b) r.v[b] = a.v[b] + s * x.v[b];
  return r;
}

/// Scratch vectors for serial FBMPK.
template <class T>
struct FbWorkspace {
  AlignedVector<T> xy;    ///< 2n interleaved iterates (BtB layout)
  AlignedVector<T> tmp;   ///< n: holds U·x_even or L·x_odd + D·x_odd
  AlignedVector<T> xalt;  ///< n: second iterate for the split variant

  void resize(index_t n) {
    xy.resize(2 * static_cast<std::size_t>(n));
    tmp.resize(static_cast<std::size_t>(n));
    xalt.resize(static_cast<std::size_t>(n));
  }
};

/// FB + BtB sweep. emit(p, i, v) fires once per power p in [1, k], row i,
/// with v = (A^p x0)[i]. k >= 1.
template <class T, class Emit, MemoryTracer Tr>
void fbmpk_sweep_btb(const TriangularSplit<T>& s, std::span<const T> x0,
                     int k, FbWorkspace<T>& ws, Emit&& emit, Tr& tr) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
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

  // Head: even slots <- x0; tmp <- U·x0.
  for (index_t i = 0; i < n; ++i) {
    tr.read(x0.data() + i);
    xy[2 * i] = x0[i];
    tr.write(xy + 2 * i);
  }
  for (index_t i = 0; i < n; ++i) {
    tr.read(urp + i);
    tr.read(urp + i + 1);
    T sum{};
    detail::row_dot1_btb<Walk::kUp>(uci, uva, urp[i], urp[i + 1], xy, 0, sum,
                                     tr);
    tmp[i] = sum;
    tr.write(tmp + i);
  }

  const int pairs = k / 2;
  for (int it = 0; it < pairs; ++it) {
    const int p_odd = 2 * it + 1;
    const int p_even = 2 * it + 2;

    // Forward sweep over L, top-down. Completes the odd iterate and
    // primes tmp = L·x_odd + D·x_odd.
    for (index_t i = 0; i < n; ++i) {
      tr.read(lrp + i);
      tr.read(lrp + i + 1);
      tr.read(tmp + i);
      tr.read(d + i);
      tr.read(xy + 2 * i);
      T sum0 = tmp[i] + d[i] * xy[2 * i];
      T sum1{};
      detail::row_dot2_btb<Walk::kUp>(lci, lva, lrp[i], lrp[i + 1], xy, sum0,
                                      sum1, tr);
      xy[2 * i + 1] = sum0;
      tr.write(xy + 2 * i + 1);
      emit(p_odd, i, sum0);
      tmp[i] = sum1 + d[i] * sum0;
      tr.write(tmp + i);
    }

    // Backward sweep over U, bottom-up. Completes the even iterate; on
    // every pair except a final even-k one it also primes tmp = U·x_even
    // for the next forward sweep.
    const bool prime_next = !(it == pairs - 1 && k % 2 == 0);
    if (prime_next) {
      for (index_t i = n; i-- > 0;) {
        tr.read(urp + i);
        tr.read(urp + i + 1);
        tr.read(tmp + i);
        T sum0 = tmp[i];
        T sum1{};
        // row_dot2 accumulates (even, odd); backward wants sum0 += odd,
        // sum1 += even, hence the swapped outputs.
        detail::row_dot2_btb<Walk::kDown>(uci, uva, urp[i], urp[i + 1], xy,
                                          sum1, sum0, tr);
        xy[2 * i] = sum0;
        tr.write(xy + 2 * i);
        emit(p_even, i, sum0);
        tmp[i] = sum1;
        tr.write(tmp + i);
      }
    } else {
      for (index_t i = n; i-- > 0;) {
        tr.read(urp + i);
        tr.read(urp + i + 1);
        tr.read(tmp + i);
        T sum0 = tmp[i];
        detail::row_dot1_btb<Walk::kDown>(uci, uva, urp[i], urp[i + 1], xy, 1,
                                          sum0, tr);
        xy[2 * i] = sum0;
        tr.write(xy + 2 * i);
        emit(p_even, i, sum0);
      }
    }
  }

  if (k % 2 == 1) {
    // Tail: x_k = L·x_{k-1} + D·x_{k-1} + U·x_{k-1}; even slots hold
    // x_{k-1} and tmp already holds U·x_{k-1}.
    for (index_t i = 0; i < n; ++i) {
      tr.read(lrp + i);
      tr.read(lrp + i + 1);
      tr.read(tmp + i);
      tr.read(d + i);
      tr.read(xy + 2 * i);
      T sum = tmp[i] + d[i] * xy[2 * i];
      detail::row_dot1_btb<Walk::kUp>(lci, lva, lrp[i], lrp[i + 1], xy, 0, sum,
                                      tr);
      emit(k, i, sum);
    }
  }
}

/// FB-only sweep: same pipeline, iterates in two separate arrays
/// (Fig 10's "FB" configuration). Uses ws.xy's first n slots as the
/// even iterate and ws.xalt as the odd iterate.
template <class T, class Emit, MemoryTracer Tr>
void fbmpk_sweep_split(const TriangularSplit<T>& s, std::span<const T> x0,
                       int k, FbWorkspace<T>& ws, Emit&& emit, Tr& tr) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(k >= 1);
  ws.resize(n);

  const index_t* lrp = s.lower.row_ptr().data();
  const index_t* lci = s.lower.col_idx().data();
  const T* lva = s.lower.values().data();
  const index_t* urp = s.upper.row_ptr().data();
  const index_t* uci = s.upper.col_idx().data();
  const T* uva = s.upper.values().data();
  const T* d = s.diag.data();
  T* xe = ws.xy.data();    // even iterate
  T* xo = ws.xalt.data();  // odd iterate
  T* tmp = ws.tmp.data();

  for (index_t i = 0; i < n; ++i) {
    tr.read(x0.data() + i);
    xe[i] = x0[i];
    tr.write(xe + i);
  }
  for (index_t i = 0; i < n; ++i) {
    tr.read(urp + i);
    tr.read(urp + i + 1);
    T sum{};
    detail::row_dot1_plain(uci, uva, urp[i], urp[i + 1], xe, sum, tr);
    tmp[i] = sum;
    tr.write(tmp + i);
  }

  const int pairs = k / 2;
  for (int it = 0; it < pairs; ++it) {
    const int p_odd = 2 * it + 1;
    const int p_even = 2 * it + 2;

    for (index_t i = 0; i < n; ++i) {
      tr.read(lrp + i);
      tr.read(lrp + i + 1);
      tr.read(tmp + i);
      tr.read(d + i);
      tr.read(xe + i);
      T sum0 = tmp[i] + d[i] * xe[i];
      T sum1{};
      detail::row_dot2_split(lci, lva, lrp[i], lrp[i + 1], xe, xo, sum0,
                             sum1, tr);
      xo[i] = sum0;
      tr.write(xo + i);
      emit(p_odd, i, sum0);
      tmp[i] = sum1 + d[i] * sum0;
      tr.write(tmp + i);
    }

    const bool prime_next = !(it == pairs - 1 && k % 2 == 0);
    if (prime_next) {
      for (index_t i = n; i-- > 0;) {
        tr.read(urp + i);
        tr.read(urp + i + 1);
        tr.read(tmp + i);
        T sum0 = tmp[i];
        T sum1{};
        detail::row_dot2_split(uci, uva, urp[i], urp[i + 1], xo, xe, sum0,
                               sum1, tr);
        xe[i] = sum0;
        tr.write(xe + i);
        emit(p_even, i, sum0);
        tmp[i] = sum1;
        tr.write(tmp + i);
      }
    } else {
      for (index_t i = n; i-- > 0;) {
        tr.read(urp + i);
        tr.read(urp + i + 1);
        tr.read(tmp + i);
        T sum0 = tmp[i];
        detail::row_dot1_plain(uci, uva, urp[i], urp[i + 1], xo, sum0, tr);
        xe[i] = sum0;
        tr.write(xe + i);
        emit(p_even, i, sum0);
      }
    }
  }

  if (k % 2 == 1) {
    for (index_t i = 0; i < n; ++i) {
      tr.read(lrp + i);
      tr.read(lrp + i + 1);
      tr.read(tmp + i);
      tr.read(d + i);
      tr.read(xe + i);
      T sum = tmp[i] + d[i] * xe[i];
      detail::row_dot1_plain(lci, lva, lrp[i], lrp[i + 1], xe, sum, tr);
      emit(k, i, sum);
    }
  }
}

/// Which serial FBMPK variant to run.
enum class FbVariant { kBtb, kSplit };

/// Generic dispatcher (untraced).
template <class T, class Emit>
void fbmpk_sweep(const TriangularSplit<T>& s, std::span<const T> x0, int k,
                 FbWorkspace<T>& ws, Emit&& emit,
                 FbVariant variant = FbVariant::kBtb) {
  NullTracer tr;
  if (variant == FbVariant::kBtb)
    fbmpk_sweep_btb(s, x0, k, ws, std::forward<Emit>(emit), tr);
  else
    fbmpk_sweep_split(s, x0, k, ws, std::forward<Emit>(emit), tr);
}

/// y = A^k x0 via serial FBMPK. k = 0 copies x0.
template <class T>
void fbmpk_power(const TriangularSplit<T>& s, std::span<const T> x0, int k,
                 std::span<T> y, FbWorkspace<T>& ws,
                 FbVariant variant = FbVariant::kBtb) {
  FBMPK_CHECK(y.size() == x0.size());
  FBMPK_CHECK(k >= 0);
  if (k == 0) {
    std::copy(x0.begin(), x0.end(), y.begin());
    return;
  }
  fbmpk_sweep(
      s, x0, k, ws,
      [&](int p, index_t i, T v) {
        if (p == k) y[i] = v;
      },
      variant);
}

/// Krylov basis via serial FBMPK: out[p*n + i] = (A^p x0)[i], p in [0,k].
template <class T>
void fbmpk_power_all(const TriangularSplit<T>& s, std::span<const T> x0,
                     int k, std::span<T> out, FbWorkspace<T>& ws,
                     FbVariant variant = FbVariant::kBtb) {
  const auto n = x0.size();
  FBMPK_CHECK(out.size() == n * static_cast<std::size_t>(k + 1));
  std::copy(x0.begin(), x0.end(), out.begin());
  if (k == 0) return;
  fbmpk_sweep(
      s, x0, k, ws,
      [&](int p, index_t i, T v) {
        out[static_cast<std::size_t>(p) * n + i] = v;
      },
      variant);
}

/// y = sum_{p=0..k} coeffs[p] * A^p x0 via serial FBMPK — the library's
/// generic SSpMV form (paper §I).
template <class T>
void fbmpk_polynomial(const TriangularSplit<T>& s, std::span<const T> coeffs,
                      std::span<const T> x0, std::span<T> y,
                      FbWorkspace<T>& ws,
                      FbVariant variant = FbVariant::kBtb) {
  FBMPK_CHECK(!coeffs.empty());
  FBMPK_CHECK(y.size() == x0.size());
  const int k = static_cast<int>(coeffs.size()) - 1;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = coeffs[0] * x0[i];
  if (k == 0) return;
  fbmpk_sweep(
      s, x0, k, ws,
      [&](int p, index_t i, T v) { y[i] += coeffs[p] * v; }, variant);
}

}  // namespace fbmpk
