// Row-level building blocks shared by the serial and parallel FBMPK
// sweeps. Both kernels MUST use these helpers so their floating-point
// operation order is identical — the test suite asserts bitwise equality
// between serial and color-scheduled execution.
//
// Each helper is 4-way unrolled with independent accumulator pairs: the
// forward/backward sweeps accumulate TWO dot products per row (the
// current iterate and the pipelined next iterate), so a plain loop
// carries two dependent FMA chains; splitting each into (a, b) partial
// sums restores the instruction-level parallelism the unrolled baseline
// SpMV enjoys.
//
// The BtB helpers stream in the sweep's own walk direction: every
// unrolled step prefetches the col/val streams kWalkPrefetchNnz entries
// further along the walk (upward for forward sweeps, the head and the
// tail; downward for the backward sweeps, whose rows run bottom-up, so
// the hardware prefetcher's upward guess misses). The caller states the
// direction at compile time. Prefetches are not traced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "kernels/tracer.hpp"
#include "kernels/walk.hpp"
#include "sparse/coo.hpp"

namespace fbmpk {
namespace detail {

/// Prefetch distance of the exact BtB helpers, in nonzeros along the
/// walk. On a DRAM-resident pwtk analogue 256 and 512 measured alike
/// and 128 slower (docs/KERNELS.md "Software prefetch").
inline constexpr std::ptrdiff_t kWalkPrefetchNnz = 256;

/// kWalkPrefetchNnz as a signed element offset along walk W.
template <Walk W>
inline constexpr std::ptrdiff_t kWalkAhead =
    static_cast<std::ptrdiff_t>(W) * kWalkPrefetchNnz;

/// Prefetch p[delta]. The address is formed in integer arithmetic: near
/// either end of an array it lies outside the allocation, which a
/// prefetch tolerates (it never faults) but pointer arithmetic does not.
template <class E>
[[gnu::always_inline]] inline void prefetch_at(const E* p,
                                               std::ptrdiff_t delta) {
  const auto bytes = static_cast<std::uintptr_t>(
      delta * static_cast<std::ptrdiff_t>(sizeof(E)));
  __builtin_prefetch(reinterpret_cast<const void*>(
      reinterpret_cast<std::uintptr_t>(p) + bytes));
}

/// BtB layout: accumulate s0 += row·xy[2c], s1 += row·xy[2c+1].
///
/// In the unrolled loop each {xy[2c], xy[2c+1]} pair is one two-lane
/// vector load; lane 0 carries the even partials and lane 1 the odd
/// ones, so every lane performs exactly the scalar multiply-then-add
/// sequence (four partials, remainder into partial 0, the same
/// reduction tree).
template <Walk W, class T, MemoryTracer Tr>
inline void row_dot2_btb(const index_t* col, const T* val, index_t lo,
                         index_t hi, const T* xy, T& s0, T& s1, Tr& tr) {
  typedef T Pair __attribute__((vector_size(2 * sizeof(T))));
  const auto pair = [xy](index_t c) {
    Pair p;
    std::memcpy(&p, xy + 2 * c, sizeof p);
    return p;
  };
  Pair a{}, b{}, c{}, d{};
  index_t j = lo;
  for (; j + 3 < hi; j += 4) {
    prefetch_at(col + j, kWalkAhead<W>);
    prefetch_at(val + j, kWalkAhead<W>);
    const index_t c0 = col[j];
    const index_t c1 = col[j + 1];
    const index_t c2 = col[j + 2];
    const index_t c3 = col[j + 3];
    tr.read(col + j);
    tr.read(val + j);
    tr.read(col + j + 1);
    tr.read(val + j + 1);
    tr.read(col + j + 2);
    tr.read(val + j + 2);
    tr.read(col + j + 3);
    tr.read(val + j + 3);
    tr.read(xy + 2 * c0);
    tr.read(xy + 2 * c0 + 1);
    tr.read(xy + 2 * c1);
    tr.read(xy + 2 * c1 + 1);
    tr.read(xy + 2 * c2);
    tr.read(xy + 2 * c2 + 1);
    tr.read(xy + 2 * c3);
    tr.read(xy + 2 * c3 + 1);
    a += val[j] * pair(c0);
    b += val[j + 1] * pair(c1);
    c += val[j + 2] * pair(c2);
    d += val[j + 3] * pair(c3);
  }
  // The remainder reads its pair as two scalars: a 16-byte load of a
  // pair whose other half the sweep has just stored cannot be
  // store-forwarded, and short rows, whose few columns are mostly the
  // rows just finished, would stall on it (with a vector remainder,
  // G3_circuit's ~2-entry triangle rows ran 1.14-1.20x slower on a
  // 4-vCPU Xeon VM).
  T a0 = a[0], a1 = a[1];
  for (; j < hi; ++j) {
    tr.read(col + j);
    tr.read(val + j);
    const index_t cj = col[j];
    tr.read(xy + 2 * cj);
    tr.read(xy + 2 * cj + 1);
    a0 += val[j] * xy[2 * cj];
    a1 += val[j] * xy[2 * cj + 1];
  }
  s0 += (a0 + b[0]) + (c[0] + d[0]);
  s1 += (a1 + b[1]) + (c[1] + d[1]);
}

/// Split layout: accumulate s0 += row·xa, s1 += row·xb.
template <class T, MemoryTracer Tr>
inline void row_dot2_split(const index_t* col, const T* val, index_t lo,
                           index_t hi, const T* xa, const T* xb, T& s0,
                           T& s1, Tr& tr) {
  T a0{}, a1{}, b0{}, b1{}, c0s{}, c1s{}, d0{}, d1{};
  index_t j = lo;
  for (; j + 3 < hi; j += 4) {
    const index_t c0 = col[j];
    const index_t c1 = col[j + 1];
    const index_t c2 = col[j + 2];
    const index_t c3 = col[j + 3];
    tr.read(col + j);
    tr.read(val + j);
    tr.read(col + j + 1);
    tr.read(val + j + 1);
    tr.read(col + j + 2);
    tr.read(val + j + 2);
    tr.read(col + j + 3);
    tr.read(val + j + 3);
    tr.read(xa + c0);
    tr.read(xb + c0);
    tr.read(xa + c1);
    tr.read(xb + c1);
    tr.read(xa + c2);
    tr.read(xb + c2);
    tr.read(xa + c3);
    tr.read(xb + c3);
    a0 += val[j] * xa[c0];
    a1 += val[j] * xb[c0];
    b0 += val[j + 1] * xa[c1];
    b1 += val[j + 1] * xb[c1];
    c0s += val[j + 2] * xa[c2];
    c1s += val[j + 2] * xb[c2];
    d0 += val[j + 3] * xa[c3];
    d1 += val[j + 3] * xb[c3];
  }
  for (; j < hi; ++j) {
    tr.read(col + j);
    tr.read(val + j);
    const index_t c = col[j];
    tr.read(xa + c);
    tr.read(xb + c);
    a0 += val[j] * xa[c];
    a1 += val[j] * xb[c];
  }
  s0 += (a0 + b0) + (c0s + d0);
  s1 += (a1 + b1) + (c1s + d1);
}

/// Single dot against one BtB stream (offset 0 = even slots, 1 = odd):
/// s += row·xy[2c + offset]. Used by head/tail and the non-priming final
/// backward sweep. Prefetches along W like row_dot2_btb.
template <Walk W, class T, MemoryTracer Tr>
inline void row_dot1_btb(const index_t* col, const T* val, index_t lo,
                         index_t hi, const T* xy, int offset, T& s, Tr& tr) {
  T a{}, b{}, c2{}, d2{};
  index_t j = lo;
  for (; j + 3 < hi; j += 4) {
    prefetch_at(col + j, kWalkAhead<W>);
    prefetch_at(val + j, kWalkAhead<W>);
    tr.read(col + j);
    tr.read(val + j);
    tr.read(col + j + 1);
    tr.read(val + j + 1);
    tr.read(col + j + 2);
    tr.read(val + j + 2);
    tr.read(col + j + 3);
    tr.read(val + j + 3);
    tr.read(xy + 2 * col[j] + offset);
    tr.read(xy + 2 * col[j + 1] + offset);
    tr.read(xy + 2 * col[j + 2] + offset);
    tr.read(xy + 2 * col[j + 3] + offset);
    a += val[j] * xy[2 * col[j] + offset];
    b += val[j + 1] * xy[2 * col[j + 1] + offset];
    c2 += val[j + 2] * xy[2 * col[j + 2] + offset];
    d2 += val[j + 3] * xy[2 * col[j + 3] + offset];
  }
  for (; j < hi; ++j) {
    tr.read(col + j);
    tr.read(val + j);
    tr.read(xy + 2 * col[j] + offset);
    a += val[j] * xy[2 * col[j] + offset];
  }
  s += (a + b) + (c2 + d2);
}

// ---------------------------------------------------------------------------
// Batched (multi right-hand-side) twins. The iterate array generalizes
// from xy[2n] to xy[2·B·n], vector-major within each row slot: row c's
// B even-iterate lanes live at xy[2·B·c + b] and its B odd lanes at
// xy[2·B·c + B + b]. Each lane replicates the scalar helpers' exact
// accumulation order (the same four independent partials, remainder
// into partial 0, the same final reduction tree), and lanes never mix —
// so lane b of a batched sweep is bitwise identical to a B=1 sweep of
// that lane's vector. The per-lane loops are unit-stride, which is what
// the compiler auto-vectorizes across lanes (no gathers needed: one
// gathered row slot feeds B FMA pairs).
//
// Untraced on purpose: the batched path exists for throughput serving,
// not for the cache-simulator studies the traced single-vector sweeps
// feed.
// ---------------------------------------------------------------------------

/// Batched BtB dot pair: s0[b] += row·xy_even lane b, s1[b] += row·xy_odd
/// lane b. `s0`/`s1` point at B lane accumulators.
///
/// noinline: each instantiation must exist exactly once in the binary.
/// When these bodies inline into the serial, barrier, and engine sweep
/// pipelines separately, the optimizer makes an independent FMA-
/// contraction choice per inlining context (-ffp-contract defaults
/// contract when the target has FMA), and those choices were observed
/// to disagree — breaking the lane-vs-oracle bitwise contract on
/// -march=x86-64-v3 builds. One out-of-line copy means one decision.
template <int B, class T>
[[gnu::noinline]] inline void row_dot2_btb_bat(const index_t* col,
                                               const T* val, index_t lo,
                                               index_t hi, const T* xy, T* s0,
                                               T* s1) {
  static_assert(B >= 1);
  T a0[B]{}, a1[B]{}, b0[B]{}, b1[B]{}, c0s[B]{}, c1s[B]{}, d0[B]{}, d1[B]{};
  index_t j = lo;
  for (; j + 3 < hi; j += 4) {
    const T* pa = xy + 2 * B * col[j];
    const T* pb = xy + 2 * B * col[j + 1];
    const T* pc = xy + 2 * B * col[j + 2];
    const T* pd = xy + 2 * B * col[j + 3];
    const T v0 = val[j];
    const T v1 = val[j + 1];
    const T v2 = val[j + 2];
    const T v3 = val[j + 3];
    for (int b = 0; b < B; ++b) a0[b] += v0 * pa[b];
    for (int b = 0; b < B; ++b) a1[b] += v0 * pa[B + b];
    for (int b = 0; b < B; ++b) b0[b] += v1 * pb[b];
    for (int b = 0; b < B; ++b) b1[b] += v1 * pb[B + b];
    for (int b = 0; b < B; ++b) c0s[b] += v2 * pc[b];
    for (int b = 0; b < B; ++b) c1s[b] += v2 * pc[B + b];
    for (int b = 0; b < B; ++b) d0[b] += v3 * pd[b];
    for (int b = 0; b < B; ++b) d1[b] += v3 * pd[B + b];
  }
  for (; j < hi; ++j) {
    const T* p = xy + 2 * B * col[j];
    const T v = val[j];
    for (int b = 0; b < B; ++b) a0[b] += v * p[b];
    for (int b = 0; b < B; ++b) a1[b] += v * p[B + b];
  }
  for (int b = 0; b < B; ++b) {
    s0[b] += (a0[b] + b0[b]) + (c0s[b] + d0[b]);
    s1[b] += (a1[b] + b1[b]) + (c1s[b] + d1[b]);
  }
}

/// Batched single BtB dot: s[b] += row·xy lane b of the even (offset 0)
/// or odd (offset 1) stream. noinline: see row_dot2_btb_bat.
template <int B, class T>
[[gnu::noinline]] inline void row_dot1_btb_bat(const index_t* col,
                                               const T* val, index_t lo,
                                               index_t hi, const T* xy,
                                               int offset, T* s) {
  static_assert(B >= 1);
  const int off = offset * B;
  T a[B]{}, b2[B]{}, c2[B]{}, d2[B]{};
  index_t j = lo;
  for (; j + 3 < hi; j += 4) {
    const T* pa = xy + 2 * B * col[j] + off;
    const T* pb = xy + 2 * B * col[j + 1] + off;
    const T* pc = xy + 2 * B * col[j + 2] + off;
    const T* pd = xy + 2 * B * col[j + 3] + off;
    const T v0 = val[j];
    const T v1 = val[j + 1];
    const T v2 = val[j + 2];
    const T v3 = val[j + 3];
    for (int b = 0; b < B; ++b) a[b] += v0 * pa[b];
    for (int b = 0; b < B; ++b) b2[b] += v1 * pb[b];
    for (int b = 0; b < B; ++b) c2[b] += v2 * pc[b];
    for (int b = 0; b < B; ++b) d2[b] += v3 * pd[b];
  }
  for (; j < hi; ++j) {
    const T* p = xy + 2 * B * col[j] + off;
    const T v = val[j];
    for (int b = 0; b < B; ++b) a[b] += v * p[b];
  }
  for (int b = 0; b < B; ++b) s[b] += (a[b] + b2[b]) + (c2[b] + d2[b]);
}

/// Single dot against a plain array: s += row·x.
template <class T, MemoryTracer Tr>
inline void row_dot1_plain(const index_t* col, const T* val, index_t lo,
                           index_t hi, const T* x, T& s, Tr& tr) {
  T a{}, b{}, c2{}, d2{};
  index_t j = lo;
  for (; j + 3 < hi; j += 4) {
    tr.read(col + j);
    tr.read(val + j);
    tr.read(col + j + 1);
    tr.read(val + j + 1);
    tr.read(col + j + 2);
    tr.read(val + j + 2);
    tr.read(col + j + 3);
    tr.read(val + j + 3);
    tr.read(x + col[j]);
    tr.read(x + col[j + 1]);
    tr.read(x + col[j + 2]);
    tr.read(x + col[j + 3]);
    a += val[j] * x[col[j]];
    b += val[j + 1] * x[col[j + 1]];
    c2 += val[j + 2] * x[col[j + 2]];
    d2 += val[j + 3] * x[col[j + 3]];
  }
  for (; j < hi; ++j) {
    tr.read(col + j);
    tr.read(val + j);
    tr.read(x + col[j]);
    a += val[j] * x[col[j]];
  }
  s += (a + b) + (c2 + d2);
}

}  // namespace detail
}  // namespace fbmpk
