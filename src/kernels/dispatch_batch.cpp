// Batched (multi right-hand-side) row-kernel table.
//
// One portable implementation serves every backend: the batched layout
// already delivers the win the single-vector AVX variants fight for —
// the B lane iterates of a row slot are contiguous, so the inner loops
// are unit-stride and the compiler auto-vectorizes them at the build's
// target ISA without gathers or hand-written intrinsics.
//
// This TU is compiled with the SAME global flags as the scalar twins in
// dispatch.cpp — no -ffp-contract override and no `#pragma GCC target`
// regions. That is load-bearing for the bitwise contract: the per-lane
// expression shapes below are identical to fb_detail.hpp's, so the
// compiler makes the same FMA-contraction decision for both TUs in any
// given build (none at the baseline ISA, per-lane FMA under
// -march=x86-64-v3), and lane b stays bitwise equal to the B=1 exact
// sweep in every build mode.
#include "kernels/dispatch.hpp"
#include "kernels/fb_detail.hpp"

namespace fbmpk {
namespace {

// Column / value accessors: the four RowOps flavours collapse into one
// core template per dot shape.
struct ColPlain {
  const index_t* c;
  index_t operator()(index_t j) const { return c[j]; }
};
struct ColU16 {
  const std::uint16_t* c;
  index_t base;
  index_t operator()(index_t j) const {
    return base + static_cast<index_t>(c[j]);
  }
};
struct ValF64 {
  const double* v;
  double operator()(index_t j) const { return v[j]; }
};
struct ValF32 {
  const float* v;
  double operator()(index_t j) const { return static_cast<double>(v[j]); }
};
// B > 0: compile-time lane count (the common case — nv constant-folds
// and the lane loops fully vectorize). B == 0: runtime nvec fallback
// for odd widths.
template <int B, class Col, class Val>
inline void dot2_core(Col col, Val val, index_t len, const double* xy,
                      index_t nvec, int prefetch, double* s0, double* s1) {
  const index_t nv = B > 0 ? static_cast<index_t>(B) : nvec;
  // Size the partials by the compile-time width, not kMaxBatch: at
  // exactly B they live in registers for the common widths, while
  // oversized arrays can defeat the compiler's scalar replacement and
  // make every accumulation round-trip through memory. Same operations
  // in the same order either way.
  constexpr int kW = B > 0 ? B : kMaxBatch;
  double a0[kW]{}, a1[kW]{}, b0[kW]{}, b1[kW]{}, c0[kW]{}, c1[kW]{},
      d0[kW]{}, d1[kW]{};
  index_t j = 0;
  for (; j + 3 < len; j += 4) {
    if (prefetch > 0 && j + prefetch < len)
      __builtin_prefetch(xy + 2 * nv * col(j + prefetch));
    const double* pa = xy + 2 * nv * col(j);
    const double* pb = xy + 2 * nv * col(j + 1);
    const double* pc = xy + 2 * nv * col(j + 2);
    const double* pd = xy + 2 * nv * col(j + 3);
    const double v0 = val(j);
    const double v1 = val(j + 1);
    const double v2 = val(j + 2);
    const double v3 = val(j + 3);
    for (index_t b = 0; b < nv; ++b) a0[b] += v0 * pa[b];
    for (index_t b = 0; b < nv; ++b) a1[b] += v0 * pa[nv + b];
    for (index_t b = 0; b < nv; ++b) b0[b] += v1 * pb[b];
    for (index_t b = 0; b < nv; ++b) b1[b] += v1 * pb[nv + b];
    for (index_t b = 0; b < nv; ++b) c0[b] += v2 * pc[b];
    for (index_t b = 0; b < nv; ++b) c1[b] += v2 * pc[nv + b];
    for (index_t b = 0; b < nv; ++b) d0[b] += v3 * pd[b];
    for (index_t b = 0; b < nv; ++b) d1[b] += v3 * pd[nv + b];
  }
  for (; j < len; ++j) {
    const double* p = xy + 2 * nv * col(j);
    const double v = val(j);
    for (index_t b = 0; b < nv; ++b) a0[b] += v * p[b];
    for (index_t b = 0; b < nv; ++b) a1[b] += v * p[nv + b];
  }
  for (index_t b = 0; b < nv; ++b) {
    s0[b] += (a0[b] + b0[b]) + (c0[b] + d0[b]);
    s1[b] += (a1[b] + b1[b]) + (c1[b] + d1[b]);
  }
}

template <int B, class Col, class Val>
inline void dot1_core(Col col, Val val, index_t len, const double* xy,
                      index_t nvec, int offset, int prefetch, double* s) {
  const index_t nv = B > 0 ? static_cast<index_t>(B) : nvec;
  const index_t off = offset > 0 ? nv : 0;
  constexpr int kW = B > 0 ? B : kMaxBatch;  // see dot2_core
  double a[kW]{}, b2[kW]{}, c2[kW]{}, d2[kW]{};
  index_t j = 0;
  for (; j + 3 < len; j += 4) {
    if (prefetch > 0 && j + prefetch < len)
      __builtin_prefetch(xy + 2 * nv * col(j + prefetch));
    const double* pa = xy + 2 * nv * col(j) + off;
    const double* pb = xy + 2 * nv * col(j + 1) + off;
    const double* pc = xy + 2 * nv * col(j + 2) + off;
    const double* pd = xy + 2 * nv * col(j + 3) + off;
    const double v0 = val(j);
    const double v1 = val(j + 1);
    const double v2 = val(j + 2);
    const double v3 = val(j + 3);
    for (index_t b = 0; b < nv; ++b) a[b] += v0 * pa[b];
    for (index_t b = 0; b < nv; ++b) b2[b] += v1 * pb[b];
    for (index_t b = 0; b < nv; ++b) c2[b] += v2 * pc[b];
    for (index_t b = 0; b < nv; ++b) d2[b] += v3 * pd[b];
  }
  for (; j < len; ++j) {
    const double* p = xy + 2 * nv * col(j) + off;
    const double v = val(j);
    for (index_t b = 0; b < nv; ++b) a[b] += v * p[b];
  }
  for (index_t b = 0; b < nv; ++b) s[b] += (a[b] + b2[b]) + (c2[b] + d2[b]);
}

template <class Col, class Val>
inline void dot2_any(Col col, Val val, index_t len, const double* xy,
                     index_t nvec, int prefetch, double* s0, double* s1) {
  switch (nvec) {
    case 1: dot2_core<1>(col, val, len, xy, nvec, prefetch, s0, s1); return;
    case 2: dot2_core<2>(col, val, len, xy, nvec, prefetch, s0, s1); return;
    case 4: dot2_core<4>(col, val, len, xy, nvec, prefetch, s0, s1); return;
    case 8: dot2_core<8>(col, val, len, xy, nvec, prefetch, s0, s1); return;
    default: dot2_core<0>(col, val, len, xy, nvec, prefetch, s0, s1); return;
  }
}

template <class Col, class Val>
inline void dot1_any(Col col, Val val, index_t len, const double* xy,
                     index_t nvec, int offset, int prefetch, double* s) {
  switch (nvec) {
    case 1: dot1_core<1>(col, val, len, xy, nvec, offset, prefetch, s); return;
    case 2: dot1_core<2>(col, val, len, xy, nvec, offset, prefetch, s); return;
    case 4: dot1_core<4>(col, val, len, xy, nvec, offset, prefetch, s); return;
    case 8: dot1_core<8>(col, val, len, xy, nvec, offset, prefetch, s); return;
    default:
      dot1_core<0>(col, val, len, xy, nvec, offset, prefetch, s);
      return;
  }
}

// --- the eight table entries ---------------------------------------------

void bat_dot2(const index_t* col, const double* val, index_t len,
              const double* xy, index_t nvec, int prefetch, double* s0,
              double* s1) {
  dot2_any(ColPlain{col}, ValF64{val}, len, xy, nvec, prefetch, s0, s1);
}
void bat_dot1(const index_t* col, const double* val, index_t len,
              const double* xy, index_t nvec, int offset, int prefetch,
              double* s) {
  dot1_any(ColPlain{col}, ValF64{val}, len, xy, nvec, offset, prefetch, s);
}
void bat_dot2_u16(const std::uint16_t* col, const double* val, index_t len,
                  index_t base, const double* xy, index_t nvec, int prefetch,
                  double* s0, double* s1) {
  dot2_any(ColU16{col, base}, ValF64{val}, len, xy, nvec, prefetch, s0, s1);
}
void bat_dot1_u16(const std::uint16_t* col, const double* val, index_t len,
                  index_t base, const double* xy, index_t nvec, int offset,
                  int prefetch, double* s) {
  dot1_any(ColU16{col, base}, ValF64{val}, len, xy, nvec, offset, prefetch,
           s);
}
void bat_dot2_f32(const index_t* col, const float* val, index_t len,
                  const double* xy, index_t nvec, int prefetch, double* s0,
                  double* s1) {
  dot2_any(ColPlain{col}, ValF32{val}, len, xy, nvec, prefetch, s0, s1);
}
void bat_dot1_f32(const index_t* col, const float* val, index_t len,
                  const double* xy, index_t nvec, int offset, int prefetch,
                  double* s) {
  dot1_any(ColPlain{col}, ValF32{val}, len, xy, nvec, offset, prefetch, s);
}
void bat_dot2_u16_f32(const std::uint16_t* col, const float* val, index_t len,
                      index_t base, const double* xy, index_t nvec,
                      int prefetch, double* s0, double* s1) {
  dot2_any(ColU16{col, base}, ValF32{val}, len, xy, nvec, prefetch, s0, s1);
}
void bat_dot1_u16_f32(const std::uint16_t* col, const float* val, index_t len,
                      index_t base, const double* xy, index_t nvec,
                      int offset, int prefetch, double* s) {
  dot1_any(ColU16{col, base}, ValF32{val}, len, xy, nvec, offset, prefetch,
           s);
}
}  // namespace

namespace detail {
const BatchRowOps& portable_batch_ops() {
  static constexpr BatchRowOps ops = {
      bat_dot2,     bat_dot1,     bat_dot2_u16,     bat_dot1_u16,
      bat_dot2_f32, bat_dot1_f32, bat_dot2_u16_f32, bat_dot1_u16_f32,
  };
  return ops;
}
}  // namespace detail

}  // namespace fbmpk
