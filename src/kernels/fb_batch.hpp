// Batched (multi right-hand-side) row policies and adapters.
//
// A batched sweep runs the ordinary FBMPK pipeline (fb_simd.hpp /
// fbmpk_parallel.hpp) with the iterate element widened from double to
// Pack<double, B>: the workspace's xy array is then exactly the raw
// xy[2·B·n] vector-major interleaved layout, every triangle element is
// read once per row slot and feeds B unit-stride FMA pairs, and the
// per-sweep matrix traffic is amortized over B request vectors.
//
// Two row policies mirror the single-vector pair:
//  - BatchScalarRows<B>:   exact — fb_detail's batched helpers, lane b
//                          bitwise identical to the B=1 exact sweep.
//  - BatchDispatchRows<B>: fast/packed — routes through BatchRowOps
//                          (kernels/dispatch.hpp), covering compressed
//                          u16 indices and the fp32 value stream.
//                          Also exact per lane: the portable
//                          batch table keeps the scalar accumulation
//                          order in every lane (see dispatch.hpp).
//
// BatchX0<B> is the no-copy gather adapter: the head stage reads lane b
// of row slot i straight from xs[b][old_of(i)], applying the plan's
// reorder permutation inline, so batched execution never stages the B
// input vectors into a permuted scratch copy.
#pragma once

#include "kernels/dispatch.hpp"
#include "kernels/fbmpk.hpp"
#include "reorder/permutation.hpp"
#include "sparse/packed_tri.hpp"
#include "sparse/split.hpp"

namespace fbmpk {

/// x0 source for a batched sweep: size() and operator[] over Pack
/// lanes, gathering from B caller-owned vectors with the permutation
/// (old_of) applied inline. `perm == nullptr` means identity.
template <int B>
struct BatchX0 {
  const double* const* xs;
  const Permutation* perm;
  index_t n;

  std::size_t size() const { return static_cast<std::size_t>(n); }
  Pack<double, B> operator[](index_t i) const {
    const index_t src = perm == nullptr ? i : perm->old_of(i);
    Pack<double, B> p;
    for (int b = 0; b < B; ++b) p.v[b] = xs[b][src];
    return p;
  }
};

/// Exact batched row policy — the Pack twin of ScalarRows<double>.
template <int B>
struct BatchScalarRows {
  using P = Pack<double, B>;

  const index_t* lrp;
  const index_t* lci;
  const double* lva;
  const index_t* urp;
  const index_t* uci;
  const double* uva;
  const double* dgv;

  explicit BatchScalarRows(const TriangularSplit<double>& s)
      : lrp(s.lower.row_ptr().data()),
        lci(s.lower.col_idx().data()),
        lva(s.lower.values().data()),
        urp(s.upper.row_ptr().data()),
        uci(s.upper.col_idx().data()),
        uva(s.upper.values().data()),
        dgv(s.diag.data()) {}

  static const double* raw(const P* xy) {
    return reinterpret_cast<const double*>(xy);
  }

  // The sweep's walk tag is accepted and unused: the batched helpers
  // do not prefetch along the walk.
  template <Walk W>
  void l_dot2(index_t i, const P* xy, P& s0, P& s1, WalkTag<W>) const {
    detail::row_dot2_btb_bat<B>(lci, lva, lrp[i], lrp[i + 1], raw(xy), s0.v,
                                s1.v);
  }
  template <Walk W>
  void u_dot2(index_t i, const P* xy, P& s0, P& s1, WalkTag<W>) const {
    detail::row_dot2_btb_bat<B>(uci, uva, urp[i], urp[i + 1], raw(xy), s0.v,
                                s1.v);
  }
  template <Walk W>
  void l_dot1(index_t i, const P* xy, int offset, P& s, WalkTag<W>) const {
    detail::row_dot1_btb_bat<B>(lci, lva, lrp[i], lrp[i + 1], raw(xy), offset,
                                s.v);
  }
  template <Walk W>
  void u_dot1(index_t i, const P* xy, int offset, P& s, WalkTag<W>) const {
    detail::row_dot1_btb_bat<B>(uci, uva, urp[i], urp[i + 1], raw(xy), offset,
                                s.v);
  }
  double diag(index_t i) const { return dgv[i]; }
  void warm(index_t i, double& acc) const {
    for (index_t q = lrp[i]; q < lrp[i + 1]; ++q)
      acc += lva[q] + static_cast<double>(lci[q]);
    for (index_t q = urp[i]; q < urp[i + 1]; ++q)
      acc += uva[q] + static_cast<double>(uci[q]);
  }
};

/// Batched twin of TriRowKernel: one triangle's rows through the
/// BatchRowOps table, with packed-index and reduced-precision routing.
template <int B>
struct BatchTriRowKernel {
  const index_t* rp = nullptr;
  const index_t* ci = nullptr;
  const double* va = nullptr;
  const PackedTriangleIndex* packed = nullptr;
  const BatchRowOps* ops = nullptr;
  int prefetch = 0;
  const float* v32 = nullptr;

  void dot2(index_t i, const double* xy, double* s0, double* s1) const {
    const index_t lo = rp[i];
    const index_t len = rp[i + 1] - lo;
    if (packed == nullptr) {
      if (v32 != nullptr)
        ops->dot2_btb_f32_bat(ci + lo, v32 + lo, len, xy, B, prefetch, s0,
                              s1);
      else
        ops->dot2_btb_bat(ci + lo, va + lo, len, xy, B, prefetch, s0, s1);
      return;
    }
    const auto v = packed->row(i, lo);
    if (v.c16 != nullptr) {
      if (v32 != nullptr)
        ops->dot2_btb_u16_f32_bat(v.c16, v32 + lo, len, v.base, xy, B,
                                  prefetch, s0, s1);
      else
        ops->dot2_btb_u16_bat(v.c16, va + lo, len, v.base, xy, B, prefetch,
                              s0, s1);
    } else {
      if (v32 != nullptr)
        ops->dot2_btb_f32_bat(v.c32, v32 + lo, len, xy, B, prefetch, s0, s1);
      else
        ops->dot2_btb_bat(v.c32, va + lo, len, xy, B, prefetch, s0, s1);
    }
  }

  void dot1(index_t i, const double* xy, int offset, double* s) const {
    const index_t lo = rp[i];
    const index_t len = rp[i + 1] - lo;
    if (packed == nullptr) {
      if (v32 != nullptr)
        ops->dot1_btb_f32_bat(ci + lo, v32 + lo, len, xy, B, offset, prefetch,
                              s);
      else
        ops->dot1_btb_bat(ci + lo, va + lo, len, xy, B, offset, prefetch, s);
      return;
    }
    const auto v = packed->row(i, lo);
    if (v.c16 != nullptr) {
      if (v32 != nullptr)
        ops->dot1_btb_u16_f32_bat(v.c16, v32 + lo, len, v.base, xy, B, offset,
                                  prefetch, s);
      else
        ops->dot1_btb_u16_bat(v.c16, va + lo, len, v.base, xy, B, offset,
                              prefetch, s);
    } else {
      if (v32 != nullptr)
        ops->dot1_btb_f32_bat(v.c32, v32 + lo, len, xy, B, offset, prefetch,
                              s);
      else
        ops->dot1_btb_bat(v.c32, va + lo, len, xy, B, offset, prefetch, s);
    }
  }

  double value_at(index_t q) const {
    return v32 != nullptr ? static_cast<double>(v32[q]) : va[q];
  }

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

/// Batched twin of DispatchRows — fast/packed policy over Pack lanes.
template <int B>
struct BatchDispatchRows {
  using P = Pack<double, B>;

  BatchTriRowKernel<B> l;
  BatchTriRowKernel<B> u;
  const double* d64 = nullptr;
  const float* d32 = nullptr;

  static const double* raw(const P* xy) {
    return reinterpret_cast<const double*>(xy);
  }

  // The sweep's walk tag is accepted and unused: the batched helpers
  // do not prefetch along the walk.
  template <Walk W>
  void l_dot2(index_t i, const P* xy, P& s0, P& s1, WalkTag<W>) const {
    l.dot2(i, raw(xy), s0.v, s1.v);
  }
  template <Walk W>
  void u_dot2(index_t i, const P* xy, P& s0, P& s1, WalkTag<W>) const {
    u.dot2(i, raw(xy), s0.v, s1.v);
  }
  template <Walk W>
  void l_dot1(index_t i, const P* xy, int offset, P& s, WalkTag<W>) const {
    l.dot1(i, raw(xy), offset, s.v);
  }
  template <Walk W>
  void u_dot1(index_t i, const P* xy, int offset, P& s, WalkTag<W>) const {
    u.dot1(i, raw(xy), offset, s.v);
  }
  double diag(index_t i) const {
    return d32 != nullptr ? static_cast<double>(d32[i]) : d64[i];
  }
  void warm(index_t i, double& acc) const {
    l.warm(i, acc);
    u.warm(i, acc);
  }
};

/// Batched twin of make_dispatch_rows; same lifetime rules (`ops` and
/// `values` must outlive the returned policy).
template <int B>
BatchDispatchRows<B> make_batch_dispatch_rows(const TriangularSplit<double>& s,
                                              const PackedSplitIndex* packed,
                                              const PackedSplitValues* values,
                                              const BatchRowOps& ops,
                                              int prefetch) {
  BatchDispatchRows<B> r;
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

}  // namespace fbmpk
