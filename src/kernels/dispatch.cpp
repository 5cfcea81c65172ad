// Backend implementations for the runtime row-kernel dispatch.
//
// Layout of this file:
//   1. scalar   — thin wrappers over fb_detail.hpp (exact reference)
//                 plus u16 narrow-band twins that replicate the exact
//                 4-way accumulation order, so `exact + compressed`
//                 stays bitwise identical to `exact + plain`.
//   2. avx2     — gather-based vector kernels, compiled inside a
//                 `#pragma GCC target` region so the translation unit
//                 itself needs no -march flags; guarded by CPUID at
//                 dispatch time. These reassociate (lane-parallel
//                 partial sums) and are only reachable in fast mode.
//
// Explicit non-template functions (not function templates with target
// attributes) keep GCC's per-function ISA switching reliable.
#include "kernels/dispatch.hpp"

#include <cstdlib>

#include "kernels/fb_detail.hpp"
#include "support/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FBMPK_X86 1
#include <immintrin.h>
#else
#define FBMPK_X86 0
#endif

namespace fbmpk {
namespace {

// ---------------------------------------------------------------------
// 1. scalar — exact reference (fb_detail operation order).
// ---------------------------------------------------------------------

// The exact helpers prefetch their own fixed distance along `walk`.
void dot2_scalar(const index_t* col, const double* val, index_t len,
                 const double* xy, int /*prefetch*/, Walk walk, double& s0,
                 double& s1) {
  NullTracer tr;
  if (walk == Walk::kDown)
    detail::row_dot2_btb<Walk::kDown>(col, val, 0, len, xy, s0, s1, tr);
  else
    detail::row_dot2_btb<Walk::kUp>(col, val, 0, len, xy, s0, s1, tr);
}

void dot1_scalar(const index_t* col, const double* val, index_t len,
                 const double* xy, int offset, int /*prefetch*/, Walk walk,
                 double& s) {
  NullTracer tr;
  if (walk == Walk::kDown)
    detail::row_dot1_btb<Walk::kDown>(col, val, 0, len, xy, offset, s, tr);
  else
    detail::row_dot1_btb<Walk::kUp>(col, val, 0, len, xy, offset, s, tr);
}

/// u16 twin of detail::row_dot2_btb. The accumulator structure and the
/// final (a0+b0)+(c0s+d0) reduction are copied verbatim so widening the
/// stored index never changes a single bit of the result.
void dot2_u16_scalar(const std::uint16_t* col, const double* val, index_t len,
                     index_t base, const double* xy, int /*prefetch*/,
                     Walk /*walk*/, double& s0, double& s1) {
  double a0{}, a1{}, b0{}, b1{}, c0s{}, c1s{}, d0{}, d1{};
  index_t j = 0;
  for (; j + 3 < len; j += 4) {
    const index_t c0 = base + col[j];
    const index_t c1 = base + col[j + 1];
    const index_t c2 = base + col[j + 2];
    const index_t c3 = base + col[j + 3];
    a0 += val[j] * xy[2 * c0];
    a1 += val[j] * xy[2 * c0 + 1];
    b0 += val[j + 1] * xy[2 * c1];
    b1 += val[j + 1] * xy[2 * c1 + 1];
    c0s += val[j + 2] * xy[2 * c2];
    c1s += val[j + 2] * xy[2 * c2 + 1];
    d0 += val[j + 3] * xy[2 * c3];
    d1 += val[j + 3] * xy[2 * c3 + 1];
  }
  for (; j < len; ++j) {
    const index_t c = base + col[j];
    a0 += val[j] * xy[2 * c];
    a1 += val[j] * xy[2 * c + 1];
  }
  s0 += (a0 + b0) + (c0s + d0);
  s1 += (a1 + b1) + (c1s + d1);
}

/// u16 twin of detail::row_dot1_btb (same reduction shape).
void dot1_u16_scalar(const std::uint16_t* col, const double* val, index_t len,
                     index_t base, const double* xy, int offset,
                     int /*prefetch*/, Walk /*walk*/, double& s) {
  double a{}, b{}, c2{}, d2{};
  index_t j = 0;
  for (; j + 3 < len; j += 4) {
    a += val[j] * xy[2 * (base + col[j]) + offset];
    b += val[j + 1] * xy[2 * (base + col[j + 1]) + offset];
    c2 += val[j + 2] * xy[2 * (base + col[j + 2]) + offset];
    d2 += val[j + 3] * xy[2 * (base + col[j + 3]) + offset];
  }
  for (; j < len; ++j) a += val[j] * xy[2 * (base + col[j]) + offset];
  s += (a + b) + (c2 + d2);
}

// Reduced-precision scalar twins (PR 4). The widened value is bound to
// a local double first, then used in *exactly* the reference
// accumulation shape — the only deviation from the fp64 result is the
// value encoding itself.

void dot2_f32_scalar(const index_t* col, const float* val, index_t len,
                     const double* xy, int /*prefetch*/, Walk /*walk*/,
                     double& s0, double& s1) {
  double a0{}, a1{}, b0{}, b1{}, c0s{}, c1s{}, d0{}, d1{};
  index_t j = 0;
  for (; j + 3 < len; j += 4) {
    const index_t c0 = col[j];
    const index_t c1 = col[j + 1];
    const index_t c2 = col[j + 2];
    const index_t c3 = col[j + 3];
    const double v0 = static_cast<double>(val[j]);
    const double v1 = static_cast<double>(val[j + 1]);
    const double v2 = static_cast<double>(val[j + 2]);
    const double v3 = static_cast<double>(val[j + 3]);
    a0 += v0 * xy[2 * c0];
    a1 += v0 * xy[2 * c0 + 1];
    b0 += v1 * xy[2 * c1];
    b1 += v1 * xy[2 * c1 + 1];
    c0s += v2 * xy[2 * c2];
    c1s += v2 * xy[2 * c2 + 1];
    d0 += v3 * xy[2 * c3];
    d1 += v3 * xy[2 * c3 + 1];
  }
  for (; j < len; ++j) {
    const index_t c = col[j];
    const double v = static_cast<double>(val[j]);
    a0 += v * xy[2 * c];
    a1 += v * xy[2 * c + 1];
  }
  s0 += (a0 + b0) + (c0s + d0);
  s1 += (a1 + b1) + (c1s + d1);
}

void dot1_f32_scalar(const index_t* col, const float* val, index_t len,
                     const double* xy, int offset, int /*prefetch*/,
                     Walk /*walk*/, double& s) {
  double a{}, b{}, c2{}, d2{};
  index_t j = 0;
  for (; j + 3 < len; j += 4) {
    a += static_cast<double>(val[j]) * xy[2 * col[j] + offset];
    b += static_cast<double>(val[j + 1]) * xy[2 * col[j + 1] + offset];
    c2 += static_cast<double>(val[j + 2]) * xy[2 * col[j + 2] + offset];
    d2 += static_cast<double>(val[j + 3]) * xy[2 * col[j + 3] + offset];
  }
  for (; j < len; ++j)
    a += static_cast<double>(val[j]) * xy[2 * col[j] + offset];
  s += (a + b) + (c2 + d2);
}

void dot2_u16_f32_scalar(const std::uint16_t* col, const float* val,
                         index_t len, index_t base, const double* xy,
                         int /*prefetch*/, Walk /*walk*/, double& s0,
                         double& s1) {
  double a0{}, a1{}, b0{}, b1{}, c0s{}, c1s{}, d0{}, d1{};
  index_t j = 0;
  for (; j + 3 < len; j += 4) {
    const index_t c0 = base + col[j];
    const index_t c1 = base + col[j + 1];
    const index_t c2 = base + col[j + 2];
    const index_t c3 = base + col[j + 3];
    const double v0 = static_cast<double>(val[j]);
    const double v1 = static_cast<double>(val[j + 1]);
    const double v2 = static_cast<double>(val[j + 2]);
    const double v3 = static_cast<double>(val[j + 3]);
    a0 += v0 * xy[2 * c0];
    a1 += v0 * xy[2 * c0 + 1];
    b0 += v1 * xy[2 * c1];
    b1 += v1 * xy[2 * c1 + 1];
    c0s += v2 * xy[2 * c2];
    c1s += v2 * xy[2 * c2 + 1];
    d0 += v3 * xy[2 * c3];
    d1 += v3 * xy[2 * c3 + 1];
  }
  for (; j < len; ++j) {
    const index_t c = base + col[j];
    const double v = static_cast<double>(val[j]);
    a0 += v * xy[2 * c];
    a1 += v * xy[2 * c + 1];
  }
  s0 += (a0 + b0) + (c0s + d0);
  s1 += (a1 + b1) + (c1s + d1);
}

void dot1_u16_f32_scalar(const std::uint16_t* col, const float* val,
                         index_t len, index_t base, const double* xy,
                         int offset, int /*prefetch*/, Walk /*walk*/,
                         double& s) {
  double a{}, b{}, c2{}, d2{};
  index_t j = 0;
  for (; j + 3 < len; j += 4) {
    a += static_cast<double>(val[j]) * xy[2 * (base + col[j]) + offset];
    b += static_cast<double>(val[j + 1]) *
         xy[2 * (base + col[j + 1]) + offset];
    c2 += static_cast<double>(val[j + 2]) *
          xy[2 * (base + col[j + 2]) + offset];
    d2 += static_cast<double>(val[j + 3]) *
          xy[2 * (base + col[j + 3]) + offset];
  }
  for (; j < len; ++j)
    a += static_cast<double>(val[j]) * xy[2 * (base + col[j]) + offset];
  s += (a + b) + (c2 + d2);
}

#if FBMPK_X86

// ---------------------------------------------------------------------
// 2. AVX2 — 4 nnz / iteration. The BtB layout makes both gathers use
//    the same index vector (2c for even slots, the same indices off
//    base xy+1 for odd slots), so one index computation feeds two
//    gathers + two FMAs.
// ---------------------------------------------------------------------

#pragma GCC push_options
#pragma GCC target("avx2,fma")
// The gather intrinsics expand through _mm*_undefined_* helpers that
// GCC 12 flags as "maybe uninitialized" when inlined (GCC PR 105593);
// the lanes in question are fully overwritten by the gather.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

inline double hsum256(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

void dot2_avx2(const index_t* col, const double* val, index_t len,
               const double* xy, int prefetch, Walk walk, double& s0,
               double& s1) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    if (prefetch > 0) {
      detail::prefetch_at(col + j, static_cast<int>(walk) * prefetch);
      detail::prefetch_at(val + j, static_cast<int>(walk) * prefetch);
    }
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + j));
    const __m128i c2 = _mm_slli_epi32(c, 1);
    const __m256d xe = _mm256_i32gather_pd(xy, c2, 8);
    const __m256d xo = _mm256_i32gather_pd(xy + 1, c2, 8);
    const __m256d v = _mm256_loadu_pd(val + j);
    acc0 = _mm256_fmadd_pd(v, xe, acc0);
    acc1 = _mm256_fmadd_pd(v, xo, acc1);
  }
  double t0 = hsum256(acc0);
  double t1 = hsum256(acc1);
  for (; j < len; ++j) {
    const index_t c = col[j];
    t0 += val[j] * xy[2 * c];
    t1 += val[j] * xy[2 * c + 1];
  }
  s0 += t0;
  s1 += t1;
}

void dot1_avx2(const index_t* col, const double* val, index_t len,
               const double* xy, int offset, int prefetch, Walk walk,
               double& s) {
  const double* base = xy + offset;
  __m256d acc = _mm256_setzero_pd();
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    if (prefetch > 0) {
      detail::prefetch_at(col + j, static_cast<int>(walk) * prefetch);
      detail::prefetch_at(val + j, static_cast<int>(walk) * prefetch);
    }
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + j));
    const __m128i c2 = _mm_slli_epi32(c, 1);
    const __m256d x = _mm256_i32gather_pd(base, c2, 8);
    const __m256d v = _mm256_loadu_pd(val + j);
    acc = _mm256_fmadd_pd(v, x, acc);
  }
  double t = hsum256(acc);
  for (; j < len; ++j) t += val[j] * xy[2 * col[j] + offset];
  s += t;
}

void dot2_u16_avx2(const std::uint16_t* col, const double* val, index_t len,
                   index_t base, const double* xy, int prefetch, Walk walk,
                   double& s0, double& s1) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const __m128i vbase = _mm_set1_epi32(base);
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    if (prefetch > 0) {
      detail::prefetch_at(col + j, static_cast<int>(walk) * prefetch);
      detail::prefetch_at(val + j, static_cast<int>(walk) * prefetch);
    }
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(col + j));
    const __m128i c = _mm_add_epi32(_mm_cvtepu16_epi32(raw), vbase);
    const __m128i c2 = _mm_slli_epi32(c, 1);
    const __m256d xe = _mm256_i32gather_pd(xy, c2, 8);
    const __m256d xo = _mm256_i32gather_pd(xy + 1, c2, 8);
    const __m256d v = _mm256_loadu_pd(val + j);
    acc0 = _mm256_fmadd_pd(v, xe, acc0);
    acc1 = _mm256_fmadd_pd(v, xo, acc1);
  }
  double t0 = hsum256(acc0);
  double t1 = hsum256(acc1);
  for (; j < len; ++j) {
    const index_t c = base + col[j];
    t0 += val[j] * xy[2 * c];
    t1 += val[j] * xy[2 * c + 1];
  }
  s0 += t0;
  s1 += t1;
}

void dot1_u16_avx2(const std::uint16_t* col, const double* val, index_t len,
                   index_t base, const double* xy, int offset, int prefetch,
                   Walk walk, double& s) {
  const double* xp = xy + offset;
  __m256d acc = _mm256_setzero_pd();
  const __m128i vbase = _mm_set1_epi32(base);
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    if (prefetch > 0) {
      detail::prefetch_at(col + j, static_cast<int>(walk) * prefetch);
      detail::prefetch_at(val + j, static_cast<int>(walk) * prefetch);
    }
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(col + j));
    const __m128i c = _mm_add_epi32(_mm_cvtepu16_epi32(raw), vbase);
    const __m128i c2 = _mm_slli_epi32(c, 1);
    const __m256d x = _mm256_i32gather_pd(xp, c2, 8);
    const __m256d v = _mm256_loadu_pd(val + j);
    acc = _mm256_fmadd_pd(v, x, acc);
  }
  double t = hsum256(acc);
  for (; j < len; ++j) t += val[j] * xy[2 * (base + col[j]) + offset];
  s += t;
}

// Reduced-precision AVX2 variants: 4 floats load as one 128-bit lane
// and widen with vcvtps2pd before the FMA. Same gather shape as the
// fp64 kernels above.

void dot2_f32_avx2(const index_t* col, const float* val, index_t len,
                   const double* xy, int prefetch, Walk walk, double& s0,
                   double& s1) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    if (prefetch > 0) {
      detail::prefetch_at(col + j, static_cast<int>(walk) * prefetch);
      detail::prefetch_at(val + j, static_cast<int>(walk) * prefetch);
    }
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + j));
    const __m128i c2 = _mm_slli_epi32(c, 1);
    const __m256d xe = _mm256_i32gather_pd(xy, c2, 8);
    const __m256d xo = _mm256_i32gather_pd(xy + 1, c2, 8);
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(val + j));
    acc0 = _mm256_fmadd_pd(v, xe, acc0);
    acc1 = _mm256_fmadd_pd(v, xo, acc1);
  }
  double t0 = hsum256(acc0);
  double t1 = hsum256(acc1);
  for (; j < len; ++j) {
    const index_t c = col[j];
    const double v = static_cast<double>(val[j]);
    t0 += v * xy[2 * c];
    t1 += v * xy[2 * c + 1];
  }
  s0 += t0;
  s1 += t1;
}

void dot1_f32_avx2(const index_t* col, const float* val, index_t len,
                   const double* xy, int offset, int prefetch, Walk walk,
                   double& s) {
  const double* base = xy + offset;
  __m256d acc = _mm256_setzero_pd();
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    if (prefetch > 0) {
      detail::prefetch_at(col + j, static_cast<int>(walk) * prefetch);
      detail::prefetch_at(val + j, static_cast<int>(walk) * prefetch);
    }
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + j));
    const __m128i c2 = _mm_slli_epi32(c, 1);
    const __m256d x = _mm256_i32gather_pd(base, c2, 8);
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(val + j));
    acc = _mm256_fmadd_pd(v, x, acc);
  }
  double t = hsum256(acc);
  for (; j < len; ++j)
    t += static_cast<double>(val[j]) * xy[2 * col[j] + offset];
  s += t;
}

void dot2_u16_f32_avx2(const std::uint16_t* col, const float* val,
                       index_t len, index_t base, const double* xy,
                       int prefetch, Walk walk, double& s0, double& s1) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const __m128i vbase = _mm_set1_epi32(base);
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    if (prefetch > 0) {
      detail::prefetch_at(col + j, static_cast<int>(walk) * prefetch);
      detail::prefetch_at(val + j, static_cast<int>(walk) * prefetch);
    }
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(col + j));
    const __m128i c = _mm_add_epi32(_mm_cvtepu16_epi32(raw), vbase);
    const __m128i c2 = _mm_slli_epi32(c, 1);
    const __m256d xe = _mm256_i32gather_pd(xy, c2, 8);
    const __m256d xo = _mm256_i32gather_pd(xy + 1, c2, 8);
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(val + j));
    acc0 = _mm256_fmadd_pd(v, xe, acc0);
    acc1 = _mm256_fmadd_pd(v, xo, acc1);
  }
  double t0 = hsum256(acc0);
  double t1 = hsum256(acc1);
  for (; j < len; ++j) {
    const index_t c = base + col[j];
    const double v = static_cast<double>(val[j]);
    t0 += v * xy[2 * c];
    t1 += v * xy[2 * c + 1];
  }
  s0 += t0;
  s1 += t1;
}

void dot1_u16_f32_avx2(const std::uint16_t* col, const float* val,
                       index_t len, index_t base, const double* xy,
                       int offset, int prefetch, Walk walk, double& s) {
  const double* xp = xy + offset;
  __m256d acc = _mm256_setzero_pd();
  const __m128i vbase = _mm_set1_epi32(base);
  index_t j = 0;
  for (; j + 4 <= len; j += 4) {
    if (prefetch > 0) {
      detail::prefetch_at(col + j, static_cast<int>(walk) * prefetch);
      detail::prefetch_at(val + j, static_cast<int>(walk) * prefetch);
    }
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(col + j));
    const __m128i c = _mm_add_epi32(_mm_cvtepu16_epi32(raw), vbase);
    const __m128i c2 = _mm_slli_epi32(c, 1);
    const __m256d x = _mm256_i32gather_pd(xp, c2, 8);
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(val + j));
    acc = _mm256_fmadd_pd(v, x, acc);
  }
  double t = hsum256(acc);
  for (; j < len; ++j)
    t += static_cast<double>(val[j]) * xy[2 * (base + col[j]) + offset];
  s += t;
}

#pragma GCC diagnostic pop
#pragma GCC pop_options

#endif  // FBMPK_X86

constexpr RowOps kScalarOps{
    dot2_scalar,         dot1_scalar,         dot2_u16_scalar,
    dot1_u16_scalar,     dot2_f32_scalar,     dot1_f32_scalar,
    dot2_u16_f32_scalar, dot1_u16_f32_scalar};
#if FBMPK_X86
constexpr RowOps kAvx2Ops{
    dot2_avx2,         dot1_avx2,         dot2_u16_avx2,
    dot1_u16_avx2,     dot2_f32_avx2,     dot1_f32_avx2,
    dot2_u16_f32_avx2, dot1_u16_f32_avx2};
#endif

bool cpu_has_avx2() {
#if FBMPK_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

bool backend_available(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
      return cpu_has_avx2();
  }
  return false;
}

KernelBackend resolve_backend(KernelBackend backend) {
  if (backend != KernelBackend::kAuto) return backend;
  static const KernelBackend picked = [] {
    if (const char* env = std::getenv("FBMPK_BACKEND")) {
      try {
        const KernelBackend req = parse_backend(env);
        if (req != KernelBackend::kAuto && backend_available(req)) return req;
      } catch (const Error&) {
        // Unknown name in the environment: fall through to the probe
        // rather than failing every kernel launch.
      }
    }
    return cpu_has_avx2() ? KernelBackend::kAvx2 : KernelBackend::kScalar;
  }();
  return picked;
}

const RowOps& row_kernels(KernelBackend backend) {
  const KernelBackend b = resolve_backend(backend);
  FBMPK_CHECK_CODE(backend_available(b), ErrorCode::kUnsupported,
                   "kernel backend " << backend_name(b)
                                     << " not supported on this CPU");
#if FBMPK_X86
  if (b == KernelBackend::kAvx2) return kAvx2Ops;
#endif
  return kScalarOps;
}

namespace detail {
// Defined in dispatch_batch.cpp — compiled with the default global
// flags so per-lane FMA-contraction decisions match the scalar twins.
const BatchRowOps& portable_batch_ops();
}  // namespace detail

const BatchRowOps& batch_row_kernels(KernelBackend backend) {
  const KernelBackend b = resolve_backend(backend);
  FBMPK_CHECK_CODE(backend_available(b), ErrorCode::kUnsupported,
                   "kernel backend " << backend_name(b)
                                     << " not supported on this CPU");
  // All backends share the portable lane-vectorized table: batching
  // replaces the single-vector gathers with unit-stride lane loads, so
  // there is no ISA-specific variant left to dispatch on — the
  // compiler vectorizes the lane loops at the build's target ISA.
  return detail::portable_batch_ops();
}

const char* backend_name(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kAuto:
      return "auto";
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

KernelBackend parse_backend(const std::string& name) {
  if (name == "auto") return KernelBackend::kAuto;
  if (name == "scalar") return KernelBackend::kScalar;
  if (name == "avx2") return KernelBackend::kAvx2;
  FBMPK_FAIL(ErrorCode::kUnsupported,
             "unknown kernel backend '" << name
                                        << "' (want auto|scalar|avx2)");
}

}  // namespace fbmpk
