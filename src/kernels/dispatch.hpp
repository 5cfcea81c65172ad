// Runtime-dispatched row-kernel backends (PR 3).
//
// The FBMPK inner loops come in two numerical flavours:
//  - exact:  the scalar helpers in fb_detail.hpp — fixed operation
//            order, bitwise identical serial <-> parallel. Default.
//  - fast:   vectorized variants that reassociate the dot products
//            (AVX2 gathers over the BtB iterate pair) and
//            software-prefetch the col/val streams. Error vs exact is
//            bounded by standard summation analysis: each row dot of
//            length m reassociated into lanes differs by <= m·eps·
//            sum|a_ij||x_j|, and k sweeps compound to <= 4·k·eps·‖A‖
//            relative (asserted in tests/test_fb_simd.cpp).
//
// The backend is chosen once per process from CPUID (resolve_backend);
// the AVX2 implementation is compile-time guarded so the same binary
// runs on machines without it. `FBMPK_BACKEND=<name>` in the
// environment overrides the probe — CI uses it to force the portable
// scalar path on AVX hardware.
//
// All accumulation is double: the fast layer is a perf feature for the
// paper's double-precision benchmarks, and the scalar exact path
// remains the only one instantiated for other types. Reduced-precision
// *storage* (an fp32 value stream widened per element) is described by
// ValuePrecision in sparse/packed_tri.hpp and the error-bound notes in
// docs/KERNELS.md.
#pragma once

#include <cstdint>
#include <string>

#include "kernels/walk.hpp"
#include "sparse/coo.hpp"

namespace fbmpk {

/// Which row-kernel implementation a plan executes with.
enum class KernelBackend : std::uint8_t {
  kAuto = 0,    ///< resolve once from CPUID at first use
  kScalar = 1,  ///< fb_detail helpers — exact, bitwise reference
  kAvx2 = 2,    ///< 256-bit FMA + gathers (4 nnz / iteration)
};

/// Row-dot implementations a backend provides. `col/val` point at the
/// first entry of the row (callers pre-offset by row_ptr[i]); `len` is
/// the row's nnz. `xy` is the BtB interleaved iterate array. `prefetch`
/// is the lookahead distance in nonzeros (0 disables), taken along
/// `walk`, the direction the calling sweep walks its rows. The exact
/// scalar entries ignore `prefetch`: they prefetch the fixed distance
/// of the fb_detail.hpp helpers along `walk`.
struct RowOps {
  /// s0 += row·xy[2c], s1 += row·xy[2c+1].
  void (*dot2_btb)(const index_t* col, const double* val, index_t len,
                   const double* xy, int prefetch, Walk walk, double& s0,
                   double& s1);
  /// s += row·xy[2c + offset] (offset 0 = even slots, 1 = odd).
  void (*dot1_btb)(const index_t* col, const double* val, index_t len,
                   const double* xy, int offset, int prefetch, Walk walk,
                   double& s);
  /// Narrow-band variants: columns are u16 offsets from `base`.
  void (*dot2_btb_u16)(const std::uint16_t* col, const double* val,
                       index_t len, index_t base, const double* xy,
                       int prefetch, Walk walk, double& s0, double& s1);
  void (*dot1_btb_u16)(const std::uint16_t* col, const double* val,
                       index_t len, index_t base, const double* xy,
                       int offset, int prefetch, Walk walk, double& s);

  // --- reduced-precision value streams (PR 4) ------------------------
  // Values are stored narrow and widened to double before every FMA;
  // accumulation is always fp64. The AVX2 backend widens with
  // vcvtps2pd; the scalar twins keep the exact accumulation order so
  // the *shape* of the rounding error is the value encoding alone,
  // never the summation.

  /// fp32 value stream: val[j] is widened per element.
  void (*dot2_btb_f32)(const index_t* col, const float* val, index_t len,
                       const double* xy, int prefetch, Walk walk, double& s0,
                       double& s1);
  void (*dot1_btb_f32)(const index_t* col, const float* val, index_t len,
                       const double* xy, int offset, int prefetch, Walk walk,
                       double& s);
  void (*dot2_btb_u16_f32)(const std::uint16_t* col, const float* val,
                           index_t len, index_t base, const double* xy,
                           int prefetch, Walk walk, double& s0, double& s1);
  void (*dot1_btb_u16_f32)(const std::uint16_t* col, const float* val,
                           index_t len, index_t base, const double* xy,
                           int offset, int prefetch, Walk walk, double& s);
};

/// Widest batched-lane chunk the multi-vector sweeps instantiate.
/// Larger request batches are chunked greedily over {8, 4, 2, 1}.
inline constexpr index_t kMaxBatch = 8;

/// Batched (multi right-hand-side) row-dot table. Mirrors RowOps entry
/// for entry, but the iterate array is the xy[2·B·n] vector-major
/// layout (row c's even lanes at xy[2·B·c + b], odd lanes at
/// xy[2·B·c + B + b]), `nvec` is the lane count B ≤ kMaxBatch, and the
/// accumulators are lane arrays of length B.
///
/// Numerical contract: every entry keeps the scalar exact accumulation
/// order *per lane* — only the lane dimension is vectorized (one
/// gathered row slot feeds B unit-stride FMA pairs). Lane b of a
/// batched sweep is therefore bitwise identical to the B=1 exact sweep
/// of that lane's vector at the same stored precision, for every
/// backend. This is why one portable table serves all backends: the
/// gather elimination is ISA-independent, and the compiler vectorizes
/// the unit-stride lane loops at whatever ISA the build targets.
struct BatchRowOps {
  /// s0[b] += row·xy_even lane b, s1[b] += row·xy_odd lane b.
  void (*dot2_btb_bat)(const index_t* col, const double* val, index_t len,
                       const double* xy, index_t nvec, int prefetch,
                       double* s0, double* s1);
  /// s[b] += row·xy lane b of the even (0) / odd (1) stream.
  void (*dot1_btb_bat)(const index_t* col, const double* val, index_t len,
                       const double* xy, index_t nvec, int offset,
                       int prefetch, double* s);
  void (*dot2_btb_u16_bat)(const std::uint16_t* col, const double* val,
                           index_t len, index_t base, const double* xy,
                           index_t nvec, int prefetch, double* s0,
                           double* s1);
  void (*dot1_btb_u16_bat)(const std::uint16_t* col, const double* val,
                           index_t len, index_t base, const double* xy,
                           index_t nvec, int offset, int prefetch, double* s);

  void (*dot2_btb_f32_bat)(const index_t* col, const float* val, index_t len,
                           const double* xy, index_t nvec, int prefetch,
                           double* s0, double* s1);
  void (*dot1_btb_f32_bat)(const index_t* col, const float* val, index_t len,
                           const double* xy, index_t nvec, int offset,
                           int prefetch, double* s);
  void (*dot2_btb_u16_f32_bat)(const std::uint16_t* col, const float* val,
                               index_t len, index_t base, const double* xy,
                               index_t nvec, int prefetch, double* s0,
                               double* s1);
  void (*dot1_btb_u16_f32_bat)(const std::uint16_t* col, const float* val,
                               index_t len, index_t base, const double* xy,
                               index_t nvec, int offset, int prefetch,
                               double* s);
};

/// Kernel table for a concrete backend (kAuto is resolved first).
/// Asks for an unavailable backend -> throws kUnsupported.
const RowOps& row_kernels(KernelBackend backend);

/// Batched kernel table for a backend. Validates availability exactly
/// like row_kernels; every backend currently shares the portable
/// lane-vectorized table (see BatchRowOps contract above).
const BatchRowOps& batch_row_kernels(KernelBackend backend);

/// Resolve kAuto to kAvx2 when the CPU has AVX2 and FMA, else kScalar
/// (cached after the first call). Honors the FBMPK_BACKEND environment
/// override when it names an available backend. Non-auto inputs pass
/// through.
KernelBackend resolve_backend(KernelBackend backend);

/// True iff the backend was compiled in AND the CPU supports it.
/// kScalar/kAuto are always available.
bool backend_available(KernelBackend backend);

/// "auto" / "scalar" / "avx2".
const char* backend_name(KernelBackend backend);

/// Inverse of backend_name; throws kUnsupported on unknown names.
KernelBackend parse_backend(const std::string& name);

}  // namespace fbmpk
