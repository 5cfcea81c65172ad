// Compressed column-index storage for triangular factors (PR 3).
//
// FBMPK sweeps are memory-bound (PAPER.md §III): per nonzero the plain
// CSR triangles move 4 index bytes + 8 value bytes. Most suite matrices
// are banded after ABMC reordering, so within a small run of rows the
// columns span far less than 2^16 — a per-band base plus u16 offsets
// halves the index stream. Bands whose span exceeds the narrow range
// keep full-width `index_t` columns, so compression is always lossless
// and never rejected.
//
// The packed index is a *sidecar*: it replaces only the column stream.
// `row_ptr` and `values` of the owning CsrMatrix stay authoritative and
// are shared with the packed kernels, so building the sidecar costs one
// pass and no value duplication. Decoding is random-access per row
// (offsets, not cumulative deltas), which is what the SIMD kernels in
// kernels/dispatch.cpp need to widen the u16 lane loads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "sparse/csr.hpp"
#include "support/aligned_buffer.hpp"

namespace fbmpk {

/// How triangle/diagonal values are stored for the sweeps (PR 4).
/// Accumulation is always fp64; only the *stored* value stream narrows.
enum class ValuePrecision : std::uint8_t {
  kFp64 = 0,  ///< plain doubles (default; the exact representation)
  kFp32 = 1,  ///< single floats — 4 bytes/nnz, bounded rounding error
};

/// "fp64" / "fp32".
const char* precision_name(ValuePrecision p);

/// Inverse of precision_name; throws kUnsupported on unknown names.
ValuePrecision parse_precision(const std::string& name);

/// Bytes one stored matrix value costs under a precision (the traffic
/// model's 4/8 per-nnz value term).
constexpr std::size_t precision_value_bytes(ValuePrecision p) {
  return p == ValuePrecision::kFp32 ? sizeof(float) : sizeof(double);
}

/// Column-index sidecar for one CSR triangle, compressed per row-band.
class PackedTriangleIndex {
 public:
  /// Rows per band. Must be a power of two; 64 keeps the per-band
  /// metadata (~16 bytes) well under 1% of a band's index stream while
  /// staying narrow enough that banded matrices compress every band.
  static constexpr index_t kDefaultBandRows = 64;
  /// Largest column offset a narrow band can encode.
  static constexpr index_t kNarrowRange = 65535;

  PackedTriangleIndex() = default;

  /// Build the sidecar from a CSR triangle (or any CSR matrix).
  template <class T>
  static PackedTriangleIndex build(const CsrMatrix<T>& m,
                                   index_t band_rows = kDefaultBandRows) {
    return build_from(m.rows(), m.row_ptr().data(), m.col_idx().data(),
                      band_rows);
  }

  static PackedTriangleIndex build_from(index_t rows, const index_t* row_ptr,
                                        const index_t* col_idx,
                                        index_t band_rows = kDefaultBandRows);

  /// Decoded view of one row's column stream. Exactly one of c16/c32 is
  /// non-null; `base` is the band's column base (0 for wide bands).
  struct RowView {
    const std::uint16_t* c16 = nullptr;
    const index_t* c32 = nullptr;
    index_t base = 0;
  };

  /// View of row i's columns. `lo` must be the owning matrix's
  /// row_ptr[i] — the sidecar does not duplicate the row pointers.
  RowView row(index_t i, index_t lo) const {
    const index_t b = i >> band_shift_;
    const std::size_t off =
        band_off_[b] + static_cast<std::size_t>(lo - band_gbase_[b]);
    RowView v;
    if (band_wide_[b]) {
      v.c32 = col32_.data() + off;
    } else {
      v.c16 = col16_.data() + off;
      v.base = band_base_[b];
    }
    return v;
  }

  index_t rows() const { return rows_; }
  index_t nnz() const { return nnz_; }
  index_t band_rows() const { return index_t{1} << band_shift_; }
  index_t num_bands() const {
    return static_cast<index_t>(band_wide_.size());
  }
  index_t num_wide_bands() const;
  bool empty() const { return rows_ == 0; }

  /// Bytes of the compressed column stream + band metadata (the part of
  /// matrix traffic this structure changes; values/row_ptr are shared).
  std::size_t index_bytes() const;
  /// Average index bytes per nonzero (sizeof(index_t) when empty or
  /// nothing compressed). Feeds perf/traffic_model.
  double bytes_per_nnz() const;

  /// Decode-compare against a CSR column stream: true iff this sidecar
  /// reproduces exactly `col_idx` under `row_ptr`. Used to re-validate
  /// deserialized sidecars (plan format v4 PCKD section) — any
  /// structural or content mismatch is reported as false rather than
  /// trusted. Bounds-safe on arbitrary (attacker-controlled) contents.
  bool matches(index_t rows, const index_t* row_ptr,
               const index_t* col_idx) const;

  // --- serialization access (core/plan_io.cpp) -----------------------
  struct Raw {
    index_t rows = 0;
    index_t nnz = 0;
    index_t band_shift = 0;
    AlignedVector<index_t> band_base;
    AlignedVector<std::uint8_t> band_wide;
    AlignedVector<std::uint64_t> band_off;
    AlignedVector<index_t> band_gbase;
    AlignedVector<std::uint16_t> col16;
    AlignedVector<index_t> col32;
  };
  Raw to_raw() const;
  /// Reassemble from serialized parts. Performs structural validation
  /// only (sizes, offsets in range); callers must decode-compare via
  /// matches() before trusting the contents.
  static bool from_raw(Raw raw, PackedTriangleIndex& out);

 private:
  index_t rows_ = 0;
  index_t nnz_ = 0;
  index_t band_shift_ = 6;  // log2(band rows)
  AlignedVector<index_t> band_base_;        // narrow bands: min column
  AlignedVector<std::uint8_t> band_wide_;   // 1 = full-width fallback
  AlignedVector<std::uint64_t> band_off_;   // element offset into pool
  AlignedVector<index_t> band_gbase_;       // row_ptr at band's first row
  AlignedVector<std::uint16_t> col16_;      // narrow pool: col - base
  AlignedVector<index_t> col32_;            // wide pool: absolute cols
};

/// Reduced-precision value sidecar for one triangle (or the dense
/// diagonal). Like the index sidecar, the owning CsrMatrix's fp64
/// `values` stay authoritative — this stream is a build-time re-encode
/// the kernels read instead, and deserialized sidecars are re-encoded
/// and compared before being trusted (plan format v5 VALP section).
class PackedTriangleValues {
 public:
  PackedTriangleValues() = default;

  /// Encode an fp64 value stream at `p`. kFp64 yields an empty store
  /// (the kernels then read the CSR values directly). Values must be
  /// finite and within float range for kFp32 — the caller
  /// (MpkPlan::build) rejects matrices outside it.
  static PackedTriangleValues build(std::span<const double> values,
                                    ValuePrecision p);

  ValuePrecision precision() const { return prec_; }
  bool empty() const { return prec_ == ValuePrecision::kFp64; }
  std::size_t size() const { return count_; }
  /// True iff decoding reproduces every source double bit-for-bit.
  /// Trivially true for fp64; for fp32 only when every value is a
  /// float.
  bool lossless() const { return lossless_; }

  const float* f32() const { return f32_.data(); }  ///< kFp32 stream

  /// Bytes of the reduced value stream (0 for fp64 — no sidecar).
  std::size_t value_bytes() const;

  /// Re-encode `values` at this precision and compare bitwise — the
  /// decode-compare used to validate deserialized sidecars. False on
  /// any size, precision-derived, or content mismatch.
  bool matches(std::span<const double> values) const;

  // --- serialization access (core/plan_io.cpp) -----------------------
  struct Raw {
    std::uint8_t precision = 0;
    std::uint8_t lossless = 1;
    std::uint64_t count = 0;
    AlignedVector<float> f32;
  };
  Raw to_raw() const;
  /// Structural validation only (precision in range, stream sizes
  /// consistent); callers must decode-compare via matches().
  static bool from_raw(Raw raw, PackedTriangleValues& out);

 private:
  ValuePrecision prec_ = ValuePrecision::kFp64;
  bool lossless_ = true;
  std::size_t count_ = 0;
  AlignedVector<float> f32_;  ///< kFp32 pool
};

/// Value sidecars for both triangles and the diagonal of a split.
struct PackedSplitValues {
  ValuePrecision precision = ValuePrecision::kFp64;
  PackedTriangleValues lower;
  PackedTriangleValues upper;
  PackedTriangleValues diag;

  bool empty() const { return precision == ValuePrecision::kFp64; }
  bool lossless() const {
    return lower.lossless() && upper.lossless() && diag.lossless();
  }
  std::size_t value_bytes() const {
    return lower.value_bytes() + upper.value_bytes() + diag.value_bytes();
  }
};

/// True iff every value is finite and within float magnitude range —
/// the precondition for kFp32 storage.
bool values_fit_fp32(std::span<const double> values);

/// Packed sidecars for both triangles of a TriangularSplit.
struct PackedSplitIndex {
  PackedTriangleIndex lower;
  PackedTriangleIndex upper;

  bool empty() const { return lower.empty() && upper.empty(); }
  std::size_t index_bytes() const {
    return lower.index_bytes() + upper.index_bytes();
  }
  /// Combined average over both triangles.
  double bytes_per_nnz() const {
    const double nnz =
        static_cast<double>(lower.nnz()) + static_cast<double>(upper.nnz());
    if (nnz == 0.0) return static_cast<double>(sizeof(index_t));
    return static_cast<double>(index_bytes()) / nnz;
  }
};

}  // namespace fbmpk
