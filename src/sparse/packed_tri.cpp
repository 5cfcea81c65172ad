#include "sparse/packed_tri.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/error.hpp"

namespace fbmpk {

namespace {

bool is_pow2(index_t v) { return v > 0 && (v & (v - 1)) == 0; }

index_t log2_exact(index_t v) {
  index_t s = 0;
  while ((index_t{1} << s) < v) ++s;
  return s;
}

/// Per-band metadata bytes as stored (base + wide flag + pool offset +
/// global row_ptr base).
constexpr std::size_t kBandMetaBytes =
    sizeof(index_t) + sizeof(std::uint8_t) + sizeof(std::uint64_t) +
    sizeof(index_t);

}  // namespace

PackedTriangleIndex PackedTriangleIndex::build_from(index_t rows,
                                                    const index_t* row_ptr,
                                                    const index_t* col_idx,
                                                    index_t band_rows) {
  FBMPK_CHECK_MSG(is_pow2(band_rows) && band_rows <= (index_t{1} << 20),
                  "band_rows must be a power of two in [1, 2^20], got "
                      << band_rows);
  FBMPK_CHECK(rows >= 0);

  PackedTriangleIndex p;
  p.rows_ = rows;
  p.band_shift_ = log2_exact(band_rows);
  p.nnz_ = rows == 0 ? 0 : row_ptr[rows];
  if (rows == 0) return p;

  const index_t bands =
      (rows + band_rows - 1) >> p.band_shift_;
  p.band_base_.resize(static_cast<std::size_t>(bands));
  p.band_wide_.resize(static_cast<std::size_t>(bands));
  p.band_off_.resize(static_cast<std::size_t>(bands));
  p.band_gbase_.resize(static_cast<std::size_t>(bands));

  for (index_t b = 0; b < bands; ++b) {
    const index_t r0 = b << p.band_shift_;
    const index_t r1 = std::min(rows, r0 + band_rows);
    const index_t k0 = row_ptr[r0];
    const index_t k1 = row_ptr[r1];
    p.band_gbase_[b] = k0;

    index_t cmin = 0, cmax = 0;
    if (k1 > k0) {
      cmin = cmax = col_idx[k0];
      for (index_t k = k0 + 1; k < k1; ++k) {
        cmin = std::min(cmin, col_idx[k]);
        cmax = std::max(cmax, col_idx[k]);
      }
    }
    const bool narrow = (k1 == k0) || (cmax - cmin <= kNarrowRange);
    if (narrow) {
      p.band_wide_[b] = 0;
      p.band_base_[b] = cmin;
      p.band_off_[b] = p.col16_.size();
      for (index_t k = k0; k < k1; ++k)
        p.col16_.push_back(static_cast<std::uint16_t>(col_idx[k] - cmin));
    } else {
      p.band_wide_[b] = 1;
      p.band_base_[b] = 0;
      p.band_off_[b] = p.col32_.size();
      for (index_t k = k0; k < k1; ++k) p.col32_.push_back(col_idx[k]);
    }
  }
  return p;
}

index_t PackedTriangleIndex::num_wide_bands() const {
  index_t w = 0;
  for (const std::uint8_t f : band_wide_) w += (f != 0);
  return w;
}

std::size_t PackedTriangleIndex::index_bytes() const {
  return col16_.size() * sizeof(std::uint16_t) +
         col32_.size() * sizeof(index_t) +
         band_wide_.size() * kBandMetaBytes;
}

double PackedTriangleIndex::bytes_per_nnz() const {
  if (nnz_ == 0) return static_cast<double>(sizeof(index_t));
  return static_cast<double>(index_bytes()) / static_cast<double>(nnz_);
}

bool PackedTriangleIndex::matches(index_t rows, const index_t* row_ptr,
                                  const index_t* col_idx) const {
  if (rows != rows_) return false;
  const index_t nnz = rows == 0 ? 0 : row_ptr[rows];
  if (nnz != nnz_) return false;
  if (rows == 0) return true;

  const index_t band_rows = index_t{1} << band_shift_;
  const index_t bands = (rows + band_rows - 1) >> band_shift_;
  if (static_cast<std::size_t>(bands) != band_wide_.size() ||
      static_cast<std::size_t>(bands) != band_base_.size() ||
      static_cast<std::size_t>(bands) != band_off_.size() ||
      static_cast<std::size_t>(bands) != band_gbase_.size())
    return false;

  for (index_t b = 0; b < bands; ++b) {
    const index_t r0 = b << band_shift_;
    const index_t r1 = std::min(rows, r0 + band_rows);
    const index_t k0 = row_ptr[r0];
    const index_t k1 = row_ptr[r1];
    if (band_gbase_[b] != k0) return false;
    const std::size_t count = static_cast<std::size_t>(k1 - k0);
    const std::size_t off = band_off_[b];
    if (band_wide_[b]) {
      if (off > col32_.size() || count > col32_.size() - off) return false;
      for (std::size_t q = 0; q < count; ++q)
        if (col32_[off + q] != col_idx[k0 + static_cast<index_t>(q)])
          return false;
    } else {
      if (off > col16_.size() || count > col16_.size() - off) return false;
      const index_t base = band_base_[b];
      for (std::size_t q = 0; q < count; ++q) {
        const index_t c =
            base + static_cast<index_t>(col16_[off + q]);
        if (c != col_idx[k0 + static_cast<index_t>(q)]) return false;
      }
    }
  }
  return true;
}

PackedTriangleIndex::Raw PackedTriangleIndex::to_raw() const {
  Raw r;
  r.rows = rows_;
  r.nnz = nnz_;
  r.band_shift = band_shift_;
  r.band_base = band_base_;
  r.band_wide = band_wide_;
  r.band_off = band_off_;
  r.band_gbase = band_gbase_;
  r.col16 = col16_;
  r.col32 = col32_;
  return r;
}

bool PackedTriangleIndex::from_raw(Raw raw, PackedTriangleIndex& out) {
  if (raw.rows < 0 || raw.nnz < 0) return false;
  if (raw.band_shift < 0 || raw.band_shift > 20) return false;
  const index_t band_rows = index_t{1} << raw.band_shift;
  const index_t bands =
      raw.rows == 0 ? 0 : (raw.rows + band_rows - 1) >> raw.band_shift;
  const auto nb = static_cast<std::size_t>(bands);
  if (raw.band_base.size() != nb || raw.band_wide.size() != nb ||
      raw.band_off.size() != nb || raw.band_gbase.size() != nb)
    return false;
  if (raw.col16.size() + raw.col32.size() !=
      static_cast<std::size_t>(raw.nnz))
    return false;
  for (std::size_t b = 0; b < nb; ++b) {
    if (raw.band_wide[b] > 1) return false;
    const std::size_t pool =
        raw.band_wide[b] ? raw.col32.size() : raw.col16.size();
    if (raw.band_off[b] > pool) return false;
  }
  out.rows_ = raw.rows;
  out.nnz_ = raw.nnz;
  out.band_shift_ = raw.band_shift;
  out.band_base_ = std::move(raw.band_base);
  out.band_wide_ = std::move(raw.band_wide);
  out.band_off_ = std::move(raw.band_off);
  out.band_gbase_ = std::move(raw.band_gbase);
  out.col16_ = std::move(raw.col16);
  out.col32_ = std::move(raw.col32);
  return true;
}

const char* precision_name(ValuePrecision p) {
  switch (p) {
    case ValuePrecision::kFp64:
      return "fp64";
    case ValuePrecision::kFp32:
      return "fp32";
  }
  return "unknown";
}

ValuePrecision parse_precision(const std::string& name) {
  if (name == "fp64") return ValuePrecision::kFp64;
  if (name == "fp32") return ValuePrecision::kFp32;
  FBMPK_FAIL(ErrorCode::kUnsupported,
             "unknown value precision '" << name << "' (want fp64|fp32)");
}

bool values_fit_fp32(std::span<const double> values) {
  constexpr double kMax =
      static_cast<double>(std::numeric_limits<float>::max());
  for (const double v : values)
    if (!std::isfinite(v) || std::abs(v) > kMax) return false;
  return true;
}

PackedTriangleValues PackedTriangleValues::build(
    std::span<const double> values, ValuePrecision p) {
  PackedTriangleValues out;
  out.prec_ = p;
  out.count_ = values.size();
  if (p == ValuePrecision::kFp64) return out;

  out.f32_.resize(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.f32_[i] = static_cast<float>(values[i]);
    if (static_cast<double>(out.f32_[i]) != values[i]) out.lossless_ = false;
  }
  return out;
}

std::size_t PackedTriangleValues::value_bytes() const {
  return f32_.size() * sizeof(float);
}

bool PackedTriangleValues::matches(std::span<const double> values) const {
  if (values.size() != count_) return false;
  const PackedTriangleValues re = build(values, prec_);
  if (re.lossless_ != lossless_ || re.f32_.size() != f32_.size())
    return false;
  // Bit-level comparison: float == would treat differing NaN payloads
  // (or -0.0 vs 0.0) inconsistently with what the kernels actually read.
  return f32_.empty() || std::memcmp(re.f32_.data(), f32_.data(),
                                     f32_.size() * sizeof(float)) == 0;
}

PackedTriangleValues::Raw PackedTriangleValues::to_raw() const {
  Raw r;
  r.precision = static_cast<std::uint8_t>(prec_);
  r.lossless = lossless_ ? 1 : 0;
  r.count = count_;
  r.f32 = f32_;
  return r;
}

bool PackedTriangleValues::from_raw(Raw raw, PackedTriangleValues& out) {
  if (raw.precision > 1 || raw.lossless > 1) return false;
  const auto p = static_cast<ValuePrecision>(raw.precision);
  const auto n = static_cast<std::size_t>(raw.count);
  const std::size_t want = p == ValuePrecision::kFp32 ? n : 0;
  if (raw.f32.size() != want) return false;
  out.prec_ = p;
  out.lossless_ = raw.lossless == 1;
  out.count_ = n;
  out.f32_ = std::move(raw.f32);
  return true;
}

}  // namespace fbmpk
