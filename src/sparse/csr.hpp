// Compressed Sparse Row matrix — the computational storage format
// (paper §II-A, Fig 1).
//
// row_ptr has length rows()+1; row i's entries occupy
// [row_ptr[i], row_ptr[i+1]) in col_idx / values. Columns within a row
// are sorted ascending and unique (enforced by the builders) — except
// for renumbered triangles (see the Triangle constructor), whose
// columns ascend in a base numbering instead.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <utility>

#include "sparse/coo.hpp"
#include "support/aligned_buffer.hpp"
#include "support/error.hpp"

namespace fbmpk {

/// Which strict triangle a renumbered triangle holds in its base
/// numbering.
enum class Triangle { kLower, kUpper };

template <class T>
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Take ownership of prebuilt arrays. Validates the structure.
  CsrMatrix(index_t rows, index_t cols, AlignedVector<index_t> row_ptr,
            AlignedVector<index_t> col_idx, AlignedVector<T> values)
      : rows_(rows),
        cols_(cols),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        values_(std::move(values)) {
    validate();
  }

  /// Take ownership of a strict triangle stored under a renumbering:
  /// row i is row base_of[i] of a strict `tri` triangle of the base
  /// numbering, with its columns renamed into the stored numbering and
  /// its entries kept in base order (so every row dot accumulates as it
  /// does in the base numbering). Validates that invariant in place of
  /// stored-column order: per row, base_of[column] strictly ascending
  /// and strictly below (kLower) or above (kUpper) base_of[i].
  /// `base_of` must be a permutation of [0, n) (Permutation::order()).
  CsrMatrix(Triangle tri, std::span<const index_t> base_of, index_t n,
            AlignedVector<index_t> row_ptr, AlignedVector<index_t> col_idx,
            AlignedVector<T> values)
      : rows_(n),
        cols_(n),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        values_(std::move(values)) {
    FBMPK_CHECK_CODE(base_of.size() == static_cast<std::size_t>(n),
                     ErrorCode::kInvalidMatrix,
                     "renumbering length " << base_of.size() << " != rows "
                                           << n);
    validate_rows(
        [&](index_t i, index_t k) {
          const index_t b = base_of[col_idx_[k]];
          return (k == row_ptr_[i] || base_of[col_idx_[k - 1]] < b) &&
                 (tri == Triangle::kLower ? b < base_of[i] : b > base_of[i]);
        },
        "renumbered triangle: base columns not strictly ascending inside "
        "the triangle in row ");
  }

  /// Compress a COO matrix: sorts row-major and sums duplicates.
  static CsrMatrix from_coo(const CooMatrix<T>& coo) {
    CooMatrix<T> sorted = coo;  // keep caller's triplet order intact
    sorted.sort_row_major();
    return from_sorted_coo(sorted);
  }

  /// Compress an already row-major-sorted COO matrix (sums duplicates).
  static CsrMatrix from_sorted_coo(const CooMatrix<T>& coo) {
    // nnz is stored in index_t: refuse assemblies that would overflow
    // the 32-bit index arithmetic used throughout the kernels.
    FBMPK_CHECK_CODE(
        coo.nnz() <=
            static_cast<std::size_t>(std::numeric_limits<index_t>::max()),
        ErrorCode::kResourceLimit,
        "nnz " << coo.nnz() << " overflows the 32-bit index type");
    CsrMatrix m;
    m.rows_ = coo.rows();
    m.cols_ = coo.cols();
    m.row_ptr_.assign(static_cast<std::size_t>(m.rows_) + 1, 0);
    m.col_idx_.reserve(coo.nnz());
    m.values_.reserve(coo.nnz());

    index_t prev_row = -1;
    index_t prev_col = -1;
    for (const auto& e : coo.entries()) {
      FBMPK_CHECK_MSG(e.row >= prev_row, "COO entries not sorted row-major");
      if (e.row == prev_row && e.col == prev_col) {
        m.values_.back() += e.value;  // duplicate: accumulate
        continue;
      }
      FBMPK_CHECK_MSG(e.row > prev_row || e.col > prev_col,
                      "COO entries not sorted by column within row");
      m.col_idx_.push_back(e.col);
      m.values_.push_back(e.value);
      m.row_ptr_[static_cast<std::size_t>(e.row) + 1] += 1;
      prev_row = e.row;
      prev_col = e.col;
    }
    for (std::size_t i = 1; i < m.row_ptr_.size(); ++i)
      m.row_ptr_[i] += m.row_ptr_[i - 1];
    m.validate();
    return m;
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t nnz() const { return static_cast<index_t>(values_.size()); }

  std::span<const index_t> row_ptr() const { return row_ptr_; }
  std::span<const index_t> col_idx() const { return col_idx_; }
  std::span<const T> values() const { return values_; }
  std::span<T> values_mutable() { return values_; }

  /// Number of stored entries in row i.
  index_t row_nnz(index_t i) const {
    FBMPK_DCHECK(i >= 0 && i < rows_);
    return row_ptr_[static_cast<std::size_t>(i) + 1] -
           row_ptr_[static_cast<std::size_t>(i)];
  }

  /// Stored value at (i, j), or T{} when the position is not stored.
  T at(index_t i, index_t j) const {
    FBMPK_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
      if (col_idx_[k] == j) return values_[k];
    return T{};
  }

  /// Bytes of heap storage held by the three arrays (Table IV).
  std::size_t storage_bytes() const {
    return row_ptr_.size() * sizeof(index_t) +
           col_idx_.size() * sizeof(index_t) + values_.size() * sizeof(T);
  }

  bool empty() const { return rows_ == 0; }

  /// Full structural validation; throws fbmpk::Error with
  /// ErrorCode::kInvalidMatrix on any violation. Index arithmetic is
  /// overflow-safe: bounds are established before they are dereferenced.
  void validate() const {
    validate_rows(
        [this](index_t i, index_t k) {
          return k == row_ptr_[i] || col_idx_[k - 1] < col_idx_[k];
        },
        "columns not strictly ascending in row ");
  }

  friend bool operator==(const CsrMatrix& a, const CsrMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           a.row_ptr_ == b.row_ptr_ && a.col_idx_ == b.col_idx_ &&
           a.values_ == b.values_;
  }

 private:
  /// Shape checks plus, per entry k of row i whose column is in range,
  /// `ordered(i, k)` — the row-order invariant against the row's
  /// earlier entries, reported as `what` + row on violation.
  template <class Ordered>
  void validate_rows(Ordered&& ordered, const char* what) const {
    FBMPK_CHECK_CODE(rows_ >= 0 && cols_ >= 0, ErrorCode::kInvalidMatrix,
                     "negative dimensions " << rows_ << " x " << cols_);
    FBMPK_CHECK_CODE(
        values_.size() <=
            static_cast<std::size_t>(std::numeric_limits<index_t>::max()),
        ErrorCode::kResourceLimit,
        "nnz " << values_.size() << " overflows the 32-bit index type");
    FBMPK_CHECK_CODE(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1,
                     ErrorCode::kInvalidMatrix,
                     "row_ptr length " << row_ptr_.size() << " != rows+1");
    FBMPK_CHECK_CODE(row_ptr_.front() == 0, ErrorCode::kInvalidMatrix,
                     "row_ptr[0] = " << row_ptr_.front() << ", expected 0");
    FBMPK_CHECK_CODE(row_ptr_.back() == static_cast<index_t>(values_.size()),
                     ErrorCode::kInvalidMatrix,
                     "row_ptr[rows] = " << row_ptr_.back() << " != nnz "
                                        << values_.size());
    FBMPK_CHECK_CODE(col_idx_.size() == values_.size(),
                     ErrorCode::kInvalidMatrix,
                     "col_idx/values length mismatch");
    for (index_t i = 0; i < rows_; ++i) {
      FBMPK_CHECK_CODE(row_ptr_[i] >= 0 && row_ptr_[i] <= row_ptr_[i + 1],
                       ErrorCode::kInvalidMatrix,
                       "row_ptr not monotone at row " << i);
      for (index_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
        FBMPK_CHECK_CODE(col_idx_[k] >= 0 && col_idx_[k] < cols_,
                         ErrorCode::kInvalidMatrix,
                         "column out of range in row " << i);
        FBMPK_CHECK_CODE(ordered(i, k), ErrorCode::kInvalidMatrix,
                         what << i);
      }
    }
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  AlignedVector<index_t> row_ptr_{0};  // valid empty matrix: [0]
  AlignedVector<index_t> col_idx_;
  AlignedVector<T> values_;
};

}  // namespace fbmpk
