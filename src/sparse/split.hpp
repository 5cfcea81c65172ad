// Triangular split A = L + D + U (paper §III-A).
//
// L holds the strictly-lower triangle, U the strictly-upper triangle
// (both CSR), and the diagonal D is stored as a dense vector to cut
// storage and kernel overhead. Positions without a stored diagonal entry
// get an explicit zero in d — the FBMPK kernels then never branch on
// diagonal presence.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"
#include "support/aligned_buffer.hpp"
#include "support/threading.hpp"

namespace fbmpk {

/// Result of splitting a square matrix into strict triangles + diagonal.
template <class T>
struct TriangularSplit {
  CsrMatrix<T> lower;     ///< strictly lower triangle L
  CsrMatrix<T> upper;     ///< strictly upper triangle U
  AlignedVector<T> diag;  ///< dense diagonal d (zeros where unstored)

  /// Bytes used by the L + U + d representation (Table IV row 2).
  std::size_t storage_bytes() const {
    return lower.storage_bytes() + upper.storage_bytes() +
           diag.size() * sizeof(T);
  }
};

namespace detail {

/// Row-parallel (L, U, d) of P A P^T, where `order` is the new -> old
/// row map and `inv` its inverse; both empty means the identity. Row i
/// of the output is source row order[i] with columns renamed by inv and
/// re-sorted, so every output row depends on its source row alone and
/// the bytes are the same at any thread count.
template <class T>
TriangularSplit<T> split_rows(const CsrMatrix<T>& a,
                              std::span<const index_t> order,
                              std::span<const index_t> inv) {
  FBMPK_CHECK_MSG(a.rows() == a.cols(), "triangular split needs square A");
  const index_t n = a.rows();
  const bool permuted = !order.empty();
  FBMPK_CHECK(!permuted || (order.size() == static_cast<std::size_t>(n) &&
                            inv.size() == order.size()));
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  const auto old_of = [&](index_t i) { return permuted ? order[i] : i; };
  const auto new_of = [&](index_t j) { return permuted ? inv[j] : j; };

  // Every element below is written by a parallel pass, which also
  // takes the first touch of its pages.
  AlignedVector<index_t> l_ptr, u_ptr;
  AlignedVector<T> diag;
  {
    const NoZeroFillScope no_zero_fill;
    l_ptr = AlignedVector<index_t>(static_cast<std::size_t>(n) + 1);
    u_ptr = AlignedVector<index_t>(static_cast<std::size_t>(n) + 1);
    diag = AlignedVector<T>(static_cast<std::size_t>(n));
  }

  // Pass 1: count strict-lower/strict-upper entries per row.
  l_ptr[0] = 0;
  u_ptr[0] = 0;
  parallel_for(n, [&](index_t i) {
    const index_t src = old_of(i);
    index_t nl = 0, nu = 0;
    for (index_t k = rp[src]; k < rp[src + 1]; ++k) {
      const index_t j = new_of(ci[k]);
      nl += j < i;
      nu += j > i;
    }
    l_ptr[i + 1] = nl;
    u_ptr[i + 1] = nu;
  });
  for (index_t i = 0; i < n; ++i) {
    l_ptr[i + 1] += l_ptr[i];
    u_ptr[i + 1] += u_ptr[i];
  }

  AlignedVector<index_t> l_col, u_col;
  AlignedVector<T> l_val, u_val;
  {
    const NoZeroFillScope no_zero_fill;
    l_col = AlignedVector<index_t>(static_cast<std::size_t>(l_ptr[n]));
    l_val = AlignedVector<T>(static_cast<std::size_t>(l_ptr[n]));
    u_col = AlignedVector<index_t>(static_cast<std::size_t>(u_ptr[n]));
    u_val = AlignedVector<T>(static_cast<std::size_t>(u_ptr[n]));
  }

  // Pass 2: fill. A permuted row is sorted on (new column << 32 | source
  // offset); columns are unique, so this is the order of a sort by new
  // column alone. Unpermuted rows are already sorted. Each thread's key
  // scratch is sized to the longest row up front, so nothing allocates
  // (and nothing can throw) inside the region.
  std::size_t longest = 0;
  for (index_t i = 0; i < n; ++i)
    longest = std::max(longest, static_cast<std::size_t>(rp[i + 1] - rp[i]));
  std::vector<std::uint64_t> scratch(
      longest * static_cast<std::size_t>(max_threads()));
  parallel_region([&](int t, int team) {
    std::uint64_t* keys =
        scratch.data() + static_cast<std::size_t>(t) * longest;
    const ThreadRange r = static_chunk(n, t, team);
    for (auto i = static_cast<index_t>(r.begin); i < r.end; ++i) {
      const index_t src = old_of(i);
      const index_t len = rp[src + 1] - rp[src];
      for (index_t e = 0; e < len; ++e)
        keys[e] = (static_cast<std::uint64_t>(new_of(ci[rp[src] + e])) << 32) |
                  static_cast<std::uint32_t>(e);
      if (permuted) std::sort(keys, keys + len);
      index_t lk = l_ptr[i];
      index_t uk = u_ptr[i];
      diag[i] = T{};
      for (index_t e = 0; e < len; ++e) {
        const std::uint64_t key = keys[e];
        const auto j = static_cast<index_t>(key >> 32);
        const T v = va[rp[src] + static_cast<index_t>(key & 0xffffffffu)];
        if (j < i) {
          l_col[lk] = j;
          l_val[lk] = v;
          ++lk;
        } else if (j > i) {
          u_col[uk] = j;
          u_val[uk] = v;
          ++uk;
        } else {
          diag[i] = v;
        }
      }
    }
  });

  TriangularSplit<T> out;
  out.lower = CsrMatrix<T>(n, n, std::move(l_ptr), std::move(l_col),
                           std::move(l_val));
  out.upper = CsrMatrix<T>(n, n, std::move(u_ptr), std::move(u_col),
                           std::move(u_val));
  out.diag = std::move(diag);
  return out;
}

}  // namespace detail

/// Split a square CSR matrix into (L, U, d).
template <class T>
TriangularSplit<T> split_triangular(const CsrMatrix<T>& a) {
  return detail::split_rows(a, {}, {});
}

/// Split the symmetric permutation P A P^T into (L, U, d) in one pass,
/// without materializing P A P^T. `order` is the permutation's new -> old
/// row map (Permutation::order()). Byte-identical to
/// split_triangular(permute_symmetric(a, Permutation(order))).
template <class T>
TriangularSplit<T> split_triangular_permuted(const CsrMatrix<T>& a,
                                             std::span<const index_t> order) {
  FBMPK_CHECK(order.size() == static_cast<std::size_t>(a.rows()));
  std::vector<index_t> inv(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    FBMPK_CHECK(order[i] >= 0 && order[i] < a.rows());
    inv[order[i]] = static_cast<index_t>(i);
  }
  return detail::split_rows(a, order, inv);
}

/// Renumber a split without re-sorting its rows: row i of the result is
/// row order[i] of `s`, its columns renamed and its entries kept in
/// their stored order, so every row dot accumulates exactly as before.
/// `base_of` maps result rows to the numbering the triangles are
/// strict in — what the result's CSR validation checks (the
/// CsrMatrix Triangle constructor). One triangle is converted at a
/// time, so at most one extra triangle is ever alive.
template <class T>
TriangularSplit<T> renumber_split(TriangularSplit<T> s,
                                  std::span<const index_t> order,
                                  std::span<const index_t> base_of) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(order.size() == static_cast<std::size_t>(n) &&
              base_of.size() == order.size());
  std::vector<index_t> inv(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    FBMPK_CHECK(order[i] >= 0 && order[i] < n);
    inv[order[i]] = static_cast<index_t>(i);
  }
  const auto rename = [&](const CsrMatrix<T>& m, Triangle tri) {
    const auto rp = m.row_ptr();
    const auto ci = m.col_idx();
    const auto va = m.values();
    AlignedVector<index_t> ptr(static_cast<std::size_t>(n) + 1);
    ptr[0] = 0;
    for (index_t i = 0; i < n; ++i)
      ptr[i + 1] = ptr[i] + (rp[order[i] + 1] - rp[order[i]]);
    AlignedVector<index_t> col;
    AlignedVector<T> val;
    {
      const NoZeroFillScope no_zero_fill;
      col = AlignedVector<index_t>(ci.size());
      val = AlignedVector<T>(va.size());
    }
    parallel_for(n, [&](index_t i) {
      index_t out = ptr[i];
      for (index_t k = rp[order[i]]; k < rp[order[i] + 1]; ++k, ++out) {
        col[out] = inv[ci[k]];
        val[out] = va[k];
      }
    });
    return CsrMatrix<T>(tri, base_of, n, std::move(ptr), std::move(col),
                        std::move(val));
  };
  s.lower = rename(s.lower, Triangle::kLower);
  s.upper = rename(s.upper, Triangle::kUpper);
  AlignedVector<T> diag(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) diag[i] = s.diag[order[i]];
  s.diag = std::move(diag);
  return s;
}

/// Reassemble A from a split — inverse of split_triangular up to dropped
/// explicit diagonal zeros (test utility).
template <class T>
CsrMatrix<T> merge_triangular(const TriangularSplit<T>& s) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  CooMatrix<T> coo(n, n);
  coo.reserve(static_cast<std::size_t>(s.lower.nnz()) + s.upper.nnz() + n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t k = s.lower.row_ptr()[i]; k < s.lower.row_ptr()[i + 1]; ++k)
      coo.add(i, s.lower.col_idx()[k], s.lower.values()[k]);
    if (s.diag[i] != T{}) coo.add(i, i, s.diag[i]);
    for (index_t k = s.upper.row_ptr()[i]; k < s.upper.row_ptr()[i + 1]; ++k)
      coo.add(i, s.upper.col_idx()[k], s.upper.values()[k]);
  }
  return CsrMatrix<T>::from_sorted_coo(coo);
}

}  // namespace fbmpk
