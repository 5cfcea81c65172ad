// Undirected adjacency graphs derived from sparse-matrix patterns.
//
// RCM, blocking and coloring all operate on the symmetrized structure of
// the matrix (an edge {i, j} exists when A(i,j) or A(j,i) is stored,
// i != j). This header provides that graph plus the block quotient graph
// used by ABMC and the sweep schedule.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "support/error.hpp"

namespace fbmpk {

/// CSR-style undirected adjacency list. No self loops; neighbor lists
/// are sorted and duplicate-free.
struct AdjacencyGraph {
  index_t n = 0;
  std::vector<index_t> ptr;  ///< size n+1
  std::vector<index_t> adj;  ///< concatenated neighbor lists

  index_t degree(index_t v) const { return ptr[v + 1] - ptr[v]; }

  void validate() const {
    FBMPK_CHECK(ptr.size() == static_cast<std::size_t>(n) + 1);
    FBMPK_CHECK(ptr.front() == 0);
    FBMPK_CHECK(ptr.back() == static_cast<index_t>(adj.size()));
    for (index_t v = 0; v < n; ++v)
      for (index_t k = ptr[v]; k < ptr[v + 1]; ++k) {
        FBMPK_CHECK(adj[k] >= 0 && adj[k] < n && adj[k] != v);
        if (k > ptr[v]) FBMPK_CHECK(adj[k - 1] < adj[k]);
      }
  }
};

/// Borrowed view of a square CSR sparsity pattern (values not needed).
struct CsrPattern {
  std::span<const index_t> row_ptr;  ///< size rows()+1
  std::span<const index_t> col_idx;

  index_t rows() const { return static_cast<index_t>(row_ptr.size()) - 1; }
};

template <class T>
CsrPattern pattern_of(const CsrMatrix<T>& a) {
  return {a.row_ptr(), a.col_idx()};
}

/// Build the symmetrized adjacency graph of a square pattern.
AdjacencyGraph adjacency_from_pattern(const CsrPattern& a);

/// Build the symmetrized adjacency graph of a square matrix's pattern.
template <class T>
AdjacencyGraph adjacency_from_matrix(const CsrMatrix<T>& a) {
  FBMPK_CHECK(a.rows() == a.cols());
  return adjacency_from_pattern(pattern_of(a));
}

/// Block quotient graph of the symmetrized `pattern`, read straight
/// from the CSR pattern without building the row-level graph: vertices
/// are blocks, and blocks P != Q are adjacent iff some stored entry
/// (i, j) has {block_of[i], block_of[j]} = {P, Q}. Equal to quotienting
/// adjacency_from_pattern(pattern); ABMC runs it on A. Scans rows
/// block-parallel; the graph is the same at any thread count.
/// `block_of[v]` must lie in [0, num_blocks) and the pattern must have
/// block_of.size() rows.
AdjacencyGraph block_quotient(const CsrPattern& pattern,
                              std::span<const index_t> block_of,
                              index_t num_blocks);

}  // namespace fbmpk
