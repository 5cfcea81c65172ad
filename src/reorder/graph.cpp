#include "reorder/graph.hpp"

#include <algorithm>

#include "support/threading.hpp"

namespace fbmpk {

namespace {

/// Sort and dedupe each list, then concatenate them into CSR form.
AdjacencyGraph from_neighbor_lists(std::vector<std::vector<index_t>>& nbrs) {
  const auto n = static_cast<index_t>(nbrs.size());
  AdjacencyGraph g;
  g.n = n;
  g.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  std::size_t total = 0;
  for (auto& list : nbrs) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    total += list.size();
  }
  g.adj.reserve(total);
  for (index_t v = 0; v < n; ++v) {
    g.adj.insert(g.adj.end(), nbrs[v].begin(), nbrs[v].end());
    g.ptr[v + 1] = static_cast<index_t>(g.adj.size());
  }
  return g;
}

}  // namespace

AdjacencyGraph adjacency_from_pattern(const CsrPattern& a) {
  const index_t n = a.rows();
  // Each stored off-diagonal entry contributes to both endpoints; an
  // edge stored in both directions lands twice and is deduped per row.
  std::vector<std::vector<index_t>> nbrs(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    for (index_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const index_t j = a.col_idx[k];
      if (j == i) continue;
      nbrs[i].push_back(j);
      nbrs[j].push_back(i);
    }
  return from_neighbor_lists(nbrs);
}

AdjacencyGraph block_quotient(const CsrPattern& pattern,
                              std::span<const index_t> block_of,
                              index_t num_blocks) {
  const auto n = static_cast<index_t>(block_of.size());
  FBMPK_CHECK(pattern.rows() == n);

  // Rows grouped by block (counting sort), so one task scans one block.
  std::vector<index_t> rows_ptr(static_cast<std::size_t>(num_blocks) + 1, 0);
  for (index_t v = 0; v < n; ++v) {
    FBMPK_CHECK(block_of[v] >= 0 && block_of[v] < num_blocks);
    ++rows_ptr[block_of[v] + 1];
  }
  for (index_t b = 0; b < num_blocks; ++b) rows_ptr[b + 1] += rows_ptr[b];
  std::vector<index_t> rows(static_cast<std::size_t>(n));
  {
    std::vector<index_t> next(rows_ptr.begin(), rows_ptr.end() - 1);
    for (index_t v = 0; v < n; ++v) rows[next[block_of[v]]++] = v;
  }

  // Forward edges, block-parallel: reached[b] lists each foreign block a
  // stored entry of one of b's rows points into, once — a per-thread
  // stamp remembers which source block last recorded a target.
  std::vector<std::vector<index_t>> reached(
      static_cast<std::size_t>(num_blocks));
  std::vector<index_t> stamps(static_cast<std::size_t>(num_blocks) *
                                  static_cast<std::size_t>(max_threads()),
                              -1);
  parallel_region([&](int t, int team) {
    index_t* stamp = stamps.data() + static_cast<std::size_t>(t) *
                                         static_cast<std::size_t>(num_blocks);
    const ThreadRange r = static_chunk(num_blocks, t, team);
    for (auto b = static_cast<index_t>(r.begin); b < r.end; ++b)
      for (index_t s = rows_ptr[b]; s < rows_ptr[b + 1]; ++s)
        for (index_t k = pattern.row_ptr[rows[s]];
             k < pattern.row_ptr[rows[s] + 1]; ++k) {
          const index_t nb = block_of[pattern.col_idx[k]];
          if (nb != b && stamp[nb] != b) {
            stamp[nb] = b;
            reached[b].push_back(nb);
          }
        }
  });

  // Every forward edge is an undirected one: record it at both ends. An
  // unsymmetric entry (i, j) without (j, i) still couples both blocks.
  std::vector<std::vector<index_t>> nbrs(static_cast<std::size_t>(num_blocks));
  for (index_t b = 0; b < num_blocks; ++b)
    for (const index_t nb : reached[b]) {
      nbrs[b].push_back(nb);
      nbrs[nb].push_back(b);
    }
  return from_neighbor_lists(nbrs);
}

}  // namespace fbmpk
