#include "reorder/abmc.hpp"

#include <algorithm>
#include <numeric>

namespace fbmpk {

AbmcOrdering abmc_order(const CsrPattern& pattern, const AbmcOptions& opts) {
  const index_t n = pattern.rows();
  FBMPK_CHECK(n > 0);
  // Only BFS blocking walks the row graph; contiguous blocking ignores it.
  const AdjacencyGraph g = opts.blocking == BlockingStrategy::kBfs
                               ? adjacency_from_pattern(pattern)
                               : AdjacencyGraph{};
  const Blocking blocking =
      build_blocking(g, n, opts.num_blocks, opts.blocking);
  const AdjacencyGraph q =
      block_quotient(pattern, blocking.block_of, blocking.num_blocks);
  const Coloring coloring = greedy_color(q, opts.coloring);

  // Stable-sort block ids by color; ties keep block order, which keeps
  // the underlying row order (and thus locality) intact within a color.
  std::vector<index_t> block_order(
      static_cast<std::size_t>(blocking.num_blocks));
  std::iota(block_order.begin(), block_order.end(), 0);
  std::stable_sort(block_order.begin(), block_order.end(),
                   [&](index_t a, index_t b) {
                     return coloring.color_of[a] < coloring.color_of[b];
                   });

  AbmcOrdering out;
  out.num_blocks = blocking.num_blocks;
  out.num_colors = coloring.num_colors;
  out.block_ptr.reserve(static_cast<std::size_t>(out.num_blocks) + 1);
  out.color_ptr.assign(static_cast<std::size_t>(out.num_colors) + 1, 0);

  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  out.block_ptr.push_back(0);
  index_t prev_color = 0;
  for (index_t pos = 0; pos < out.num_blocks; ++pos) {
    const index_t blk = block_order[pos];
    const index_t color = coloring.color_of[blk];
    FBMPK_CHECK(color >= prev_color);  // sorted by color
    while (prev_color < color) out.color_ptr[++prev_color] = pos;
    for (index_t k = blocking.block_ptr[blk]; k < blocking.block_ptr[blk + 1];
         ++k)
      order.push_back(blocking.row_order[k]);
    out.block_ptr.push_back(static_cast<index_t>(order.size()));
  }
  while (prev_color < out.num_colors)
    out.color_ptr[++prev_color] = out.num_blocks;

  out.perm = Permutation(std::move(order));
  return out;
}

}  // namespace fbmpk
