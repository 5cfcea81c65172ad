#include "kernels/sweep_schedule.hpp"

#include <algorithm>

#include "reorder/graph.hpp"

namespace fbmpk {

namespace {

/// color_of[b] for the color-sorted block layout of an AbmcOrdering.
std::vector<index_t> colors_of_blocks(const AbmcOrdering& o) {
  std::vector<index_t> color_of(static_cast<std::size_t>(o.num_blocks));
  for (index_t c = 0; c < o.num_colors; ++c)
    for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b)
      color_of[b] = c;
  return color_of;
}

}  // namespace

SweepSchedule build_sweep_schedule(const AbmcOrdering& o,
                                   std::span<const index_t> lower_rp,
                                   std::span<const index_t> lower_ci,
                                   std::span<const index_t> upper_rp,
                                   std::span<const index_t> upper_ci,
                                   index_t num_threads) {
  FBMPK_CHECK(num_threads >= 1);
  FBMPK_CHECK_MSG(!o.block_ptr.empty() && o.num_colors >= 1,
                  "sweep schedule needs a non-empty ABMC ordering");

  const index_t T = num_threads;
  const index_t C = o.num_colors;

  // 1. nnz-balanced partition of every color's blocks (greedy LPT).
  const std::vector<index_t> weights =
      block_nnz_weights(o, lower_rp, upper_rp);
  const ColorPartition part =
      partition_colors(o, weights, T, PartitionStrategy::kNnzLpt);

  SweepSchedule s;
  s.num_threads = T;
  s.num_colors = C;
  s.num_blocks = o.num_blocks;
  s.part_ptr = part.part_ptr;
  s.part_blocks = part.part_blocks;
  s.load = part.load;

  // 2. Point-to-point dependencies from the block quotient graph. L and
  // U together hold every off-diagonal entry of the permuted matrix.
  const auto num_blocks = static_cast<index_t>(o.block_ptr.size()) - 1;
  FBMPK_CHECK(o.block_ptr.front() == 0);
  std::vector<index_t> block_of(static_cast<std::size_t>(o.block_ptr.back()));
  for (index_t b = 0; b < num_blocks; ++b) {
    FBMPK_CHECK(o.block_ptr[b] <= o.block_ptr[b + 1]);
    for (index_t r = o.block_ptr[b]; r < o.block_ptr[b + 1]; ++r)
      block_of[r] = b;
  }
  const CsrPattern triangles[] = {{lower_rp, lower_ci}, {upper_rp, upper_ci}};
  const AdjacencyGraph q = block_quotient(triangles, block_of, num_blocks);
  const std::vector<index_t> color_of = colors_of_blocks(o);

  s.fwd_dep_ptr.assign(static_cast<std::size_t>(T) * C + 1, 0);
  s.bwd_dep_ptr.assign(static_cast<std::size_t>(T) * C + 1, 0);
  s.all_dep_ptr.assign(static_cast<std::size_t>(T) + 1, 0);

  // Scratch keyed by foreign thread id: the latest forward / earliest
  // backward color owed per thread, and a stamp for the global set.
  constexpr index_t kNone = -1;
  std::vector<index_t> fwd_max(static_cast<std::size_t>(T));
  std::vector<index_t> bwd_min(static_cast<std::size_t>(T));
  std::vector<char> global_seen(static_cast<std::size_t>(T));

  for (index_t t = 0; t < T; ++t) {
    std::fill(global_seen.begin(), global_seen.end(), 0);
    for (index_t c = 0; c < C; ++c) {
      std::fill(fwd_max.begin(), fwd_max.end(), kNone);
      std::fill(bwd_min.begin(), bwd_min.end(), kNone);
      const std::size_t slot = s.slot(t, c);
      for (index_t pi = s.part_ptr[slot]; pi < s.part_ptr[slot + 1]; ++pi) {
        const index_t b = s.part_blocks[pi];
        for (index_t k = q.ptr[b]; k < q.ptr[b + 1]; ++k) {
          const index_t nb = q.adj[k];
          const index_t u = part.owner_of[nb];
          if (u != t) global_seen[u] = 1;
          if (u == t) continue;  // program order covers own stages
          const index_t nc = color_of[nb];
          if (nc < c) {
            if (fwd_max[u] == kNone || nc > fwd_max[u]) fwd_max[u] = nc;
          } else if (nc > c) {
            if (bwd_min[u] == kNone || nc < bwd_min[u]) bwd_min[u] = nc;
          }
          // nc == c with nb != b cannot carry an edge (coloring
          // invariant); if it did, the schedule would be invalid and
          // is_valid_schedule/abmc tests catch it upstream.
        }
      }
      for (index_t u = 0; u < T; ++u) {
        if (fwd_max[u] != kNone) s.fwd_deps.push_back({u, fwd_max[u]});
        if (bwd_min[u] != kNone) s.bwd_deps.push_back({u, bwd_min[u]});
      }
      s.fwd_dep_ptr[slot + 1] = static_cast<index_t>(s.fwd_deps.size());
      s.bwd_dep_ptr[slot + 1] = static_cast<index_t>(s.bwd_deps.size());
    }
    for (index_t u = 0; u < T; ++u)
      if (global_seen[u]) s.all_deps.push_back(u);
    s.all_dep_ptr[t + 1] = static_cast<index_t>(s.all_deps.size());
  }
  return s;
}

bool validate_sweep_schedule(const SweepSchedule& s, const AbmcOrdering& o) {
  const index_t T = s.num_threads;
  const index_t C = s.num_colors;
  if (T < 1 || C != o.num_colors || s.num_blocks != o.num_blocks)
    return false;
  const std::size_t slots = static_cast<std::size_t>(T) * C;
  if (s.part_ptr.size() != slots + 1 || s.fwd_dep_ptr.size() != slots + 1 ||
      s.bwd_dep_ptr.size() != slots + 1 ||
      s.all_dep_ptr.size() != static_cast<std::size_t>(T) + 1 ||
      s.load.size() != slots)
    return false;
  if (s.part_ptr.front() != 0 ||
      s.part_ptr.back() != static_cast<index_t>(s.part_blocks.size()) ||
      s.fwd_dep_ptr.front() != 0 ||
      s.fwd_dep_ptr.back() != static_cast<index_t>(s.fwd_deps.size()) ||
      s.bwd_dep_ptr.front() != 0 ||
      s.bwd_dep_ptr.back() != static_cast<index_t>(s.bwd_deps.size()) ||
      s.all_dep_ptr.front() != 0 ||
      s.all_dep_ptr.back() != static_cast<index_t>(s.all_deps.size()))
    return false;
  if (s.part_blocks.size() != static_cast<std::size_t>(s.num_blocks))
    return false;

  for (std::size_t i = 1; i < s.part_ptr.size(); ++i)
    if (s.part_ptr[i - 1] > s.part_ptr[i]) return false;
  for (std::size_t i = 1; i < s.fwd_dep_ptr.size(); ++i)
    if (s.fwd_dep_ptr[i - 1] > s.fwd_dep_ptr[i]) return false;
  for (std::size_t i = 1; i < s.bwd_dep_ptr.size(); ++i)
    if (s.bwd_dep_ptr[i - 1] > s.bwd_dep_ptr[i]) return false;
  for (std::size_t i = 1; i < s.all_dep_ptr.size(); ++i)
    if (s.all_dep_ptr[i - 1] > s.all_dep_ptr[i]) return false;

  // Every color's blocks appear exactly once, in the right color slot.
  std::vector<char> seen(static_cast<std::size_t>(s.num_blocks), 0);
  for (index_t t = 0; t < T; ++t)
    for (index_t c = 0; c < C; ++c) {
      const std::size_t slot = s.slot(t, c);
      for (index_t pi = s.part_ptr[slot]; pi < s.part_ptr[slot + 1]; ++pi) {
        const index_t b = s.part_blocks[pi];
        if (b < 0 || b >= s.num_blocks || seen[b]) return false;
        if (b < o.color_ptr[c] || b >= o.color_ptr[c + 1]) return false;
        seen[b] = 1;
      }
    }
  for (char x : seen)
    if (!x) return false;

  // Dependencies reference legal threads and colors on the correct
  // side of their own stage.
  for (index_t t = 0; t < T; ++t)
    for (index_t c = 0; c < C; ++c) {
      const std::size_t slot = s.slot(t, c);
      for (index_t k = s.fwd_dep_ptr[slot]; k < s.fwd_dep_ptr[slot + 1]; ++k) {
        const SweepDep& d = s.fwd_deps[k];
        if (d.thread < 0 || d.thread >= T || d.thread == t) return false;
        if (d.color < 0 || d.color >= c) return false;
      }
      for (index_t k = s.bwd_dep_ptr[slot]; k < s.bwd_dep_ptr[slot + 1]; ++k) {
        const SweepDep& d = s.bwd_deps[k];
        if (d.thread < 0 || d.thread >= T || d.thread == t) return false;
        if (d.color <= c || d.color >= C) return false;
      }
    }
  for (index_t t = 0; t < T; ++t)
    for (index_t k = s.all_dep_ptr[t]; k < s.all_dep_ptr[t + 1]; ++k) {
      const index_t u = s.all_deps[k];
      if (u < 0 || u >= T || u == t) return false;
    }
  return true;
}

}  // namespace fbmpk
