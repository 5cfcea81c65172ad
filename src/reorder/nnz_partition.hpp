// Nonzero-balanced partitioning of ABMC color blocks across threads.
//
// The barrier-scheduled parallel kernels hand each thread a contiguous
// chunk of *blocks* per color (`schedule(static)`), so one heavy block
// serializes its whole color. This module plans by *work* instead: each
// block is weighted by the nonzeros its rows touch in one forward +
// backward pass (L row range + U row range + diagonal), and blocks of
// one color are distributed with greedy LPT (longest processing time
// first) — the classic 4/3-approximation of makespan scheduling. The
// cost model's imbalance metric scores the resulting partition against
// the barrier kernel's static split (perf/cost_model.hpp,
// bench_scheduler_ablation).
#pragma once

#include <span>
#include <vector>

#include "reorder/abmc.hpp"

namespace fbmpk {

/// Per-block work weight: nnz(L rows) + nnz(U rows) + rows (diagonal).
/// `lower_rp` / `upper_rp` are the split triangles' row_ptr arrays in
/// the permuted index space (size n+1 each).
std::vector<index_t> block_nnz_weights(const AbmcOrdering& o,
                                       std::span<const index_t> lower_rp,
                                       std::span<const index_t> upper_rp);

/// How blocks of one color are assigned to threads.
enum class PartitionStrategy {
  kBlockStatic,  ///< contiguous block chunks (what schedule(static) does)
  kNnzLpt,       ///< greedy LPT over block nnz weights
};

/// Assignment of every color's blocks to `num_threads` threads.
struct ColorPartition {
  index_t num_threads = 0;
  index_t num_colors = 0;
  /// Blocks of (thread t, color c) are
  /// part_blocks[part_ptr[t*num_colors+c] .. part_ptr[t*num_colors+c+1]).
  std::vector<index_t> part_ptr;
  std::vector<index_t> part_blocks;
  /// owner_of[b] = thread that executes block b.
  std::vector<index_t> owner_of;
  /// Work per (thread, color): load[t*num_colors+c] in nnz weight.
  std::vector<index_t> load;

  std::size_t slot(index_t t, index_t c) const {
    return static_cast<std::size_t>(t) * num_colors + c;
  }
};

/// Partition each color's blocks across threads by `strategy` using the
/// given per-block weights (from block_nnz_weights). num_threads >= 1.
ColorPartition partition_colors(const AbmcOrdering& o,
                                std::span<const index_t> weights,
                                index_t num_threads,
                                PartitionStrategy strategy);

}  // namespace fbmpk
