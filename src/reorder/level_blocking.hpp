// Level blocking: cache-aware aggregation of dependency levels into
// point-to-point-schedulable stages (the RACE idea, arXiv:2205.01598,
// applied to the BtB sweep pair).
//
// A naive level kernel pays one team barrier per dependency level —
// thousands of barriers per sweep on matrices with long dependency
// chains. Level blocking recovers a coloring's few-sync-points
// structure without recoloring the matrix:
//
//  - consecutive levels are aggregated into STAGES sized to a cache
//    budget (reorder/level_schedule.hpp, aggregate_levels), so the
//    iterate slices a stage touches stay resident across its levels;
//  - within a multi-level stage, rows are grouped by connected
//    component of the triangle subgraph induced by the stage's rows:
//    rows of different components share no edges, so components are
//    independent units a greedy LPT pass balances across threads (the
//    same makespan heuristic as reorder/nnz_partition.hpp). Every
//    intra-stage edge is therefore *intra-thread*, and each thread
//    stores its rows in (level, row) order so producers precede
//    consumers — the blocking invariant validate_level_sweep_schedule
//    enforces;
//  - cross-stage edges become point-to-point dependencies consumed by
//    the persistent-threads level engine (fbmpk_level_engine.hpp) and
//    its per-thread epoch-counter protocol. Because the
//    forward and backward sweeps own rows independently (their level
//    structures differ), cross-PAIR dependencies are covered by one
//    all-thread rendezvous at each pair boundary; all within-pair
//    synchronization is point-to-point.
//
// Within-pair dependency derivation (stage order per pair is
// F_0 .. F_{SF-1}, B_0 .. B_{SB-1}; backward stages execute in
// ascending backward-level order, i.e. bottom rows first):
//
//  - F_s of thread t reads xy[2j+1] of every L-neighbor j of its rows,
//    written by F_{fstage(j)} of fowner(j) this pair → wait on the
//    foreign (fowner(j), fstage(j)) with the largest stage per thread.
//    Its reads of even slots / tmp are pair-boundary values, covered by
//    the rendezvous.
//  - B_s of thread t, for each of its rows m: reads tmp[m] written by
//    F_{fstage(m)}; reads xy[2j] / xy[2j+1] of U-neighbors j, written
//    by B_{bstage(j)} / F_{fstage(j)}; and overwrites xy[2m], whose old
//    value is read by the forward stages of rows i with m ∈ L(i) —
//    column m of the lower triangle, scanned explicitly so unsymmetric
//    patterns are covered too (for structurally symmetric patterns the
//    set coincides with the U-neighbors of m). A backward wait on
//    thread u subsumes any forward wait on u (u walks all its F stages
//    before its first B stage), so per foreign thread one dep suffices:
//    the max B stage if any, else the max F stage (bwd_fdeps).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "reorder/level_schedule.hpp"
#include "sparse/split.hpp"

namespace fbmpk {

/// One point-to-point wait of the level engine: foreign `thread` must
/// have completed its `stage` (same pair; direction fixed by the array
/// the dep lives in).
struct LevelDep {
  index_t thread = 0;
  index_t stage = 0;
  friend bool operator==(const LevelDep&, const LevelDep&) = default;
};

/// Stage + partition structure of one sweep direction. All CSR-style
/// index arrays; POD vectors so plan_io can frame them directly.
struct LevelBlockDirection {
  index_t num_stages = 0;
  /// Stage s aggregates dependency levels
  /// [stage_level_ptr[s], stage_level_ptr[s+1]).
  std::vector<index_t> stage_level_ptr;
  /// Rows of (thread t, stage s):
  /// part_rows[part_ptr[slot(t,s)] .. part_ptr[slot(t,s)+1]), stored in
  /// (level, row) ascending order so intra-thread dependencies run
  /// producer-first.
  std::vector<index_t> part_ptr;
  std::vector<index_t> part_rows;
  /// nnz weight executed by each slot — the imbalance diagnostic.
  std::vector<index_t> load;

  std::size_t slot(index_t t, index_t s) const {
    return static_cast<std::size_t>(t) * num_stages + s;
  }

  /// f(row) over every row in stage-major slot order (stage 0 of every
  /// thread, then stage 1, ...): the one-thread walk of this direction,
  /// a valid sweep order in whatever numbering the schedule is stored.
  template <class F>
  void for_each_row(index_t num_threads, F&& f) const {
    for (index_t s = 0; s < num_stages; ++s)
      for (index_t t = 0; t < num_threads; ++t) {
        const std::size_t sl = slot(t, s);
        for (index_t q = part_ptr[sl]; q < part_ptr[sl + 1]; ++q)
          f(part_rows[q]);
      }
  }
};

/// The precomputed level-blocked schedule for a fixed thread count;
/// MpkPlan serializes it (plan format v7) and rebuilds it when the
/// runtime thread count differs from the stored one.
struct LevelSweepSchedule {
  index_t num_threads = 0;
  LevelBlockDirection fwd;
  LevelBlockDirection bwd;

  /// Waits of forward slot (t,s) on foreign forward stages.
  std::vector<index_t> fwd_dep_ptr;
  std::vector<LevelDep> fwd_deps;
  /// Waits of backward slot (t,s) on foreign backward stages.
  std::vector<index_t> bwd_dep_ptr;
  std::vector<LevelDep> bwd_deps;
  /// Waits of backward slot (t,s) on foreign *forward* stages (only for
  /// threads with no backward dep this slot — a backward dep subsumes).
  std::vector<index_t> bwd_fdep_ptr;
  std::vector<LevelDep> bwd_fdeps;

  bool empty() const { return num_threads == 0; }
};

struct LevelBlockingOptions {
  /// Per-stage working-set budget in bytes (iterate slices + triangle
  /// data touched by the stage's rows). Levels are merged until the
  /// budget fills.
  std::size_t stage_bytes = 512 * 1024;
  /// A merged range is accepted when its heaviest connected component
  /// weighs at most `balance_slack * total / num_threads`; rejected
  /// ranges are recursively bisected.
  double balance_slack = 1.5;
};

/// Build the level-blocked schedule for `num_threads` persistent
/// threads from the level schedules and the split triangle patterns of
/// the original order (plans then renumber rows by the forward slot
/// order, core/plan.hpp). Backward components prefer the thread that
/// owns most of their rows in the forward direction.
LevelSweepSchedule build_level_sweep_schedule(
    const LevelSchedulePair& levels, std::span<const index_t> lower_rp,
    std::span<const index_t> lower_ci, std::span<const index_t> upper_rp,
    std::span<const index_t> upper_ci, index_t num_threads,
    const LevelBlockingOptions& opts = {});

/// Convenience overload on a TriangularSplit.
template <class T>
LevelSweepSchedule build_level_sweep_schedule(
    const LevelSchedulePair& levels, const TriangularSplit<T>& s,
    index_t num_threads, const LevelBlockingOptions& opts = {}) {
  return build_level_sweep_schedule(levels, s.lower.row_ptr(),
                                    s.lower.col_idx(), s.upper.row_ptr(),
                                    s.upper.col_idx(), num_threads, opts);
}

/// Structural validation against the triangles the schedule claims to
/// block: shapes, every row in exactly one slot per direction, the
/// blocking invariant (no cross-thread edge inside a stage; intra-thread
/// edges producer-first), and point-to-point coverage of every
/// cross-stage edge. Returns false on any violation (plan
/// deserialization maps false to kCorruptPlan).
bool validate_level_sweep_schedule(const LevelSweepSchedule& s,
                                   std::span<const index_t> lower_rp,
                                   std::span<const index_t> lower_ci,
                                   std::span<const index_t> upper_rp,
                                   std::span<const index_t> upper_ci);

/// Convenience overload on a TriangularSplit.
template <class T>
bool validate_level_sweep_schedule(const LevelSweepSchedule& sched,
                                   const TriangularSplit<T>& s) {
  return validate_level_sweep_schedule(sched, s.lower.row_ptr(),
                                       s.lower.col_idx(), s.upper.row_ptr(),
                                       s.upper.col_idx());
}

}  // namespace fbmpk
