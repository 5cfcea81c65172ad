// Level scheduling for the FBMPK sweeps — the alternative
// parallelization strategy the paper's discussion suggests (§VII,
// "Other parallelization strategies", citing the SYMGS literature).
//
// Instead of recoloring + permuting the matrix (ABMC), level scheduling
// derives a schedule from the dependency DAG of the original order:
// for the forward sweep over L, row i's level is 1 + max level over its
// L-neighbors (j < i with L(i,j) != 0); rows of equal level are
// independent and run in parallel. The backward sweep over U mirrors
// this from the bottom. Exactness is preserved for the same reason as
// in ABMC. reorder/level_blocking.hpp aggregates the levels into
// stages, and plans then renumber rows by thread ownership
// (core/plan.hpp) without changing any row's arithmetic.
//
// Trade-off vs ABMC: no recoloring (so no preprocessing beyond linear
// passes, and each row keeps its original accumulation order) but
// typically far more levels than colors — hence more stages to
// synchronize — and uneven level widths.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/split.hpp"

namespace fbmpk {

/// Rows grouped by dependency level. Rows within one level are pairwise
/// independent under the sweep's triangle; level l must complete before
/// level l+1 starts.
struct LevelSchedule {
  std::vector<index_t> level_ptr;  ///< size num_levels + 1
  std::vector<index_t> rows;       ///< rows grouped by level, ascending
  index_t num_levels = 0;

  index_t level_size(index_t l) const {
    return level_ptr[l + 1] - level_ptr[l];
  }
};

/// Forward+backward schedules for one split matrix.
struct LevelSchedulePair {
  LevelSchedule forward;   ///< levels of L (top-down sweep)
  LevelSchedule backward;  ///< levels of U (bottom-up sweep)

  template <class T>
  static LevelSchedulePair of(const TriangularSplit<T>& s);
};

/// Levels for a top-down sweep over a strictly lower triangular matrix.
template <class T>
LevelSchedule forward_levels(const CsrMatrix<T>& lower);

/// Levels for a bottom-up sweep over a strictly upper triangular matrix.
template <class T>
LevelSchedule backward_levels(const CsrMatrix<T>& upper);

/// Validate a schedule against its triangle: every dependency must point
/// to a strictly earlier level and all rows appear exactly once.
/// `upper_triangle` selects which dependency direction to check.
template <class T>
bool is_valid_level_schedule(const CsrMatrix<T>& tri, const LevelSchedule& s,
                             bool upper_triangle);

/// Recursive level-set aggregation (the RACE idea, arXiv:2205.01598):
/// merge consecutive dependency levels into stages so one stage's
/// working set fits a cache budget and barriers amortize over many
/// levels. `level_weight[l]` is the work of level l in abstract units,
/// `stage_budget` the per-stage cap in the same units. A greedy pass
/// packs levels up to the budget; each candidate range is then handed
/// to `acceptable(l0, l1)` — the caller's parallelizability predicate
/// (level_blocking checks connected-component balance) — and ranges it
/// rejects are recursively bisected at their weight midpoint, down to
/// single levels, which are always acceptable (rows of one level are
/// pairwise independent). Returns stage_level_ptr: stage s aggregates
/// levels [ptr[s], ptr[s+1]).
template <class Acceptable>
std::vector<index_t> aggregate_levels(std::span<const std::size_t> level_weight,
                                      std::size_t stage_budget,
                                      Acceptable&& acceptable) {
  const auto num_levels = static_cast<index_t>(level_weight.size());
  std::vector<index_t> ptr;
  ptr.push_back(0);

  const auto refine = [&](auto&& self, index_t l0, index_t l1) -> void {
    if (l1 - l0 <= 1 || acceptable(l0, l1)) {
      ptr.push_back(l1);
      return;
    }
    // Bisect at the weight midpoint (both halves non-empty).
    std::size_t total = 0;
    for (index_t l = l0; l < l1; ++l) total += level_weight[l];
    std::size_t acc = 0;
    index_t mid = l0 + 1;
    for (index_t l = l0; l + 1 < l1; ++l) {
      acc += level_weight[l];
      mid = l + 1;
      if (2 * acc >= total) break;
    }
    self(self, l0, mid);
    self(self, mid, l1);
  };

  index_t begin = 0;
  std::size_t acc = 0;
  for (index_t l = 0; l < num_levels; ++l) {
    if (l > begin && acc + level_weight[l] > stage_budget) {
      refine(refine, begin, l);
      begin = l;
      acc = 0;
    }
    acc += level_weight[l];
  }
  if (begin < num_levels) refine(refine, begin, num_levels);
  return ptr;
}

// ---------------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------------

namespace detail {

inline LevelSchedule bucket_by_level(const std::vector<index_t>& level_of) {
  LevelSchedule s;
  const auto n = static_cast<index_t>(level_of.size());
  index_t max_level = -1;
  for (index_t l : level_of) max_level = std::max(max_level, l);
  s.num_levels = max_level + 1;
  s.level_ptr.assign(static_cast<std::size_t>(s.num_levels) + 1, 0);
  for (index_t i = 0; i < n; ++i) s.level_ptr[level_of[i] + 1] += 1;
  for (index_t l = 0; l < s.num_levels; ++l)
    s.level_ptr[l + 1] += s.level_ptr[l];
  s.rows.resize(static_cast<std::size_t>(n));
  std::vector<index_t> cursor(s.level_ptr.begin(), s.level_ptr.end() - 1);
  for (index_t i = 0; i < n; ++i) s.rows[cursor[level_of[i]]++] = i;
  return s;  // rows ascend within each level by construction
}

}  // namespace detail

template <class T>
LevelSchedule forward_levels(const CsrMatrix<T>& lower) {
  FBMPK_CHECK(lower.rows() == lower.cols());
  const index_t n = lower.rows();
  const auto rp = lower.row_ptr();
  const auto ci = lower.col_idx();
  std::vector<index_t> level_of(static_cast<std::size_t>(n), 0);
  for (index_t i = 0; i < n; ++i) {
    index_t lvl = 0;
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      FBMPK_DCHECK(ci[k] < i);  // strict lower triangle
      lvl = std::max(lvl, level_of[ci[k]] + 1);
    }
    level_of[i] = lvl;
  }
  return detail::bucket_by_level(level_of);
}

template <class T>
LevelSchedule backward_levels(const CsrMatrix<T>& upper) {
  FBMPK_CHECK(upper.rows() == upper.cols());
  const index_t n = upper.rows();
  const auto rp = upper.row_ptr();
  const auto ci = upper.col_idx();
  std::vector<index_t> level_of(static_cast<std::size_t>(n), 0);
  for (index_t i = n; i-- > 0;) {
    index_t lvl = 0;
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      FBMPK_DCHECK(ci[k] > i);  // strict upper triangle
      lvl = std::max(lvl, level_of[ci[k]] + 1);
    }
    level_of[i] = lvl;
  }
  return detail::bucket_by_level(level_of);
}

template <class T>
LevelSchedulePair LevelSchedulePair::of(const TriangularSplit<T>& s) {
  return {forward_levels(s.lower), backward_levels(s.upper)};
}

template <class T>
bool is_valid_level_schedule(const CsrMatrix<T>& tri, const LevelSchedule& s,
                             bool upper_triangle) {
  const index_t n = tri.rows();
  if (s.rows.size() != static_cast<std::size_t>(n)) return false;
  if (s.level_ptr.empty() || s.level_ptr.back() != n) return false;
  std::vector<index_t> level_of(static_cast<std::size_t>(n), -1);
  for (index_t l = 0; l < s.num_levels; ++l)
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      const index_t row = s.rows[k];
      if (row < 0 || row >= n || level_of[row] != -1) return false;
      level_of[row] = l;
    }
  const auto rp = tri.row_ptr();
  const auto ci = tri.col_idx();
  for (index_t i = 0; i < n; ++i)
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      const index_t j = ci[k];
      if (upper_triangle ? j <= i : j >= i) return false;
      if (level_of[j] >= level_of[i]) return false;  // dep not earlier
    }
  return true;
}

}  // namespace fbmpk
