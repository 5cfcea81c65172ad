#include "reorder/level_blocking.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "support/error.hpp"

namespace fbmpk {
namespace {

// Approximate bytes of triangle + iterate data per weight unit (one
// weight unit = one nnz or one row): 8 B value + ~4 B index.
constexpr std::size_t kBytesPerWeightUnit = 12;

/// Union-find over a row subset, re-initialized per stage candidate via
/// an explicit touch pass. `weight` accumulates component weights at
/// the roots.
struct ComponentFinder {
  std::vector<index_t> parent;
  std::vector<index_t> weight;

  void init(index_t n) {
    parent.assign(static_cast<std::size_t>(n), -1);
    weight.assign(static_cast<std::size_t>(n), 0);
  }
  void touch(index_t i, index_t w) {
    parent[i] = i;
    weight[i] = w;
  }
  index_t find(index_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  }
  void unite(index_t a, index_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (weight[a] < weight[b]) std::swap(a, b);
    parent[b] = a;
    weight[a] += weight[b];
  }
};

/// Per-row placement of one direction, recomputable from the
/// serialized arrays (used for dep derivation and validation).
struct Placement {
  std::vector<index_t> owner;  ///< thread owning the row (-1: unplaced)
  std::vector<index_t> stage;  ///< stage executing the row
  std::vector<index_t> pos;    ///< position within the owner's slot
  bool duplicate = false;      ///< a row appeared in two slots
};

Placement placement_of(const LevelBlockDirection& d, index_t num_threads,
                       index_t n) {
  Placement p;
  p.owner.assign(static_cast<std::size_t>(n), -1);
  p.stage.assign(static_cast<std::size_t>(n), -1);
  p.pos.assign(static_cast<std::size_t>(n), -1);
  for (index_t t = 0; t < num_threads; ++t)
    for (index_t s = 0; s < d.num_stages; ++s) {
      const std::size_t slot = d.slot(t, s);
      for (index_t q = d.part_ptr[slot]; q < d.part_ptr[slot + 1]; ++q) {
        const index_t i = d.part_rows[q];
        if (p.owner[i] != -1) p.duplicate = true;
        p.owner[i] = t;
        p.stage[i] = s;
        p.pos[i] = q - d.part_ptr[slot];
      }
    }
  return p;
}

/// Dependency levels of one direction's triangle, computed in the
/// direction's stage-major walk — a topological order of the triangle
/// once edges_respect_stages holds, so this works in any numbering
/// (plans store their triangles renumbered by thread ownership).
std::vector<index_t> levels_in_walk_order(const LevelBlockDirection& d,
                                          index_t num_threads,
                                          std::span<const index_t> rp,
                                          std::span<const index_t> ci,
                                          index_t n) {
  std::vector<index_t> level_of(static_cast<std::size_t>(n), 0);
  d.for_each_row(num_threads, [&](index_t i) {
    index_t lvl = 0;
    for (index_t q = rp[i]; q < rp[i + 1]; ++q)
      lvl = std::max(lvl, level_of[ci[q]] + 1);
    level_of[i] = lvl;
  });
  return level_of;
}

/// A component goes to its preferred thread while that thread's stage
/// load stays within this factor of max(mean load, heaviest component).
constexpr double kAffinitySlack = 1.05;

/// Build one direction: aggregate levels into stages, partition each
/// stage's connected components across threads by greedy LPT. With a
/// non-empty `affinity` (preferred thread per row), a component first
/// goes to the thread its rows prefer by weight if that keeps the
/// stage within kAffinitySlack of balanced.
LevelBlockDirection build_direction(const LevelSchedule& ls,
                                    std::span<const index_t> tri_rp,
                                    std::span<const index_t> tri_ci,
                                    std::span<const index_t> row_weight,
                                    index_t n, index_t num_threads,
                                    const LevelBlockingOptions& opts,
                                    std::span<const index_t> affinity = {}) {
  LevelBlockDirection d;

  std::vector<index_t> level_of(static_cast<std::size_t>(n), 0);
  for (index_t l = 0; l < ls.num_levels; ++l)
    for (index_t q = ls.level_ptr[l]; q < ls.level_ptr[l + 1]; ++q)
      level_of[ls.rows[q]] = l;

  std::vector<std::size_t> level_weight(
      static_cast<std::size_t>(ls.num_levels), 0);
  for (index_t i = 0; i < n; ++i)
    level_weight[level_of[i]] += static_cast<std::size_t>(row_weight[i]);

  ComponentFinder cf;
  cf.init(n);

  // Union the triangle edges interior to the level range [l0, l1);
  // neighbors below the range stay cross-stage (point-to-point deps).
  const auto unite_range = [&](index_t l0, index_t l1) {
    for (index_t q = ls.level_ptr[l0]; q < ls.level_ptr[l1]; ++q)
      cf.touch(ls.rows[q], row_weight[ls.rows[q]]);
    for (index_t q = ls.level_ptr[l0]; q < ls.level_ptr[l1]; ++q) {
      const index_t i = ls.rows[q];
      for (index_t e = tri_rp[i]; e < tri_rp[i + 1]; ++e) {
        const index_t j = tri_ci[e];
        if (level_of[j] >= l0) cf.unite(i, j);
      }
    }
  };

  const auto acceptable = [&](index_t l0, index_t l1) -> bool {
    unite_range(l0, l1);
    std::size_t total = 0;
    std::size_t max_comp = 0;
    for (index_t q = ls.level_ptr[l0]; q < ls.level_ptr[l1]; ++q) {
      const index_t i = ls.rows[q];
      total += static_cast<std::size_t>(row_weight[i]);
      if (cf.find(i) == i)
        max_comp =
            std::max(max_comp, static_cast<std::size_t>(cf.weight[i]));
    }
    const double cap = opts.balance_slack * static_cast<double>(total) /
                       static_cast<double>(num_threads);
    return static_cast<double>(max_comp) <= cap;
  };

  const std::size_t budget =
      std::max<std::size_t>(1, opts.stage_bytes / kBytesPerWeightUnit);
  d.stage_level_ptr = aggregate_levels(level_weight, budget, acceptable);
  d.num_stages = static_cast<index_t>(d.stage_level_ptr.size()) - 1;

  const index_t S = d.num_stages;
  const std::size_t num_slots = static_cast<std::size_t>(num_threads) * S;
  d.load.assign(num_slots, 0);

  std::vector<std::vector<index_t>> slot_rows(num_slots);
  std::vector<index_t> comp_id(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<index_t>> comp_rows;

  for (index_t s = 0; s < S; ++s) {
    const index_t l0 = d.stage_level_ptr[s];
    const index_t l1 = d.stage_level_ptr[s + 1];
    const bool single_level = (l1 - l0) == 1;
    if (!single_level) unite_range(l0, l1);

    // Walk the stage's rows in (level, row) order (how ls.rows stores
    // them); each component's row list inherits that order, which is
    // the producer-first invariant.
    comp_rows.clear();
    for (index_t q = ls.level_ptr[l0]; q < ls.level_ptr[l1]; ++q) {
      const index_t i = ls.rows[q];
      const index_t root = single_level ? i : cf.find(i);
      if (comp_id[root] < 0) {
        comp_id[root] = static_cast<index_t>(comp_rows.size());
        comp_rows.emplace_back();
      }
      comp_rows[comp_id[root]].push_back(i);
    }
    for (index_t q = ls.level_ptr[l0]; q < ls.level_ptr[l1]; ++q) {
      const index_t i = ls.rows[q];
      comp_id[single_level ? i : cf.find(i)] = -1;  // reset scratch
    }

    // Greedy LPT: heaviest component to its preferred thread when that
    // fits, else to the least-loaded thread; deterministic tie-breaks
    // (first row, then thread id).
    std::vector<index_t> order(comp_rows.size());
    std::vector<index_t> comp_weight(comp_rows.size(), 0);
    for (std::size_t c = 0; c < comp_rows.size(); ++c) {
      for (index_t i : comp_rows[c]) comp_weight[c] += row_weight[i];
      order[c] = static_cast<index_t>(c);
    }
    std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      if (comp_weight[a] != comp_weight[b])
        return comp_weight[a] > comp_weight[b];
      return comp_rows[a].front() < comp_rows[b].front();
    });
    double cap = 0.0;
    if (!affinity.empty() && !order.empty()) {
      std::size_t total = 0;
      for (index_t w : comp_weight) total += static_cast<std::size_t>(w);
      cap = kAffinitySlack *
            std::max(static_cast<double>(total) / num_threads,
                     static_cast<double>(comp_weight[order.front()]));
    }
    std::vector<index_t> pref_weight(static_cast<std::size_t>(num_threads));
    for (index_t c : order) {
      index_t t = 0;
      for (index_t u = 1; u < num_threads; ++u)
        if (d.load[d.slot(u, s)] < d.load[d.slot(t, s)]) t = u;
      if (!affinity.empty()) {
        std::fill(pref_weight.begin(), pref_weight.end(), 0);
        for (index_t i : comp_rows[c])
          pref_weight[affinity[i]] += row_weight[i];
        const auto pref = static_cast<index_t>(
            std::max_element(pref_weight.begin(), pref_weight.end()) -
            pref_weight.begin());
        if (d.load[d.slot(pref, s)] + comp_weight[c] <= cap) t = pref;
      }
      auto& rows = slot_rows[d.slot(t, s)];
      rows.insert(rows.end(), comp_rows[c].begin(), comp_rows[c].end());
      d.load[d.slot(t, s)] += comp_weight[c];
    }

    // Components don't interact, so a global (level, row) sort per slot
    // restores streaming order while keeping producers first.
    for (index_t t = 0; t < num_threads; ++t) {
      auto& rows = slot_rows[d.slot(t, s)];
      std::sort(rows.begin(), rows.end(), [&](index_t a, index_t b) {
        if (level_of[a] != level_of[b]) return level_of[a] < level_of[b];
        return a < b;
      });
    }
  }

  d.part_ptr.assign(num_slots + 1, 0);
  for (std::size_t slot = 0; slot < num_slots; ++slot)
    d.part_ptr[slot + 1] =
        d.part_ptr[slot] + static_cast<index_t>(slot_rows[slot].size());
  d.part_rows.resize(static_cast<std::size_t>(n));
  for (std::size_t slot = 0; slot < num_slots; ++slot)
    std::copy(slot_rows[slot].begin(), slot_rows[slot].end(),
              d.part_rows.begin() + d.part_ptr[slot]);
  return d;
}

/// Max foreign-stage requirement per (slot, foreign thread), collected
/// with an epoch-stamped scratch array. `record(u, s)` keeps the max.
struct ForeignMax {
  std::vector<index_t> best;
  std::vector<unsigned> stamp;
  unsigned epoch = 0;

  void init(index_t num_threads) {
    best.assign(static_cast<std::size_t>(num_threads), 0);
    stamp.assign(static_cast<std::size_t>(num_threads), 0);
  }
  void reset() { ++epoch; }
  void record(index_t u, index_t s) {
    if (stamp[u] != epoch) {
      stamp[u] = epoch;
      best[u] = s;
    } else {
      best[u] = std::max(best[u], s);
    }
  }
  bool has(index_t u) const { return stamp[u] == epoch; }
};

/// Derived within-pair dependencies of one schedule (the ground truth
/// both the builder stores and the validator checks coverage against).
struct DerivedDeps {
  std::vector<index_t> fwd_dep_ptr;
  std::vector<LevelDep> fwd_deps;
  std::vector<index_t> bwd_dep_ptr;
  std::vector<LevelDep> bwd_deps;
  std::vector<index_t> bwd_fdep_ptr;
  std::vector<LevelDep> bwd_fdeps;
};

DerivedDeps derive_deps(const LevelSweepSchedule& s, const Placement& fp,
                        const Placement& bp,
                        std::span<const index_t> lower_rp,
                        std::span<const index_t> lower_ci,
                        std::span<const index_t> upper_rp,
                        std::span<const index_t> upper_ci) {
  const index_t T = s.num_threads;
  DerivedDeps out;
  ForeignMax fmax, bmax;
  fmax.init(T);
  bmax.init(T);

  // Column adjacency of the lower triangle: lcol[m] lists the rows i
  // with L_im != 0 — the forward-sweep readers of xy[2m] that the
  // backward stage overwriting xy[2m] must wait out. For structurally
  // symmetric patterns this set equals the U-neighbors of m (already
  // recorded below); the transpose scan is what keeps the engine
  // correct on unsymmetric patterns.
  const index_t n = static_cast<index_t>(lower_rp.size()) - 1;
  std::vector<index_t> lcol_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i)
    for (index_t e = lower_rp[i]; e < lower_rp[i + 1]; ++e)
      ++lcol_ptr[lower_ci[e] + 1];
  for (index_t m = 0; m < n; ++m) lcol_ptr[m + 1] += lcol_ptr[m];
  std::vector<index_t> lcol_rows(static_cast<std::size_t>(lcol_ptr[n]));
  {
    std::vector<index_t> fill(lcol_ptr.begin(), lcol_ptr.end() - 1);
    for (index_t i = 0; i < n; ++i)
      for (index_t e = lower_rp[i]; e < lower_rp[i + 1]; ++e)
        lcol_rows[fill[lower_ci[e]]++] = i;
  }

  // Forward slot (t, sf): waits on the largest foreign forward stage
  // among its rows' L-neighbors (the xy[2j+1] writers of this pair).
  out.fwd_dep_ptr.push_back(0);
  for (index_t t = 0; t < T; ++t)
    for (index_t sf = 0; sf < s.fwd.num_stages; ++sf) {
      fmax.reset();
      const std::size_t slot = s.fwd.slot(t, sf);
      for (index_t q = s.fwd.part_ptr[slot]; q < s.fwd.part_ptr[slot + 1];
           ++q) {
        const index_t i = s.fwd.part_rows[q];
        for (index_t e = lower_rp[i]; e < lower_rp[i + 1]; ++e) {
          const index_t j = lower_ci[e];
          if (fp.owner[j] != t) fmax.record(fp.owner[j], fp.stage[j]);
        }
      }
      for (index_t u = 0; u < T; ++u)
        if (fmax.has(u)) out.fwd_deps.push_back({u, fmax.best[u]});
      out.fwd_dep_ptr.push_back(static_cast<index_t>(out.fwd_deps.size()));
    }

  // Backward slot (t, sb): per row m it reads tmp[m] (forward writer of
  // m), reads xy[2j]/xy[2j+1] of U-neighbors j (backward / forward
  // writers of j), and overwrites xy[2m] whose prior readers are the
  // forward stages of the rows in column m of L (the lcol scan above;
  // equal to the U-neighbor set when the pattern is structurally
  // symmetric). A backward wait on thread u subsumes every forward
  // wait on u.
  out.bwd_dep_ptr.push_back(0);
  out.bwd_fdep_ptr.push_back(0);
  for (index_t t = 0; t < T; ++t)
    for (index_t sb = 0; sb < s.bwd.num_stages; ++sb) {
      fmax.reset();
      bmax.reset();
      const std::size_t slot = s.bwd.slot(t, sb);
      for (index_t q = s.bwd.part_ptr[slot]; q < s.bwd.part_ptr[slot + 1];
           ++q) {
        const index_t m = s.bwd.part_rows[q];
        if (fp.owner[m] != t) fmax.record(fp.owner[m], fp.stage[m]);
        for (index_t e = upper_rp[m]; e < upper_rp[m + 1]; ++e) {
          const index_t j = upper_ci[e];
          if (bp.owner[j] != t) bmax.record(bp.owner[j], bp.stage[j]);
          if (fp.owner[j] != t) fmax.record(fp.owner[j], fp.stage[j]);
        }
        for (index_t e = lcol_ptr[m]; e < lcol_ptr[m + 1]; ++e) {
          const index_t i = lcol_rows[e];  // forward reader of xy[2m]
          if (fp.owner[i] != t) fmax.record(fp.owner[i], fp.stage[i]);
        }
      }
      for (index_t u = 0; u < T; ++u) {
        if (bmax.has(u))
          out.bwd_deps.push_back({u, bmax.best[u]});
        else if (fmax.has(u))
          out.bwd_fdeps.push_back({u, fmax.best[u]});
      }
      out.bwd_dep_ptr.push_back(static_cast<index_t>(out.bwd_deps.size()));
      out.bwd_fdep_ptr.push_back(
          static_cast<index_t>(out.bwd_fdeps.size()));
    }
  return out;
}

/// Shape checks of one direction against n/T; rows permutation checked
/// by the caller via Placement.
bool direction_shape_ok(const LevelBlockDirection& d, index_t num_threads,
                        index_t n) {
  if (d.num_stages < 0) return false;
  const std::size_t num_slots =
      static_cast<std::size_t>(num_threads) * d.num_stages;
  if (d.stage_level_ptr.size() !=
      static_cast<std::size_t>(d.num_stages) + 1)
    return false;
  if (!d.stage_level_ptr.empty() && d.stage_level_ptr.front() != 0)
    return false;
  for (std::size_t q = 1; q < d.stage_level_ptr.size(); ++q)
    if (d.stage_level_ptr[q] < d.stage_level_ptr[q - 1]) return false;
  if (d.part_ptr.size() != num_slots + 1) return false;
  if (d.part_ptr.front() != 0 ||
      d.part_ptr.back() != n ||
      d.part_rows.size() != static_cast<std::size_t>(n))
    return false;
  for (std::size_t q = 1; q < d.part_ptr.size(); ++q)
    if (d.part_ptr[q] < d.part_ptr[q - 1]) return false;
  if (d.load.size() != num_slots) return false;
  for (index_t i : d.part_rows)
    if (i < 0 || i >= n) return false;
  return true;
}

/// The blocking invariant of one direction: every edge lands on a
/// strictly earlier stage, or on the same stage owned by the same
/// thread with the producer stored first.
bool edges_respect_stages(const LevelBlockDirection& d, const Placement& p,
                          std::span<const index_t> rp,
                          std::span<const index_t> ci, index_t n) {
  (void)d;
  for (index_t i = 0; i < n; ++i)
    for (index_t e = rp[i]; e < rp[i + 1]; ++e) {
      const index_t j = ci[e];
      if (p.stage[j] > p.stage[i]) return false;
      if (p.stage[j] == p.stage[i]) {
        if (p.owner[j] != p.owner[i]) return false;  // cross-thread edge
        if (p.pos[j] >= p.pos[i]) return false;      // consumer first
      }
    }
  return true;
}

/// Stored deps must cover the derived requirements: per (slot, foreign
/// thread) the stored stage must be >= the required one; a stored
/// backward dep covers any forward requirement on that thread.
bool deps_cover(std::span<const index_t> stored_ptr,
                std::span<const LevelDep> stored,
                std::span<const index_t> required_ptr,
                std::span<const LevelDep> required, index_t num_threads,
                index_t num_stages, index_t own_of_slot_stride,
                bool stage_strictly_before) {
  const std::size_t num_slots = stored_ptr.size() - 1;
  if (required_ptr.size() != stored_ptr.size()) return false;
  std::vector<index_t> best(static_cast<std::size_t>(num_threads));
  std::vector<unsigned> stamp(static_cast<std::size_t>(num_threads), 0);
  unsigned epoch = 0;
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    const index_t own_thread =
        static_cast<index_t>(slot) / own_of_slot_stride;
    const index_t own_stage =
        static_cast<index_t>(slot) % own_of_slot_stride;
    ++epoch;
    for (index_t q = stored_ptr[slot]; q < stored_ptr[slot + 1]; ++q) {
      const LevelDep& dep = stored[q];
      if (dep.thread < 0 || dep.thread >= num_threads) return false;
      if (dep.thread == own_thread) return false;  // self-wait
      if (dep.stage < 0 || dep.stage >= num_stages) return false;
      if (stage_strictly_before && dep.stage >= own_stage) return false;
      stamp[dep.thread] = epoch;
      best[dep.thread] = dep.stage;
    }
    for (index_t q = required_ptr[slot]; q < required_ptr[slot + 1]; ++q) {
      const LevelDep& need = required[q];
      if (stamp[need.thread] != epoch || best[need.thread] < need.stage)
        return false;
    }
  }
  return true;
}

}  // namespace

LevelSweepSchedule build_level_sweep_schedule(
    const LevelSchedulePair& levels, std::span<const index_t> lower_rp,
    std::span<const index_t> lower_ci, std::span<const index_t> upper_rp,
    std::span<const index_t> upper_ci, index_t num_threads,
    const LevelBlockingOptions& opts) {
  FBMPK_CHECK(num_threads >= 1);
  const index_t n = static_cast<index_t>(levels.forward.rows.size());
  FBMPK_CHECK(levels.backward.rows.size() == static_cast<std::size_t>(n));

  std::vector<index_t> row_weight(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    row_weight[i] = (lower_rp[i + 1] - lower_rp[i]) +
                    (upper_rp[i + 1] - upper_rp[i]) + 1;

  LevelSweepSchedule s;
  s.num_threads = num_threads;
  s.fwd = build_direction(levels.forward, lower_rp, lower_ci, row_weight, n,
                          num_threads, opts);
  // Backward components prefer their rows' forward owner: a plan
  // renumbered by forward ownership then keeps most of each thread's
  // backward writes inside its own contiguous range.
  const Placement fp = placement_of(s.fwd, num_threads, n);
  s.bwd = build_direction(levels.backward, upper_rp, upper_ci, row_weight, n,
                          num_threads, opts, fp.owner);

  const Placement bp = placement_of(s.bwd, num_threads, n);
  DerivedDeps deps =
      derive_deps(s, fp, bp, lower_rp, lower_ci, upper_rp, upper_ci);
  s.fwd_dep_ptr = std::move(deps.fwd_dep_ptr);
  s.fwd_deps = std::move(deps.fwd_deps);
  s.bwd_dep_ptr = std::move(deps.bwd_dep_ptr);
  s.bwd_deps = std::move(deps.bwd_deps);
  s.bwd_fdep_ptr = std::move(deps.bwd_fdep_ptr);
  s.bwd_fdeps = std::move(deps.bwd_fdeps);
  return s;
}

bool validate_level_sweep_schedule(const LevelSweepSchedule& s,
                                   std::span<const index_t> lower_rp,
                                   std::span<const index_t> lower_ci,
                                   std::span<const index_t> upper_rp,
                                   std::span<const index_t> upper_ci) {
  if (s.num_threads < 1) return false;
  const index_t n = static_cast<index_t>(lower_rp.size()) - 1;
  if (static_cast<index_t>(upper_rp.size()) - 1 != n) return false;
  if (!direction_shape_ok(s.fwd, s.num_threads, n) ||
      !direction_shape_ok(s.bwd, s.num_threads, n))
    return false;

  const Placement fp = placement_of(s.fwd, s.num_threads, n);
  const Placement bp = placement_of(s.bwd, s.num_threads, n);
  if (fp.duplicate || bp.duplicate) return false;
  for (index_t i = 0; i < n; ++i)
    if (fp.owner[i] < 0 || bp.owner[i] < 0) return false;

  if (!edges_respect_stages(s.fwd, fp, lower_rp, lower_ci, n) ||
      !edges_respect_stages(s.bwd, bp, upper_rp, upper_ci, n))
    return false;

  // Stage level ranges must agree with the actual dependency levels.
  const std::vector<index_t> flev =
      levels_in_walk_order(s.fwd, s.num_threads, lower_rp, lower_ci, n);
  const std::vector<index_t> blev =
      levels_in_walk_order(s.bwd, s.num_threads, upper_rp, upper_ci, n);
  const auto levels_agree = [n](const LevelBlockDirection& d,
                                const Placement& p,
                                const std::vector<index_t>& lev) {
    index_t num_levels = 0;
    for (index_t i = 0; i < n; ++i)
      num_levels = std::max(num_levels, lev[i] + 1);
    if (!d.stage_level_ptr.empty() && d.stage_level_ptr.back() != num_levels)
      return false;
    for (index_t i = 0; i < n; ++i) {
      const index_t st = p.stage[i];
      if (lev[i] < d.stage_level_ptr[st] ||
          lev[i] >= d.stage_level_ptr[st + 1])
        return false;
    }
    return true;
  };
  if (!levels_agree(s.fwd, fp, flev) || !levels_agree(s.bwd, bp, blev))
    return false;

  // Dep arrays: shapes, ranges, and coverage of the derived
  // requirements. Forward requirements may never appear in bwd_deps'
  // place and vice versa, so coverage is checked per array with the
  // backward-subsumes-forward rule folded in below.
  const std::size_t fwd_slots =
      static_cast<std::size_t>(s.num_threads) * s.fwd.num_stages;
  const std::size_t bwd_slots =
      static_cast<std::size_t>(s.num_threads) * s.bwd.num_stages;
  if (s.fwd_dep_ptr.size() != fwd_slots + 1 ||
      s.bwd_dep_ptr.size() != bwd_slots + 1 ||
      s.bwd_fdep_ptr.size() != bwd_slots + 1)
    return false;
  if (s.fwd_dep_ptr.front() != 0 || s.bwd_dep_ptr.front() != 0 ||
      s.bwd_fdep_ptr.front() != 0)
    return false;
  if (s.fwd_dep_ptr.back() != static_cast<index_t>(s.fwd_deps.size()) ||
      s.bwd_dep_ptr.back() != static_cast<index_t>(s.bwd_deps.size()) ||
      s.bwd_fdep_ptr.back() != static_cast<index_t>(s.bwd_fdeps.size()))
    return false;
  for (std::size_t q = 1; q < s.fwd_dep_ptr.size(); ++q)
    if (s.fwd_dep_ptr[q] < s.fwd_dep_ptr[q - 1]) return false;
  for (std::size_t q = 1; q < s.bwd_dep_ptr.size(); ++q)
    if (s.bwd_dep_ptr[q] < s.bwd_dep_ptr[q - 1]) return false;
  for (std::size_t q = 1; q < s.bwd_fdep_ptr.size(); ++q)
    if (s.bwd_fdep_ptr[q] < s.bwd_fdep_ptr[q - 1]) return false;

  const DerivedDeps need =
      derive_deps(s, fp, bp, lower_rp, lower_ci, upper_rp, upper_ci);
  if (!deps_cover(s.fwd_dep_ptr, s.fwd_deps, need.fwd_dep_ptr,
                  need.fwd_deps, s.num_threads, s.fwd.num_stages,
                  s.fwd.num_stages, /*stage_strictly_before=*/true))
    return false;
  if (!deps_cover(s.bwd_dep_ptr, s.bwd_deps, need.bwd_dep_ptr,
                  need.bwd_deps, s.num_threads, s.bwd.num_stages,
                  s.bwd.num_stages, /*stage_strictly_before=*/true))
    return false;
  // bwd_fdeps target forward stages of the same pair; a stored backward
  // dep on the same thread also satisfies a forward requirement, so the
  // derived bwd_fdeps (which exclude threads with a backward dep by
  // construction) must be covered literally.
  if (!deps_cover(s.bwd_fdep_ptr, s.bwd_fdeps, need.bwd_fdep_ptr,
                  need.bwd_fdeps, s.num_threads, s.fwd.num_stages,
                  s.bwd.num_stages, /*stage_strictly_before=*/false))
    return false;
  return true;
}

}  // namespace fbmpk
