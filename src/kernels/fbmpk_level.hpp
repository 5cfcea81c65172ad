// Level-scheduled parallel FBMPK — the alternative scheduler from the
// paper's discussion (§VII) — as one walk of the level-blocked stage
// schedule (reorder/level_blocking.hpp).
//
// The walk is head, head, {F_0..F_{SF-1}, B_0..B_{SB-1}} x pairs,
// [tail]. Inside a stage, slot (t, s) holds rows that depend only on
// earlier stages or on earlier rows of the same slot, so the slots of
// one stage are independent units. This header runs them with one team
// barrier per stage, handing the schedule's slots round-robin to
// whatever team the runtime delivers — or, with `serial` set, on the
// calling thread in stage-major slot order. The point-to-point engine
// (fbmpk_level_engine.hpp) walks the same stages with per-thread epoch
// waits and falls back here. The per-row arithmetic is the shared
// fb_detail code, so every walk is bitwise identical to serial FBMPK
// on the same rows, in whatever numbering the split is stored.
//
// Templated on the Rows policy (ScalarRows for the exact stream,
// DispatchRows for SIMD + packed indices) and on the iterate type TI
// (double, or Pack<double, B> for batched sweeps).
#pragma once

#include <span>

#include "kernels/fb_detail.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "reorder/level_blocking.hpp"
#include "sparse/split.hpp"
#include "support/error.hpp"
#include "support/threading.hpp"

namespace fbmpk {

/// Stage walk over an explicit row policy; same Emit and ctl contracts
/// as fbmpk_parallel_sweep_rows. Cancellation is polled at stage
/// boundaries; cancelled threads skip row work but still meet every
/// barrier. With `serial` the walk runs on the calling thread, outside
/// any parallel region, and emit may throw (the serial rung's
/// cancellation path).
template <class T, class TI, class Rows, class X0, class Emit>
void fbmpk_level_sweep_rows(const TriangularSplit<T>& s,
                            const LevelSweepSchedule& sched, const Rows& rows,
                            const X0& x0, int k, FbWorkspace<TI>& ws,
                            Emit&& emit, RunControl* ctl = nullptr,
                            bool serial = false) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(k >= 1);
  FBMPK_CHECK_MSG(
      !sched.empty() &&
          sched.fwd.part_rows.size() == static_cast<std::size_t>(n) &&
          sched.bwd.part_rows.size() == static_cast<std::size_t>(n),
      "level schedule does not cover the matrix");
  ws.resize(n);

  TI* xy = ws.xy.data();
  TI* tmp = ws.tmp.data();
  const int pairs = k / 2;
  const index_t T_n = sched.num_threads;

  const auto walk = [&](int tid, int team) {
    const auto barrier = [team] {
      if (team > 1) team_barrier();
    };
    const auto stage_dead = [&]() -> bool {
      if (ctl == nullptr) return false;
      if (tid == 0) return ctl->checkpoint();
      return ctl->cancelled();
    };
    // Head/tail rows carry no intra-sweep dependency: static chunks.
    const ThreadRange own = static_chunk(n, tid, team);
    const auto for_chunk = [&](auto&& row_fn) {
      for (auto i = static_cast<index_t>(own.begin); i < own.end; ++i)
        row_fn(i);
    };
    // Stage s of one direction: this thread's share of the slots.
    const auto for_stage = [&](const LevelBlockDirection& d, index_t st,
                               auto&& row_fn) {
      for (index_t t = tid; t < T_n; t += team) {
        const std::size_t slot = d.slot(t, st);
        for (index_t q = d.part_ptr[slot]; q < d.part_ptr[slot + 1]; ++q)
          row_fn(d.part_rows[q]);
      }
    };

    bool dead = stage_dead();
    if (!dead) for_chunk([&](index_t i) { xy[2 * i] = x0[i]; });
    barrier();
    if (!dead) for_chunk([&](index_t i) {
      TI sum{};
      rows.u_dot1(i, xy, 0, sum, kWalkUp);
      tmp[i] = sum;
    });

    for (int it = 0; it < pairs; ++it) {
      const int p_odd = 2 * it + 1;
      const int p_even = 2 * it + 2;

      for (index_t sf = 0; sf < sched.fwd.num_stages; ++sf) {
        barrier();
        dead = dead || stage_dead();
        if (!dead) for_stage(sched.fwd, sf, [&](index_t i) {
          const auto di = rows.diag(i);
          TI sum0 = madd(di, xy[2 * i], tmp[i]);
          TI sum1{};
          rows.l_dot2(i, xy, sum0, sum1, kWalkUp);
          xy[2 * i + 1] = sum0;
          emit(p_odd, i, sum0);
          tmp[i] = madd(di, sum0, sum1);
        });
      }

      // Backward slots list their rows upward (MpkPlan's renumbering
      // sorts them by (level, row)), so U streams upward here too.
      const bool prime_next = !(it == pairs - 1 && k % 2 == 0);
      for (index_t sb = 0; sb < sched.bwd.num_stages; ++sb) {
        barrier();
        dead = dead || stage_dead();
        if (!dead) for_stage(sched.bwd, sb, [&](index_t i) {
          TI sum0 = tmp[i];
          if (prime_next) {
            TI sum1{};
            rows.u_dot2(i, xy, sum1, sum0, kWalkUp);
            xy[2 * i] = sum0;
            emit(p_even, i, sum0);
            tmp[i] = sum1;
          } else {
            rows.u_dot1(i, xy, 1, sum0, kWalkUp);
            xy[2 * i] = sum0;
            emit(p_even, i, sum0);
          }
        });
      }
    }

    if (k % 2 == 1) {
      barrier();
      dead = dead || stage_dead();
      if (!dead) for_chunk([&](index_t i) {
        TI sum = madd(rows.diag(i), xy[2 * i], tmp[i]);
        rows.l_dot1(i, xy, 0, sum, kWalkUp);
        emit(k, i, sum);
      });
    }
  };

  if (serial)
    walk(0, 1);
  else
    parallel_region(walk);
}

/// y = A^k x0 with the barrier stage walk and the exact scalar row
/// policy — bitwise identical to serial FBMPK. k = 0 copies x0.
template <class T>
void fbmpk_level_power(const TriangularSplit<T>& s,
                       const LevelSweepSchedule& sched, std::span<const T> x0,
                       int k, std::span<T> y, FbWorkspace<T>& ws) {
  FBMPK_CHECK(y.size() == x0.size());
  FBMPK_CHECK(k >= 0);
  if (k == 0) {
    std::copy(x0.begin(), x0.end(), y.begin());
    return;
  }
  T* yp = y.data();
  fbmpk_level_sweep_rows<T, T>(s, sched, ScalarRows<T>(s), x0, k, ws,
                               [&](int p, index_t i, T v) {
                                 if (p == k) yp[i] = v;
                               });
}

}  // namespace fbmpk
