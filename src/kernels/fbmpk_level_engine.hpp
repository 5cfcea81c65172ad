// Persistent-threads level-blocked FBMPK engine: the point-to-point
// walk of the stage schedule whose barrier and serial walks live in
// fbmpk_level.hpp, driven by the LevelSweepSchedule from
// reorder/level_blocking.hpp. Plans store the split renumbered so each
// thread's forward rows are one contiguous range (docs/PARALLELISM.md);
// the engine itself walks the schedule's slots in any numbering.
//
// Epoch protocol. Each thread owns one monotone counter
// (detail::SweepEpoch, one cache line each), bumped with release order
// after every stage; a dependency is an acquire-order wait for a
// foreign counter to reach a stage's value (detail::sweep_wait). With
// SF forward and SB backward stages and `pairs` forward/backward
// pairs, each thread walks
//   head0, head1, {F_0..F_{SF-1}, B_0..B_{SB-1}} x pairs, [tail]
// so its counter reads 1 after head0, 2 after head1, base + s + 1 after
// F_s and base + SF + s + 1 after B_s of pair `it`
// (base = 2 + it*(SF+SB)): "thread u finished F_s of this pair" is the
// predicate epoch[u] >= base + s + 1.
//
// Forward and backward sweeps own rows independently (their level
// structures differ), so within-pair waits cannot cover the reads and
// antidependencies that cross a pair boundary. Instead every thread
// performs one all-thread rendezvous wait_all(base) before F_0 of each
// pair — covering every read of pair-boundary state (even xy slots,
// tmp) and every antidependency against the previous pair — and all
// within-pair synchronization is point-to-point per the derivation in
// level_blocking.hpp. Every dependency targets a strictly earlier stage
// in the walk and every thread bumps through every stage (even with an
// empty partition or after cancellation), so the wait graph is acyclic:
// no deadlock.
#pragma once

#include <atomic>
#include <cstdlib>
#include <memory>
#include <span>
#include <utility>

#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_level.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "reorder/level_blocking.hpp"
#include "sparse/split.hpp"
#include "support/aligned_buffer.hpp"
#include "support/error.hpp"
#include "support/threading.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk {

/// Workspace of the persistent-threads engine. The buffers are
/// allocated *uninitialized* on purpose: the head stage writes every
/// element of xy and tmp through the owning (thread, stage) slot,
/// so on a first-touch NUMA policy each page lands on the node of the
/// thread that will keep streaming it. A value-initializing vector
/// would have the allocating thread touch (and place) everything.
/// `fallback` backs the barrier kernel when the engine cannot run
/// (team-size mismatch, empty schedule).
template <class T>
struct SweepWorkspace {
  SweepWorkspace() = default;

  void resize(index_t n) {
    if (n == n_) return;
    xy_.reset(raw_alloc(2 * static_cast<std::size_t>(n)));
    tmp_.reset(raw_alloc(static_cast<std::size_t>(n)));
    n_ = n;
    warmed = false;
  }

  T* xy() { return xy_.get(); }
  T* tmp() { return tmp_.get(); }
  index_t size() const { return n_; }

  /// Set once the split arrays have been streamed by their owning
  /// threads (cold-start cache/NUMA warm pass, done on first use).
  bool warmed = false;
  FbWorkspace<T> fallback;

 private:
  struct FreeDeleter {
    void operator()(T* p) const { std::free(p); }
  };
  static T* raw_alloc(std::size_t count) {
    if (count == 0) return nullptr;
    const std::size_t bytes =
        (count * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
        kCacheLineBytes;
    void* p = std::aligned_alloc(kCacheLineBytes, bytes);
    FBMPK_CHECK_MSG(p != nullptr, "sweep workspace allocation failed");
    return static_cast<T*>(p);
  }
  std::unique_ptr<T[], FreeDeleter> xy_;
  std::unique_ptr<T[], FreeDeleter> tmp_;
  index_t n_ = 0;
};

namespace detail {

/// One cache line per thread's epoch counter — threads spin on foreign
/// counters, so sharing a line would turn every bump into a broadcast.
struct alignas(kCacheLineBytes) SweepEpoch {
  std::atomic<long long> value{0};
};

/// Wait until the epoch counter reaches `target`: `spin_rounds` polls
/// (zero on oversubscribed teams, where spinning only steals the
/// awaited thread's timeslice) through a default SpinWaiter — its 64
/// pauses, then a sched_yield per poll, so a long spin phase mostly
/// yields — then a futex-style block on the counter, the same
/// sleeping a team barrier would do, but woken by the one thread this
/// stage actually depends on. Pausing for all the polls instead
/// measured no better on a power-law level plan and is exposed to a
/// busy host. Returns whether the wait fell through to a futex block
/// (telemetry classifies spin-satisfied vs blocked waits; callers
/// otherwise ignore it).
inline bool sweep_wait(std::atomic<long long>& e, long long target,
                       int spin_rounds) {
  SpinWaiter w;
  for (int i = 0; i < spin_rounds; ++i) {
    if (e.load(std::memory_order_acquire) >= target) return false;
    w.wait();
  }
  long long cur = e.load(std::memory_order_acquire);
  bool blocked = false;
  while (cur < target) {
    blocked = true;
    e.wait(cur, std::memory_order_acquire);
    cur = e.load(std::memory_order_acquire);
  }
  return blocked;
}

}  // namespace detail

/// Point-to-point level engine. Returns false without touching any
/// output when it cannot run safely (schedule empty, row-count
/// mismatch, or the OpenMP runtime delivering a smaller team); the
/// caller then falls back to the barrier stage walk.
template <class T, class TI, class Rows, class X0, class Emit>
bool fbmpk_level_engine_try_sweep_rows(const TriangularSplit<T>& s,
                                       const LevelSweepSchedule& sched,
                                       const Rows& rows, const X0& x0, int k,
                                       SweepWorkspace<TI>& ws,
                                       bool pin_threads, Emit&& emit,
                                       RunControl* ctl = nullptr) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(k >= 1);
  if (sched.empty() ||
      sched.fwd.part_rows.size() != static_cast<std::size_t>(n) ||
      sched.bwd.part_rows.size() != static_cast<std::size_t>(n))
    return false;

  const index_t T_n = sched.num_threads;
  if (T_n > max_threads()) return false;
  ws.resize(n);

  TI* xy = ws.xy();
  TI* tmp = ws.tmp();

  const int pairs = k / 2;
  const index_t SF = sched.fwd.num_stages;
  const index_t SB = sched.bwd.num_stages;
  const long long stage_pair = static_cast<long long>(SF) + SB;
  const bool warm_split = !ws.warmed;

  const auto epochs = std::make_unique<detail::SweepEpoch[]>(
      static_cast<std::size_t>(T_n));
  std::atomic<bool> team_ok{true};

  parallel_region_n(static_cast<int>(T_n), [&](int tid, int team) {
    if (team != static_cast<int>(T_n)) {
      if (tid == 0) team_ok.store(false, std::memory_order_relaxed);
      return;
    }
    if (pin_threads) pin_team_compact();

    FBMPK_TELEMETRY_ONLY(telemetry::SweepRecorder fbmpk_rec{true};)

    const int pause_spins = team > hardware_cpus() ? 0 : 1024;
    const index_t t = static_cast<index_t>(tid);
    std::atomic<long long>& my = epochs[t].value;
    const auto bump = [&my] {
      my.fetch_add(1, std::memory_order_release);
      my.notify_all();
    };
    // Head/tail stages use the forward ownership (they are
    // forward-shaped row sweeps).
    const auto for_own_rows = [&](auto&& row_fn) {
      for (index_t sf = 0; sf < SF; ++sf) {
        const std::size_t slot = sched.fwd.slot(t, sf);
        for (index_t q = sched.fwd.part_ptr[slot];
             q < sched.fwd.part_ptr[slot + 1]; ++q)
          row_fn(sched.fwd.part_rows[q]);
      }
    };
    bool dead = false;
    const auto stage_dead = [&]() -> bool {
      if (ctl == nullptr) return dead;
      if (tid == 0) dead = dead || ctl->checkpoint();
      else dead = dead || ctl->cancelled();
      return dead;
    };
    // Rendezvous: every foreign thread past `target`. The level engine
    // has no neighbor sets — forward/backward ownership differ, so the
    // conservative all-thread wait is the pair boundary.
    const auto wait_all = [&](long long target) {
      FBMPK_TELEMETRY_ONLY(
          if (T_n > 1 && fbmpk_rec.active()) fbmpk_rec.wait_begin();
          bool fbmpk_blocked = false;)
      for (index_t u = 0; u < T_n; ++u) {
        if (u == t) continue;
        const bool blocked =
            detail::sweep_wait(epochs[u].value, target, pause_spins);
        (void)blocked;
        FBMPK_TELEMETRY_ONLY(fbmpk_blocked = fbmpk_blocked || blocked;)
      }
      FBMPK_TELEMETRY_ONLY(if (T_n > 1 && fbmpk_rec.active())
                               fbmpk_rec.wait_end(fbmpk_blocked);)
    };
    const auto wait_deps = [&](std::span<const index_t> dep_ptr,
                               std::span<const LevelDep> deps,
                               std::size_t slot, long long stage0) {
      FBMPK_TELEMETRY_ONLY(
          const bool fbmpk_have = dep_ptr[slot] < dep_ptr[slot + 1];
          if (fbmpk_have && fbmpk_rec.active()) fbmpk_rec.wait_begin();
          bool fbmpk_blocked = false;)
      for (index_t q = dep_ptr[slot]; q < dep_ptr[slot + 1]; ++q) {
        const LevelDep& dep = deps[q];
        const bool blocked = detail::sweep_wait(
            epochs[dep.thread].value, stage0 + dep.stage + 1, pause_spins);
        (void)blocked;
        FBMPK_TELEMETRY_ONLY(fbmpk_blocked = fbmpk_blocked || blocked;)
      }
      FBMPK_TELEMETRY_ONLY(if (fbmpk_have && fbmpk_rec.active())
                               fbmpk_rec.wait_end(fbmpk_blocked);)
    };

    // head0: xy even slots <- x0 over forward-owned rows. This is the
    // first-touch pass for xy; the warm read of the split arrays rides
    // along (a row's CSR data is read only by the thread that owns it
    // in this walk, so the warm read races with nothing).
    T sink{};
    stage_dead();
    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
    if (!dead) for_own_rows([&](index_t i) {
      xy[2 * i] = x0[i];
      if (warm_split) {
        T acc{};
        rows.warm(i, acc);
        sink += acc + rows.diag(i);
      }
    });
    if (warm_split) {
      volatile T keep = sink;
      (void)keep;
    }
    bump();  // epoch 1
    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_end("head0", 0, -1);)

    // head1: tmp <- U·x0; reads foreign even slots.
    wait_all(1);
    stage_dead();
    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
    if (!dead) for_own_rows([&](index_t i) {
      TI sum{};
      rows.u_dot1(i, xy, 0, sum, kWalkUp);
      tmp[i] = sum;
    });
    bump();  // epoch 2
    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_end("head1", 0, -1);)

    for (int it = 0; it < pairs; ++it) {
      const int p_odd = 2 * it + 1;
      const int p_even = 2 * it + 2;
      const long long base = 2 + it * stage_pair;
      const bool prime_next = !(it == pairs - 1 && k % 2 == 0);

      // Pair boundary: all cross-pair reads/antideps covered at once.
      wait_all(base);

      for (index_t sf = 0; sf < SF; ++sf) {
        const std::size_t slot = sched.fwd.slot(t, sf);
        wait_deps(sched.fwd_dep_ptr, sched.fwd_deps, slot, base);
        stage_dead();
        FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
        if (!dead)
          for (index_t q = sched.fwd.part_ptr[slot];
               q < sched.fwd.part_ptr[slot + 1]; ++q) {
            const index_t i = sched.fwd.part_rows[q];
            const auto di = rows.diag(i);
            TI sum0 = madd(di, xy[2 * i], tmp[i]);
            TI sum1{};
            rows.l_dot2(i, xy, sum0, sum1, kWalkUp);
            xy[2 * i + 1] = sum0;
            emit(p_odd, i, sum0);
            tmp[i] = madd(di, sum0, sum1);
          }
        bump();  // epoch base + sf + 1
        FBMPK_TELEMETRY_ONLY(
            fbmpk_rec.stage_end("F", p_odd, static_cast<int>(sf));)
      }

      // Backward slots list their rows upward (MpkPlan's renumbering
      // sorts them by (level, row)), so U streams upward here too.
      for (index_t sb = 0; sb < SB; ++sb) {
        const std::size_t slot = sched.bwd.slot(t, sb);
        wait_deps(sched.bwd_fdep_ptr, sched.bwd_fdeps, slot, base);
        wait_deps(sched.bwd_dep_ptr, sched.bwd_deps, slot, base + SF);
        stage_dead();
        FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
        if (!dead)
          for (index_t q = sched.bwd.part_ptr[slot];
               q < sched.bwd.part_ptr[slot + 1]; ++q) {
            const index_t i = sched.bwd.part_rows[q];
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
          }
        bump();  // epoch base + SF + sb + 1
        FBMPK_TELEMETRY_ONLY(
            fbmpk_rec.stage_end("B", p_even, static_cast<int>(sb));)
      }
    }

    if (k % 2 == 1) {
      wait_all(2 + pairs * stage_pair);
      stage_dead();
      FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
      if (!dead) for_own_rows([&](index_t i) {
        TI sum = madd(rows.diag(i), xy[2 * i], tmp[i]);
        rows.l_dot1(i, xy, 0, sum, kWalkUp);
        emit(k, i, sum);
      });
      bump();
      FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_end("tail", k, -1);)
    }
  });

  if (!team_ok.load(std::memory_order_relaxed)) return false;
  if (ctl == nullptr || !ctl->cancelled()) ws.warmed = true;
  return true;
}

/// Level engine sweep with automatic fallback to the barrier stage
/// walk; identical results either way (same stages, same row kernels).
template <class T, class TI, class Rows, class X0, class Emit>
void fbmpk_level_engine_sweep_rows(const TriangularSplit<T>& s,
                                   const LevelSweepSchedule& sched,
                                   const Rows& rows, const X0& x0, int k,
                                   SweepWorkspace<TI>& ws, Emit&& emit,
                                   bool pin_threads = false,
                                   RunControl* ctl = nullptr) {
  if (!fbmpk_level_engine_try_sweep_rows(s, sched, rows, x0, k, ws,
                                         pin_threads, emit, ctl))
    fbmpk_level_sweep_rows<T, TI>(s, sched, rows, x0, k, ws.fallback, emit,
                                  ctl);
}

/// y = A^k x0 via the level engine (exact scalar row policy).
template <class T>
void fbmpk_level_engine_power(const TriangularSplit<T>& s,
                              const LevelSweepSchedule& sched,
                              std::span<const T> x0, int k, std::span<T> y,
                              SweepWorkspace<T>& ws,
                              bool pin_threads = false) {
  FBMPK_CHECK(y.size() == x0.size());
  FBMPK_CHECK(k >= 0);
  if (k == 0) {
    std::copy(x0.begin(), x0.end(), y.begin());
    return;
  }
  T* yp = y.data();
  fbmpk_level_engine_sweep_rows<T, T>(
      s, sched, ScalarRows<T>(s), x0, k, ws,
      [&](int p, index_t i, T v) {
        if (p == k) yp[i] = v;
      },
      pin_threads);
}

}  // namespace fbmpk
