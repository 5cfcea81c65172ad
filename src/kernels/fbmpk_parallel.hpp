// Parallel FBMPK under the ABMC color schedule (paper Algorithm 2,
// §III-D/E).
//
// Preconditions: the TriangularSplit must come from the ABMC-*permuted*
// matrix, and the AbmcOrdering must be the schedule that produced that
// permutation. Forward sweeps walk colors in ascending order, backward
// sweeps descending; blocks within one color run in parallel (their
// rows share no matrix edges by the coloring invariant), with one
// barrier per color per sweep. Head/tail sweeps are plain row-parallel
// SpMVs — they only read completed vectors.
//
// The computation is exactly the serial FBMPK of the permuted matrix
// (same FP operations per row; only row completion order changes), so
// results are bitwise identical to the serial kernel.
#pragma once

#include <atomic>
#include <cstdlib>
#include <memory>
#include <span>
#include <utility>

#include "kernels/fb_detail.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/sweep_schedule.hpp"
#include "reorder/abmc.hpp"
#include "sparse/split.hpp"
#include "support/aligned_buffer.hpp"
#include "support/error.hpp"
#include "support/threading.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk {

/// Exact row policy: every L/U row dot goes straight to the shared
/// fb_detail helpers, so any sweep parameterized on it performs exactly
/// the operations of the serial reference kernel (bitwise identical).
/// kernels/fb_simd.hpp provides DispatchRows, the fast-mode twin with
/// the same member signatures (runtime-dispatched SIMD + packed
/// indices); both parallel sweeps below are templated on the policy.
template <class T>
struct ScalarRows {
  const index_t* lrp;
  const index_t* lci;
  const T* lva;
  const index_t* urp;
  const index_t* uci;
  const T* uva;
  const T* dgv;

  explicit ScalarRows(const TriangularSplit<T>& s)
      : lrp(s.lower.row_ptr().data()),
        lci(s.lower.col_idx().data()),
        lva(s.lower.values().data()),
        urp(s.upper.row_ptr().data()),
        uci(s.upper.col_idx().data()),
        uva(s.upper.values().data()),
        dgv(s.diag.data()) {}

  void l_dot2(index_t i, const T* xy, T& s0, T& s1) const {
    NullTracer tr;
    detail::row_dot2_btb(lci, lva, lrp[i], lrp[i + 1], xy, s0, s1, tr);
  }
  void u_dot2(index_t i, const T* xy, T& s0, T& s1) const {
    NullTracer tr;
    detail::row_dot2_btb(uci, uva, urp[i], urp[i + 1], xy, s0, s1, tr);
  }
  void l_dot1(index_t i, const T* xy, int offset, T& s) const {
    NullTracer tr;
    detail::row_dot1_btb(lci, lva, lrp[i], lrp[i + 1], xy, offset, s, tr);
  }
  void u_dot1(index_t i, const T* xy, int offset, T& s) const {
    NullTracer tr;
    detail::row_dot1_btb(uci, uva, urp[i], urp[i + 1], xy, offset, s, tr);
  }
  /// Diagonal entry i (exact storage — the fp64 reference stream).
  T diag(index_t i) const { return dgv[i]; }
  /// Stream row i's index/value data (engine NUMA warm pass).
  void warm(index_t i, T& acc) const {
    for (index_t q = lrp[i]; q < lrp[i + 1]; ++q)
      acc += lva[q] + static_cast<T>(lci[q]);
    for (index_t q = urp[i]; q < urp[i + 1]; ++q)
      acc += uva[q] + static_cast<T>(uci[q]);
  }
};

/// Color-scheduled parallel sweep over an explicit row policy.
/// emit(p, i, v) fires once per power p in [1, k] and (permuted) row i;
/// it may be called concurrently for distinct rows and must be safe
/// under that.
///
/// `ctl` (optional) is a cooperative cancellation token: it is polled
/// at every stage boundary (head, each color of each sweep, tail).
/// Once it reports cancelled, the remaining row work is skipped but
/// every thread still encounters every worksharing construct, so the
/// kernel terminates promptly with the outputs unspecified — the
/// caller must discard them. Never throws across the parallel region.
///
/// Generic over the iterate element TI (double, or Pack<double, B> for
/// batched multi-vector sweeps) and the x0 source X0 (a span, or a
/// gather adapter reading straight from request buffers); T stays the
/// split's element type.
template <class T, class TI, class Rows, class X0, class Emit>
void fbmpk_parallel_sweep_rows(const TriangularSplit<T>& s,
                               const AbmcOrdering& o, const Rows& rows,
                               const X0& x0, int k, FbWorkspace<TI>& ws,
                               Emit&& emit, RunControl* ctl = nullptr) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(k >= 1);
  FBMPK_CHECK_MSG(!o.block_ptr.empty() && o.block_ptr.back() == n,
                  "schedule does not cover the matrix");
  ws.resize(n);

  TI* xy = ws.xy.data();
  TI* tmp = ws.tmp.data();

  const int pairs = k / 2;
  const index_t num_colors = o.num_colors;

  detail::RegionSync sync;  // fork/join edges for ThreadSanitizer only
  sync.fork();
#ifdef _OPENMP
#pragma omp parallel default(shared)
#endif
  {
    sync.enter();
    // Telemetry (compiled out when FBMPK_TELEMETRY is off): one span
    // per (k-step, color) stage, recorded by thread 0 — the implicit
    // barrier after each `omp for` makes its timestamps bracket the
    // whole team's color.
    FBMPK_TELEMETRY_ONLY(
        telemetry::SweepRecorder fbmpk_rec{false};
        const bool fbmpk_rec0 = thread_id() == 0;)

    // Per-stage cancellation poll. Thread 0 additionally drives the
    // heartbeat / injected-stall checkpoint; diverging answers across
    // the team are harmless — every worksharing construct below is
    // still encountered by every thread, only loop bodies are skipped.
    const auto stage_dead = [&]() -> bool {
      if (ctl == nullptr) return false;
      if (thread_id() == 0) return ctl->checkpoint();
      return ctl->cancelled();
    };
    bool dead = stage_dead();

    // Head: even slots <- x0; tmp <- U·x0. Row-parallel, no coloring
    // needed (reads only x0).
    FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (index_t i = 0; i < n; ++i) {
      if (dead) continue;
      xy[2 * i] = x0[i];
    }
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
    for (index_t i = 0; i < n; ++i) {
      if (dead) continue;
      TI sum{};
      rows.u_dot1(i, xy, 0, sum);
      tmp[i] = sum;
    }
    FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_end("head", 0, -1);)

    for (int it = 0; it < pairs; ++it) {
      const int p_odd = 2 * it + 1;
      const int p_even = 2 * it + 2;

      // Forward: colors ascending; blocks of one color in parallel;
      // rows within a block top-down.
      for (index_t c = 0; c < num_colors; ++c) {
        dead = dead || stage_dead();
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b) {
          if (dead) continue;
          for (index_t i = o.block_ptr[b]; i < o.block_ptr[b + 1]; ++i) {
            const auto di = rows.diag(i);
            TI sum0 = madd(di, xy[2 * i], tmp[i]);
            TI sum1{};
            rows.l_dot2(i, xy, sum0, sum1);
            xy[2 * i + 1] = sum0;
            emit(p_odd, i, sum0);
            tmp[i] = madd(di, sum0, sum1);
          }
        }  // implicit barrier: color c complete before c+1 starts
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0)
                                 fbmpk_rec.stage_end("fwd", p_odd,
                                                     static_cast<int>(c));)
      }

      // Backward: colors descending; rows within a block bottom-up.
      const bool prime_next = !(it == pairs - 1 && k % 2 == 0);
      for (index_t c = num_colors; c-- > 0;) {
        dead = dead || stage_dead();
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b) {
          if (dead) continue;
          for (index_t i = o.block_ptr[b + 1]; i-- > o.block_ptr[b];) {
            TI sum0 = tmp[i];
            if (prime_next) {
              TI sum1{};
              rows.u_dot2(i, xy, sum1, sum0);
              xy[2 * i] = sum0;
              emit(p_even, i, sum0);
              tmp[i] = sum1;
            } else {
              rows.u_dot1(i, xy, 1, sum0);
              xy[2 * i] = sum0;
              emit(p_even, i, sum0);
            }
          }
        }
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0)
                                 fbmpk_rec.stage_end("bwd", p_even,
                                                     static_cast<int>(c));)
      }
    }

    if (k % 2 == 1) {
      // Tail: reads only completed even slots and tmp; row-parallel.
      dead = dead || stage_dead();
      FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
      for (index_t i = 0; i < n; ++i) {
        if (dead) continue;
        TI sum = madd(rows.diag(i), xy[2 * i], tmp[i]);
        rows.l_dot1(i, xy, 0, sum);
        emit(k, i, sum);
      }
      FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_end("tail", k, -1);)
    }
    sync.leave();
  }
  sync.join();
}

/// Color-scheduled parallel sweep with the exact scalar row policy —
/// bitwise identical to the serial kernel.
template <class T, class Emit>
void fbmpk_parallel_sweep(const TriangularSplit<T>& s, const AbmcOrdering& o,
                          std::span<const T> x0, int k, FbWorkspace<T>& ws,
                          Emit&& emit, RunControl* ctl = nullptr) {
  fbmpk_parallel_sweep_rows(s, o, ScalarRows<T>(s), x0, k, ws,
                            std::forward<Emit>(emit), ctl);
}

/// y = A^k x0, parallel; operates in the permuted index space.
template <class T>
void fbmpk_parallel_power(const TriangularSplit<T>& s, const AbmcOrdering& o,
                          std::span<const T> x0, int k, std::span<T> y,
                          FbWorkspace<T>& ws) {
  FBMPK_CHECK(y.size() == x0.size());
  FBMPK_CHECK(k >= 0);
  if (k == 0) {
    std::copy(x0.begin(), x0.end(), y.begin());
    return;
  }
  T* yp = y.data();
  fbmpk_parallel_sweep(s, o, x0, k, ws, [&](int p, index_t i, T v) {
    if (p == k) yp[i] = v;
  });
}

/// Krylov basis, parallel: out[p*n + i] = (A^p x0)[i], p in [0, k].
template <class T>
void fbmpk_parallel_power_all(const TriangularSplit<T>& s,
                              const AbmcOrdering& o, std::span<const T> x0,
                              int k, std::span<T> out, FbWorkspace<T>& ws) {
  const auto n = x0.size();
  FBMPK_CHECK(out.size() == n * static_cast<std::size_t>(k + 1));
  std::copy(x0.begin(), x0.end(), out.begin());
  if (k == 0) return;
  T* op = out.data();
  fbmpk_parallel_sweep(s, o, x0, k, ws, [&](int p, index_t i, T v) {
    op[static_cast<std::size_t>(p) * n + i] = v;
  });
}

/// y = sum_p coeffs[p] A^p x0, parallel.
template <class T>
void fbmpk_parallel_polynomial(const TriangularSplit<T>& s,
                               const AbmcOrdering& o,
                               std::span<const T> coeffs,
                               std::span<const T> x0, std::span<T> y,
                               FbWorkspace<T>& ws) {
  FBMPK_CHECK(!coeffs.empty());
  FBMPK_CHECK(y.size() == x0.size());
  const int k = static_cast<int>(coeffs.size()) - 1;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = coeffs[0] * x0[i];
  if (k == 0) return;
  T* yp = y.data();
  const T* cp = coeffs.data();
  fbmpk_parallel_sweep(s, o, x0, k, ws, [&](int p, index_t i, T v) {
    yp[i] += cp[p] * v;
  });
}

// ---------------------------------------------------------------------------
// Persistent-threads sweep engine (point-to-point synchronization).
// ---------------------------------------------------------------------------

/// Workspace of the persistent-threads engine. The buffers are
/// allocated *uninitialized* on purpose: the head stage writes every
/// element of xy and tmp through the owning (thread, color) partition,
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

/// Point-to-point engine behind fbmpk_engine_sweep. Returns false
/// without touching any output when it cannot run safely — the caller
/// then falls back to the barrier kernel. Reasons: schedule empty,
/// schedule shape not matching the ordering, or the OpenMP runtime
/// delivering a team smaller than schedule.num_threads (nested
/// parallelism, thread limits).
///
/// Epoch protocol (derivation in sweep_schedule.hpp and
/// docs/PARALLELISM.md): each thread owns one monotone counter,
/// bumped with release order after every stage. With C colors and
/// `pairs` forward/backward pairs the global stage list is
///   head0, head1, {F_0..F_{C-1}, B_{C-1}..B_0} x pairs, [tail]
/// so after head0 a thread's counter reads 1, after head1 it reads 2,
/// after F_c of pair `it` it reads 2 + it*2C + c + 1, and after B_c of
/// pair `it` it reads 2 + it*2C + C + (C - 1 - c) + 1. Stage waits
/// compare foreign counters against these values with acquire order.
/// Every dependency targets a strictly earlier stage in the list and
/// every thread visits every stage (even with an empty partition), so
/// the wait graph is acyclic: no deadlock.
template <class T, class TI, class Rows, class X0, class Emit>
bool fbmpk_engine_try_sweep_rows(const TriangularSplit<T>& s,
                                 const AbmcOrdering& o,
                                 const SweepSchedule& sched, const Rows& rows,
                                 const X0& x0, int k, SweepWorkspace<TI>& ws,
                                 bool pin_threads, Emit&& emit,
                                 RunControl* ctl = nullptr) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(k >= 1);
  FBMPK_CHECK_MSG(!o.block_ptr.empty() && o.block_ptr.back() == n,
                  "schedule does not cover the matrix");
  if (sched.empty() || sched.num_colors != o.num_colors ||
      sched.num_blocks != o.num_blocks)
    return false;

  const index_t T_n = sched.num_threads;
  if (T_n > max_threads()) return false;
  ws.resize(n);

  TI* xy = ws.xy();
  TI* tmp = ws.tmp();

  const int pairs = k / 2;
  const index_t C = sched.num_colors;
  const long long stage_pairs = 2LL * C;
  const bool warm_split = !ws.warmed;

  const auto epochs = std::make_unique<detail::SweepEpoch[]>(
      static_cast<std::size_t>(T_n));
  std::atomic<bool> team_ok{true};

  parallel_region_n(static_cast<int>(T_n), [&](int tid, int team) {
    if (team != static_cast<int>(T_n)) {
      // Whole team sees the same size; everyone bails consistently
      // before touching shared state.
      if (tid == 0) team_ok.store(false, std::memory_order_relaxed);
      return;
    }
    if (pin_threads) pin_team_compact();

    // Telemetry (compiled out when FBMPK_TELEMETRY is off): every
    // thread records its own (k-step, color) stage spans and
    // spin-vs-futex wait accounting into its thread-local buffer.
    FBMPK_TELEMETRY_ONLY(telemetry::SweepRecorder fbmpk_rec{true};)

    // Oversubscribed teams skip the spin phase entirely: the awaited
    // thread is not running concurrently, so spinning only delays its
    // next timeslice. Dedicated cores spin briefly before sleeping.
    const int pause_spins = team > hardware_cpus() ? 0 : 1024;
    const index_t t = static_cast<index_t>(tid);
    std::atomic<long long>& my = epochs[t].value;
    const auto bump = [&my] {
      my.fetch_add(1, std::memory_order_release);
      my.notify_all();
    };
    // Walk this thread's rows across all its color partitions.
    const auto for_own_rows = [&](auto&& row_fn) {
      for (index_t c = 0; c < C; ++c) {
        const std::size_t slot = sched.slot(t, c);
        for (index_t pi = sched.part_ptr[slot]; pi < sched.part_ptr[slot + 1];
             ++pi) {
          const index_t b = sched.part_blocks[pi];
          for (index_t i = o.block_ptr[b]; i < o.block_ptr[b + 1]; ++i)
            row_fn(i);
        }
      }
    };
    // Per-stage cancellation poll (thread 0 also drives the heartbeat /
    // injected-stall checkpoint). A cancelled thread skips row work but
    // keeps bumping its epoch, so every foreign wait still terminates —
    // the acyclic stage protocol is preserved under cancellation.
    bool dead = false;
    const auto stage_dead = [&]() -> bool {
      if (ctl == nullptr) return dead;
      if (tid == 0) dead = dead || ctl->checkpoint();
      else dead = dead || ctl->cancelled();
      return dead;
    };
    const auto wait_all = [&](long long target) {
      FBMPK_TELEMETRY_ONLY(
          const bool fbmpk_have_deps =
              sched.all_dep_ptr[t] < sched.all_dep_ptr[t + 1];
          if (fbmpk_have_deps && fbmpk_rec.active()) fbmpk_rec.wait_begin();
          bool fbmpk_blocked = false;)
      for (index_t q = sched.all_dep_ptr[t]; q < sched.all_dep_ptr[t + 1];
           ++q) {
        const bool blocked = detail::sweep_wait(epochs[sched.all_deps[q]].value,
                                                target, pause_spins);
        (void)blocked;
        FBMPK_TELEMETRY_ONLY(fbmpk_blocked = fbmpk_blocked || blocked;)
      }
      FBMPK_TELEMETRY_ONLY(if (fbmpk_have_deps && fbmpk_rec.active())
                               fbmpk_rec.wait_end(fbmpk_blocked);)
    };

    // head0: xy even slots <- x0 over owned rows. This is the
    // first-touch pass for xy; the warm read of the split arrays rides
    // along (row i's CSR data is only ever read while processing row
    // i, always by its owner, so this races with nothing).
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
      volatile T keep = sink;  // keep the warm reads observable
      (void)keep;
    }
    bump();  // epoch 1
    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_end("head0", 0, -1);)

    // head1: tmp <- U·x0. Reads foreign xy even slots; needs every
    // neighbor owner past head0.
    wait_all(1);
    stage_dead();
    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
    if (!dead) for_own_rows([&](index_t i) {
      TI sum{};
      rows.u_dot1(i, xy, 0, sum);
      tmp[i] = sum;
    });
    bump();  // epoch 2
    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_end("head1", 0, -1);)

    for (int it = 0; it < pairs; ++it) {
      const int p_odd = 2 * it + 1;
      const int p_even = 2 * it + 2;
      const long long base = 2 + it * stage_pairs;
      const bool prime_next = !(it == pairs - 1 && k % 2 == 0);

      // Forward stages: colors ascending, rows top-down.
      for (index_t c = 0; c < C; ++c) {
        const std::size_t slot = sched.slot(t, c);
        FBMPK_TELEMETRY_ONLY(
            const bool fbmpk_have_deps =
                sched.fwd_dep_ptr[slot] < sched.fwd_dep_ptr[slot + 1];
            if (fbmpk_have_deps && fbmpk_rec.active()) fbmpk_rec.wait_begin();
            bool fbmpk_blocked = false;)
        for (index_t q = sched.fwd_dep_ptr[slot];
             q < sched.fwd_dep_ptr[slot + 1]; ++q) {
          const SweepDep& dep = sched.fwd_deps[q];
          const bool blocked = detail::sweep_wait(
              epochs[dep.thread].value, base + dep.color + 1, pause_spins);
          (void)blocked;
          FBMPK_TELEMETRY_ONLY(fbmpk_blocked = fbmpk_blocked || blocked;)
        }
        stage_dead();
        FBMPK_TELEMETRY_ONLY(
            if (fbmpk_have_deps && fbmpk_rec.active())
                fbmpk_rec.wait_end(fbmpk_blocked);
            fbmpk_rec.stage_begin();)
        if (!dead)
          for (index_t pi = sched.part_ptr[slot];
               pi < sched.part_ptr[slot + 1]; ++pi) {
            const index_t b = sched.part_blocks[pi];
            for (index_t i = o.block_ptr[b]; i < o.block_ptr[b + 1]; ++i) {
              const auto di = rows.diag(i);
              TI sum0 = madd(di, xy[2 * i], tmp[i]);
              TI sum1{};
              rows.l_dot2(i, xy, sum0, sum1);
              xy[2 * i + 1] = sum0;
              emit(p_odd, i, sum0);
              tmp[i] = madd(di, sum0, sum1);
            }
          }
        bump();  // epoch base + c + 1
        FBMPK_TELEMETRY_ONLY(
            fbmpk_rec.stage_end("F", p_odd, static_cast<int>(c));)
      }

      // Backward stages: colors descending, rows bottom-up.
      for (index_t c = C; c-- > 0;) {
        const std::size_t slot = sched.slot(t, c);
        FBMPK_TELEMETRY_ONLY(
            const bool fbmpk_have_deps =
                sched.bwd_dep_ptr[slot] < sched.bwd_dep_ptr[slot + 1];
            if (fbmpk_have_deps && fbmpk_rec.active()) fbmpk_rec.wait_begin();
            bool fbmpk_blocked = false;)
        for (index_t q = sched.bwd_dep_ptr[slot];
             q < sched.bwd_dep_ptr[slot + 1]; ++q) {
          const SweepDep& dep = sched.bwd_deps[q];
          const bool blocked =
              detail::sweep_wait(epochs[dep.thread].value,
                                 base + C + (C - 1 - dep.color) + 1,
                                 pause_spins);
          (void)blocked;
          FBMPK_TELEMETRY_ONLY(fbmpk_blocked = fbmpk_blocked || blocked;)
        }
        stage_dead();
        FBMPK_TELEMETRY_ONLY(
            if (fbmpk_have_deps && fbmpk_rec.active())
                fbmpk_rec.wait_end(fbmpk_blocked);
            fbmpk_rec.stage_begin();)
        if (!dead)
          for (index_t pi = sched.part_ptr[slot];
               pi < sched.part_ptr[slot + 1]; ++pi) {
            const index_t b = sched.part_blocks[pi];
            for (index_t i = o.block_ptr[b + 1]; i-- > o.block_ptr[b];) {
              TI sum0 = tmp[i];
              if (prime_next) {
                TI sum1{};
                rows.u_dot2(i, xy, sum1, sum0);
                xy[2 * i] = sum0;
                emit(p_even, i, sum0);
                tmp[i] = sum1;
              } else {
                rows.u_dot1(i, xy, 1, sum0);
                xy[2 * i] = sum0;
                emit(p_even, i, sum0);
              }
            }
          }
        bump();  // epoch base + C + (C-1-c) + 1
        FBMPK_TELEMETRY_ONLY(
            fbmpk_rec.stage_end("B", p_even, static_cast<int>(c));)
      }
    }

    if (k % 2 == 1) {
      // Tail: reads foreign even slots; needs every neighbor owner
      // through the whole pair sequence.
      wait_all(2 + pairs * stage_pairs);
      stage_dead();
      FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
      if (!dead) for_own_rows([&](index_t i) {
        TI sum = madd(rows.diag(i), xy[2 * i], tmp[i]);
        rows.l_dot1(i, xy, 0, sum);
        emit(k, i, sum);
      });
      bump();
      FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_end("tail", k, -1);)
    }
  });

  if (!team_ok.load(std::memory_order_relaxed)) return false;
  // A cancelled run may have skipped part of the warm pass; only a
  // completed head stage marks the workspace warm.
  if (ctl == nullptr || !ctl->cancelled()) ws.warmed = true;
  return true;
}

/// Engine sweep with the exact scalar row policy (the PR 2 behavior).
template <class T, class Emit>
bool fbmpk_engine_try_sweep(const TriangularSplit<T>& s,
                            const AbmcOrdering& o, const SweepSchedule& sched,
                            std::span<const T> x0, int k,
                            SweepWorkspace<T>& ws, bool pin_threads,
                            Emit&& emit) {
  return fbmpk_engine_try_sweep_rows(s, o, sched, ScalarRows<T>(s), x0, k, ws,
                                     pin_threads, std::forward<Emit>(emit));
}

/// Point-to-point sweep over an explicit row policy with automatic
/// fallback to the per-color barrier kernel when the engine cannot
/// run. Same emit contract and identical results either way (both
/// paths issue the same per-row kernels).
template <class T, class TI, class Rows, class X0, class Emit>
void fbmpk_engine_sweep_rows(const TriangularSplit<T>& s,
                             const AbmcOrdering& o, const SweepSchedule& sched,
                             const Rows& rows, const X0& x0, int k,
                             SweepWorkspace<TI>& ws, Emit&& emit,
                             bool pin_threads = false,
                             RunControl* ctl = nullptr) {
  if (!fbmpk_engine_try_sweep_rows(s, o, sched, rows, x0, k, ws, pin_threads,
                                   emit, ctl))
    fbmpk_parallel_sweep_rows(s, o, rows, x0, k, ws.fallback, emit, ctl);
}

/// Point-to-point sweep with automatic fallback to the per-color
/// barrier kernel when the engine cannot run. Same emit contract and
/// bitwise-identical results either way.
template <class T, class Emit>
void fbmpk_engine_sweep(const TriangularSplit<T>& s, const AbmcOrdering& o,
                        const SweepSchedule& sched, std::span<const T> x0,
                        int k, SweepWorkspace<T>& ws, Emit&& emit,
                        bool pin_threads = false) {
  fbmpk_engine_sweep_rows(s, o, sched, ScalarRows<T>(s), x0, k, ws,
                          std::forward<Emit>(emit), pin_threads);
}

/// y = A^k x0 via the persistent-threads engine.
template <class T>
void fbmpk_engine_power(const TriangularSplit<T>& s, const AbmcOrdering& o,
                        const SweepSchedule& sched, std::span<const T> x0,
                        int k, std::span<T> y, SweepWorkspace<T>& ws,
                        bool pin_threads = false) {
  FBMPK_CHECK(y.size() == x0.size());
  FBMPK_CHECK(k >= 0);
  if (k == 0) {
    std::copy(x0.begin(), x0.end(), y.begin());
    return;
  }
  T* yp = y.data();
  fbmpk_engine_sweep(
      s, o, sched, x0, k, ws,
      [&](int p, index_t i, T v) {
        if (p == k) yp[i] = v;
      },
      pin_threads);
}

/// Krylov basis via the persistent-threads engine.
template <class T>
void fbmpk_engine_power_all(const TriangularSplit<T>& s,
                            const AbmcOrdering& o, const SweepSchedule& sched,
                            std::span<const T> x0, int k, std::span<T> out,
                            SweepWorkspace<T>& ws, bool pin_threads = false) {
  const auto n = x0.size();
  FBMPK_CHECK(out.size() == n * static_cast<std::size_t>(k + 1));
  std::copy(x0.begin(), x0.end(), out.begin());
  if (k == 0) return;
  T* op = out.data();
  fbmpk_engine_sweep(
      s, o, sched, x0, k, ws,
      [&](int p, index_t i, T v) {
        op[static_cast<std::size_t>(p) * n + i] = v;
      },
      pin_threads);
}

/// y = sum_p coeffs[p] A^p x0 via the persistent-threads engine.
template <class T>
void fbmpk_engine_polynomial(const TriangularSplit<T>& s,
                             const AbmcOrdering& o,
                             const SweepSchedule& sched,
                             std::span<const T> coeffs, std::span<const T> x0,
                             std::span<T> y, SweepWorkspace<T>& ws,
                             bool pin_threads = false) {
  FBMPK_CHECK(!coeffs.empty());
  FBMPK_CHECK(y.size() == x0.size());
  const int k = static_cast<int>(coeffs.size()) - 1;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = coeffs[0] * x0[i];
  if (k == 0) return;
  T* yp = y.data();
  const T* cp = coeffs.data();
  fbmpk_engine_sweep(
      s, o, sched, x0, k, ws,
      [&](int p, index_t i, T v) { yp[i] += cp[p] * v; },
      pin_threads);
}

}  // namespace fbmpk
