#include "core/plan.hpp"

#include <algorithm>
#include <cmath>
#include <new>
#include <numeric>

#include "kernels/fb_batch.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "support/timer.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk {

namespace {

#if FBMPK_TELEMETRY_ENABLED
// Max-over-mean per-thread nnz load of the level-blocked schedule,
// summed over both directions' stages, in parts-per-million (same
// diagnostic as perf::partition_imbalance, kept local to avoid a
// core -> perf dependency). 1e6 == perfectly balanced.
std::int64_t level_imbalance_ppm(const LevelSweepSchedule& sched) {
  if (sched.empty()) return 0;
  const std::size_t T_n = static_cast<std::size_t>(sched.num_threads);
  std::vector<double> per_thread(T_n, 0.0);
  const auto add = [&](const LevelBlockDirection& d) {
    for (std::size_t t = 0; t < T_n; ++t)
      for (index_t s = 0; s < d.num_stages; ++s)
        per_thread[t] += static_cast<double>(
            d.load[d.slot(static_cast<index_t>(t), s)]);
  };
  add(sched.fwd);
  add(sched.bwd);
  double total = 0.0, peak = 0.0;
  for (double v : per_thread) {
    total += v;
    peak = std::max(peak, v);
  }
  const double mean = total / static_cast<double>(T_n);
  if (mean <= 0.0) return 0;
  return static_cast<std::int64_t>(peak / mean * 1e6);
}
#endif

/// Number of forward dependency levels of a's strict lower triangle in
/// its own order, straight from the pattern (columns ascend, so each
/// row's lower part is a prefix).
index_t forward_level_count(const CsrMatrix<double>& a) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  std::vector<index_t> level_of(static_cast<std::size_t>(a.rows()), 0);
  index_t count = 1;
  for (index_t i = 0; i < a.rows(); ++i) {
    index_t lvl = 0;
    for (index_t q = rp[i]; q < rp[i + 1] && ci[q] < i; ++q)
      lvl = std::max(lvl, level_of[ci[q]] + 1);
    level_of[i] = lvl;
    count = std::max(count, lvl + 1);
  }
  return count;
}

}  // namespace

const char* scheduler_name(Scheduler s) {
  switch (s) {
    case Scheduler::kAbmc:
      return "abmc";
    case Scheduler::kLevels:
      return "levels";
    case Scheduler::kAuto:
      return "auto";
  }
  return "abmc";
}

Scheduler parse_scheduler(const std::string& name) {
  if (name == "abmc") return Scheduler::kAbmc;
  if (name == "levels") return Scheduler::kLevels;
  if (name == "auto") return Scheduler::kAuto;
  throw Error(ErrorCode::kUnsupported,
              "unknown scheduler '" + name + "' (abmc | levels | auto)");
}

MpkPlan MpkPlan::build(const CsrMatrix<double>& a, PlanOptions opts) {
  FBMPK_CHECK_CODE(a.rows() == a.cols(), ErrorCode::kInvalidMatrix,
                   "MpkPlan needs a square matrix, got " << a.rows() << " x "
                                                         << a.cols());
  FBMPK_CHECK_CODE(a.rows() > 0, ErrorCode::kInvalidMatrix,
                   "MpkPlan needs a non-empty matrix");
  FBMPK_CHECK_MSG(
      !opts.parallel || opts.reorder || opts.scheduler != Scheduler::kAbmc,
      "ABMC-scheduled parallel execution requires the reorder; use "
      "Scheduler::kLevels (or kAuto) to run parallel without reordering");
  const bool wants_dispatch =
      opts.kernel_backend != KernelBackend::kScalar || opts.index_compress ||
      opts.value_precision != ValuePrecision::kFp64;
  FBMPK_CHECK_CODE(!wants_dispatch || opts.variant == FbVariant::kBtb,
                   ErrorCode::kUnsupported,
                   "fast kernel backends / index compression cover the BtB "
                   "variant only");
  FBMPK_CHECK_MSG(opts.prefetch_dist >= 0 && opts.prefetch_dist <= 1024,
                  "prefetch_dist must be in [0, 1024], got "
                      << opts.prefetch_dist);
  if (opts.validate_input) {
    FBMPK_TSPAN(kPlan, "plan.validate");
    check_matrix(a, opts.sanitize);
  }

  FBMPK_TSPAN(kPlan, "plan.build");
  Timer total;
  MpkPlan plan;
  plan.n_ = a.rows();
  plan.opts_ = opts;

  if (opts.parallel && opts.scheduler == Scheduler::kAuto) {
    // Structural probe for the unmeasured build path: level scheduling
    // wins when the dependency levels are wide enough to keep every
    // thread busy without ABMC's recoloring barriers; long narrow
    // chains favor ABMC (docs/PARALLELISM.md §choosing-a-scheduler).
    // The levels are those of the original order, the order a level
    // plan runs in. build_autotuned_plan replaces this with a measured
    // race (autotune_scheduler). Plans never carry kAuto past this point.
    FBMPK_TSPAN(kPlan, "plan.scheduler_probe");
    if (!opts.reorder) {
      opts.scheduler = Scheduler::kLevels;  // ABMC needs the reorder
    } else {
      const index_t threads = opts.sweep.threads > 0
                                  ? opts.sweep.threads
                                  : static_cast<index_t>(max_threads());
      const double mean_width = static_cast<double>(plan.n_) /
                                static_cast<double>(forward_level_count(a));
      opts.scheduler = mean_width >= 4.0 * static_cast<double>(threads)
                           ? Scheduler::kLevels
                           : Scheduler::kAbmc;
    }
    plan.opts_.scheduler = opts.scheduler;
  } else if (opts.scheduler == Scheduler::kAuto) {
    // Serial plans never consult the scheduler; resolve to the default
    // so persisted options stay concrete.
    opts.scheduler = Scheduler::kAbmc;
    plan.opts_.scheduler = opts.scheduler;
  }
  // ABMC plans run the per-color barrier kernel (paper Algorithm 2);
  // store the sync that actually runs.
  if (opts.scheduler == Scheduler::kAbmc)
    plan.opts_.sweep.sync = opts.sweep.sync = SweepSync::kBarrier;

  // Level-scheduled plans take no ABMC reorder: they are renumbered
  // by thread ownership below instead.
  const bool levels = opts.parallel && opts.scheduler == Scheduler::kLevels;
  if (opts.reorder && !levels) {
    Timer reorder_timer;
    {
      FBMPK_TSPAN(kPlan, "plan.abmc");
      plan.schedule_ = abmc_order(a, opts.abmc);
    }
    plan.perm_ = plan.schedule_.perm;
    plan.stats_.reorder_seconds = reorder_timer.seconds();
    plan.stats_.num_blocks = plan.schedule_.num_blocks;
    plan.stats_.num_colors = plan.schedule_.num_colors;
    FBMPK_TSPAN(kPlan, "plan.split");
    plan.split_ = split_triangular_permuted(a, plan.perm_.order());
  } else {
    FBMPK_TSPAN(kPlan, "plan.split");
    plan.perm_ = Permutation::identity(a.rows());
    plan.split_ = split_triangular(a);
  }

  if (levels) {
    FBMPK_TSPAN(kPlan, "plan.levels");
    plan.renumber_by_ownership(opts.sweep.threads > 0
                                   ? opts.sweep.threads
                                   : static_cast<index_t>(max_threads()));
    FBMPK_TGAUGE("plan.partition_imbalance_ppm",
                 level_imbalance_ppm(plan.level_sweep_schedule_));
  }

  plan.pack_sidecars();
  // Resolve the executing backend now so an impossible explicit request
  // fails at build, not at the first power() call. kAuto goes through
  // the CPUID probe.
  if (opts.kernel_backend != KernelBackend::kAuto)
    FBMPK_CHECK_CODE(backend_available(opts.kernel_backend),
                     ErrorCode::kUnsupported,
                     "kernel backend "
                         << backend_name(opts.kernel_backend)
                         << " is not available on this CPU");
  plan.resolved_backend_ = resolve_backend(opts.kernel_backend);

  plan.stats_.storage_bytes = plan.split_.storage_bytes();
  plan.internal_ws_ = std::make_unique<Workspace>();
  plan.stats_.build_seconds = total.seconds();
  FBMPK_TCOUNT("plan.builds", 1);
  FBMPK_TGAUGE("plan.num_blocks", plan.stats_.num_blocks);
  FBMPK_TGAUGE("plan.num_colors", plan.stats_.num_colors);
  FBMPK_TGAUGE("plan.scheduler",
               plan.opts_.scheduler == Scheduler::kLevels ? 1 : 0);
  return plan;
}

void MpkPlan::renumber_by_ownership(index_t threads) {
  const index_t n = n_;
  if (!perm_.is_identity()) {
    // A renumbered plan (a load under another thread count) first goes
    // back to the original order, so the result equals a fresh build.
    const std::vector<index_t> back = perm_.inverse();
    perm_ = Permutation::identity(n);
    split_ = renumber_split(std::move(split_), back, perm_.order());
  }
  const LevelSchedulePair levels = LevelSchedulePair::of(split_);
  stats_.num_levels_forward = levels.forward.num_levels;
  stats_.num_levels_backward = levels.backward.num_levels;
  level_sweep_schedule_ = build_level_sweep_schedule(levels, split_, threads);

  // pi = the forward slot order, so each thread's forward rows become
  // one contiguous range; the schedule's rows are renamed with it.
  LevelSweepSchedule& ls = level_sweep_schedule_;
  std::vector<index_t> order = std::move(ls.fwd.part_rows);
  std::vector<index_t> inv(static_cast<std::size_t>(n));
  for (index_t q = 0; q < n; ++q) inv[order[q]] = q;
  ls.fwd.part_rows.resize(static_cast<std::size_t>(n));
  std::iota(ls.fwd.part_rows.begin(), ls.fwd.part_rows.end(), index_t{0});

  // Backward slots keep the builder's (level, row) order, restated in
  // the new numbering so each slot's U rows stream upward.
  std::vector<index_t> blevel(static_cast<std::size_t>(n));
  for (index_t l = 0; l < levels.backward.num_levels; ++l)
    for (index_t q = levels.backward.level_ptr[l];
         q < levels.backward.level_ptr[l + 1]; ++q)
      blevel[inv[levels.backward.rows[q]]] = l;
  for (index_t& i : ls.bwd.part_rows) i = inv[i];
  for (std::size_t sl = 0; sl + 1 < ls.bwd.part_ptr.size(); ++sl)
    std::sort(ls.bwd.part_rows.begin() + ls.bwd.part_ptr[sl],
              ls.bwd.part_rows.begin() + ls.bwd.part_ptr[sl + 1],
              [&](index_t a, index_t b) {
                return blevel[a] != blevel[b] ? blevel[a] < blevel[b] : a < b;
              });

  split_ = renumber_split(std::move(split_), order, order);
  perm_ = Permutation(std::move(order));
}

void MpkPlan::pack_sidecars() {
  if (opts_.index_compress) {
    FBMPK_TSPAN(kPlan, "plan.pack_index");
    packed_.lower = PackedTriangleIndex::build(split_.lower);
    packed_.upper = PackedTriangleIndex::build(split_.upper);
    stats_.packed_index_bytes = packed_.index_bytes();
  }
  if (opts_.value_precision != ValuePrecision::kFp64) {
    FBMPK_TSPAN(kPlan, "plan.pack_values");
    const auto lv = std::span<const double>(split_.lower.values());
    const auto uv = std::span<const double>(split_.upper.values());
    const auto dv = std::span<const double>(split_.diag);
    FBMPK_CHECK_CODE(
        values_fit_fp32(lv) && values_fit_fp32(uv) && values_fit_fp32(dv),
        ErrorCode::kUnsupported,
        "matrix values exceed float range; "
            << precision_name(opts_.value_precision)
            << " storage needs every value finite and within float range");
    values_.precision = opts_.value_precision;
    values_.lower = PackedTriangleValues::build(lv, opts_.value_precision);
    values_.upper = PackedTriangleValues::build(uv, opts_.value_precision);
    values_.diag = PackedTriangleValues::build(dv, opts_.value_precision);
    stats_.packed_value_bytes = values_.value_bytes();
  }
}

DispatchRows MpkPlan::dispatch_rows() const {
  return make_dispatch_rows(split_,
                            opts_.index_compress ? &packed_ : nullptr,
                            &values_, row_kernels(resolved_backend_),
                            opts_.prefetch_dist);
}

bool tuned_config_stale(const TunedConfig& cfg, index_t runtime_threads) {
  if (!cfg.valid) return false;
  if (!backend_available(cfg.backend)) return true;
  return cfg.tuned_threads != runtime_threads;
}

bool MpkPlan::supports(ExecPath path) const {
  switch (path) {
    case ExecPath::kDefault:
    case ExecPath::kSerial:
      return true;
    case ExecPath::kBarrier:
      return opts_.parallel && (level_plan() ? !level_sweep_schedule_.empty()
                                             : !schedule_.block_ptr.empty());
    case ExecPath::kEngine:
      return level_plan() && use_level_engine();
  }
  return false;
}

bool MpkPlan::level_engine(ExecPath path) const {
  return path == ExecPath::kEngine ||
         (path == ExecPath::kDefault && use_level_engine());
}

template <class Rows, class X0, class TI, class Emit>
void MpkPlan::level_sweep(const Rows& rows, const X0& x0, int k,
                          SweepWorkspace<TI>& ws, Emit&& emit, ExecPath path,
                          RunControl* ctl) const {
  const LevelSweepSchedule& ls = level_sweep_schedule_;
  if (path == ExecPath::kSerial)
    fbmpk_level_sweep_rows<double, TI>(split_, ls, rows, x0, k, ws.fallback,
                                       emit, nullptr, /*serial=*/true);
  else if (level_engine(path))
    fbmpk_level_engine_sweep_rows<double, TI>(split_, ls, rows, x0, k, ws,
                                              emit, opts_.sweep.pin_threads,
                                              ctl);
  else
    fbmpk_level_sweep_rows<double, TI>(split_, ls, rows, x0, k, ws.fallback,
                                       emit, ctl);
}

template <class Emit>
void MpkPlan::run_sweep(std::span<const double> px, int k, Workspace& ws,
                        Emit&& emit, ExecPath path, RunControl* ctl) const {
  if (level_plan()) {
    // Scheduler-polymorphic rungs: kEngine forces the level engine,
    // kBarrier the barrier stage walk (both poll ctl at stage
    // boundaries), kSerial the one-thread stage walk — the renumbered
    // storage has no natural sweep order. kDefault follows the plan's
    // sync option.
    if (use_dispatch())
      level_sweep(dispatch_rows(), px, k, ws.sweep, emit, path, ctl);
    else
      level_sweep(ScalarRows<double>(split_), px, k, ws.sweep, emit, path,
                  ctl);
    return;
  }
  const bool serial = path == ExecPath::kSerial || !opts_.parallel;
  if (use_dispatch()) {
    const DispatchRows rows = dispatch_rows();
    if (serial)
      fbmpk_sweep_btb_fast(split_, rows, px, k, ws.fb, emit);
    else
      fbmpk_parallel_sweep_rows(split_, schedule_, rows, px, k, ws.fb, emit,
                                ctl);
  } else if (serial) {
    fbmpk_sweep(split_, px, k, ws.fb, emit, opts_.variant);
  } else {
    fbmpk_parallel_sweep(split_, schedule_, px, k, ws.fb, emit, ctl);
  }
}

void MpkPlan::run_power_path(std::span<const double> px, int k,
                             std::span<double> py, Workspace& ws,
                             ExecPath path, RunControl* ctl) const {
  if (k == 0) {
    std::copy(px.begin(), px.end(), py.begin());
    return;
  }
  double* yp = py.data();
  auto emit = [&](int p, index_t i, double v) {
    if (p == k) yp[i] = v;
  };
  if (ctl == nullptr || (path != ExecPath::kSerial && opts_.parallel)) {
    run_sweep(px, k, ws, emit, path, ctl);
    return;
  }
  // Serial sweeps run outside any parallel region, so cancellation can
  // safely unwind via a typed Error from the emit wrapper. The token is
  // polled per row (one relaxed load); the heartbeat / stall checkpoint
  // fires once per k boundary.
  int last_p = 0;
  run_sweep(px, k, ws, [&](int p, index_t i, double v) {
    if (p != last_p) {
      last_p = p;
      (void)ctl->checkpoint();
    }
    if (ctl->cancelled())
      throw Error(ctl->cancel_reason(), "serial sweep cancelled");
    emit(p, i, v);
  }, ExecPath::kSerial);
}

Status MpkPlan::try_power(std::span<const double> x, int k,
                          std::span<double> y, Workspace& ws, ExecPath path,
                          RunControl* ctl) const {
  try {
    FBMPK_CHECK(x.size() == static_cast<std::size_t>(n_));
    FBMPK_CHECK(y.size() == static_cast<std::size_t>(n_));
    FBMPK_CHECK(k >= 0);
    FBMPK_CHECK_CODE(supports(path), ErrorCode::kUnsupported,
                     "plan does not support the forced execution path "
                     "(see MpkPlan::supports)");
    if (ctl != nullptr && ctl->cancelled())
      return Status(FBMPK_MAKE_ERROR(ctl->cancel_reason(),
                                     "request cancelled before execution"));
    FBMPK_TSPAN_ARGS(kSweep, "plan.try_power", {.k = k});

    if (perm_.is_identity()) {
      run_power_path(x, k, y, ws, path, ctl);
    } else {
      ws.px.resize(x.size());
      ws.py.resize(y.size());
      permute_vector<double>(perm_, x, ws.px);
      run_power_path(ws.px, k, ws.py, ws, path, ctl);
      if (ctl == nullptr || !ctl->cancelled())
        unpermute_vector<double>(perm_, ws.py, y);
    }
    if (ctl != nullptr && ctl->cancelled())
      return Status(FBMPK_MAKE_ERROR(ctl->cancel_reason(),
                                     "sweep cancelled at a stage boundary"));
    return Status();
  } catch (const Error& e) {
    return Status(e);
  } catch (const std::bad_alloc&) {
    return Status(FBMPK_MAKE_ERROR(ErrorCode::kResourceLimit,
                                   "allocation failed during sweep"));
  }
}

/// One B-wide chunk of a batched power: gather lanes straight from the
/// request buffers (permutation applied inline), run the pipeline over
/// Pack<double, B> iterates, scatter each lane's final power straight
/// back to its ys[b]. Workspaces are per-call: the batched iterate
/// array is a different shape per B, so sharing the plan Workspace
/// would thrash its single-vector buffers.
template <int B>
Status MpkPlan::run_power_batch_chunk(const double* const* xs, int k,
                                      double* const* ys, ExecPath path,
                                      RunControl* ctl) const {
  using P = Pack<double, B>;
  const Permutation* perm = perm_.is_identity() ? nullptr : &perm_;
  const BatchX0<B> x0{xs, perm, n_};
  auto emit = [&](int p, index_t i, const P& v) {
    if (p != k) return;
    const index_t dst = perm == nullptr ? i : perm->old_of(i);
    for (int b = 0; b < B; ++b) ys[b][dst] = v.v[b];
  };

  // Serial batched sweeps unwind cancellation via a typed Error from
  // this emit wrapper, as in run_power_path.
  int last_p = 0;
  auto cemit = [&](int p, index_t i, const P& v) {
    if (ctl != nullptr) {
      if (p != last_p) {
        last_p = p;
        (void)ctl->checkpoint();
      }
      if (ctl->cancelled())
        throw Error(ctl->cancel_reason(), "batched serial sweep cancelled");
    }
    emit(p, i, v);
  };
  const auto batch_rows = [&](auto&& f) {
    if (use_dispatch())
      f(make_batch_dispatch_rows<B>(
          split_, opts_.index_compress ? &packed_ : nullptr, &values_,
          batch_row_kernels(resolved_backend_), opts_.prefetch_dist));
    else
      f(BatchScalarRows<B>(split_));
  };

  if (level_plan()) {
    SweepWorkspace<P> swws;
    if (level_engine(path)) {
      // Per-call workspace: skip the NUMA warm pass (the matrix arrays
      // are typically resident from prior single-vector runs, and the
      // head stage first-touches xy regardless).
      swws.resize(n_);
      swws.warmed = true;
    }
    batch_rows([&](const auto& rows) {
      if (path == ExecPath::kSerial)
        level_sweep(rows, x0, k, swws, cemit, path, nullptr);
      else
        level_sweep(rows, x0, k, swws, emit, path, ctl);
    });
    return Status();
  }

  FbWorkspace<P> fbws;
  batch_rows([&](const auto& rows) {
    if (path == ExecPath::kSerial || !opts_.parallel)
      fbmpk_sweep_btb_fast(split_, rows, x0, k, fbws, cemit);
    else
      fbmpk_parallel_sweep_rows(split_, schedule_, rows, x0, k, fbws, emit,
                                ctl);
  });
  return Status();
}

Status MpkPlan::try_power_batch(const double* const* xs, index_t nvec, int k,
                                double* const* ys, ExecPath path,
                                RunControl* ctl) const {
  try {
    FBMPK_CHECK(xs != nullptr && ys != nullptr);
    FBMPK_CHECK(nvec >= 1);
    FBMPK_CHECK(k >= 0);
    FBMPK_CHECK_CODE(supports(path), ErrorCode::kUnsupported,
                     "plan does not support the forced execution path "
                     "(see MpkPlan::supports)");
    if (ctl != nullptr && ctl->cancelled())
      return Status(FBMPK_MAKE_ERROR(ctl->cancel_reason(),
                                     "request cancelled before execution"));
    FBMPK_TSPAN_ARGS(kSweep, "plan.try_power_batch", {.k = k});

    if (k == 0) {
      for (index_t b = 0; b < nvec; ++b)
        std::copy(xs[b], xs[b] + n_, ys[b]);
      return Status();
    }

    index_t done = 0;
    while (done < nvec) {
      const index_t rem = nvec - done;
      Status st;
      index_t width;
      if (rem >= 8) {
        width = 8;
        st = run_power_batch_chunk<8>(xs + done, k, ys + done, path, ctl);
      } else if (rem >= 4) {
        width = 4;
        st = run_power_batch_chunk<4>(xs + done, k, ys + done, path, ctl);
      } else if (rem >= 2) {
        width = 2;
        st = run_power_batch_chunk<2>(xs + done, k, ys + done, path, ctl);
      } else {
        // Width 1 stays on the batch kernels (not try_power): the
        // per-lane contract is "bitwise equal to the exact scalar
        // accumulation order", and the single-vector path of a SIMD
        // backend uses its own reduction shape.
        width = 1;
        st = run_power_batch_chunk<1>(xs + done, k, ys + done, path, ctl);
      }
      if (!st.ok()) return st;
      if (ctl != nullptr && ctl->cancelled())
        return Status(FBMPK_MAKE_ERROR(
            ctl->cancel_reason(), "batched sweep cancelled at a chunk boundary"));
      done += width;
    }
    return Status();
  } catch (const Error& e) {
    return Status(e);
  } catch (const std::bad_alloc&) {
    return Status(FBMPK_MAKE_ERROR(ErrorCode::kResourceLimit,
                                   "allocation failed during batched sweep"));
  }
}

void MpkPlan::run_power_all(std::span<const double> px, int k,
                            std::span<double> pout, Workspace& ws) const {
  const auto n = px.size();
  std::copy(px.begin(), px.end(), pout.begin());
  if (k == 0) return;
  double* op = pout.data();
  run_sweep(px, k, ws, [&](int p, index_t i, double v) {
    op[static_cast<std::size_t>(p) * n + i] = v;
  });
}

void MpkPlan::run_polynomial(std::span<const double> coeffs,
                             std::span<const double> px,
                             std::span<double> py, Workspace& ws) const {
  const int k = static_cast<int>(coeffs.size()) - 1;
  for (std::size_t i = 0; i < py.size(); ++i) py[i] = coeffs[0] * px[i];
  if (k == 0) return;
  double* yp = py.data();
  const double* cp = coeffs.data();
  run_sweep(px, k, ws, [&](int p, index_t i, double v) { yp[i] += cp[p] * v; });
}

void MpkPlan::power(std::span<const double> x, int k, std::span<double> y,
                    Workspace& ws) const {
  FBMPK_CHECK(x.size() == static_cast<std::size_t>(n_));
  FBMPK_CHECK(y.size() == static_cast<std::size_t>(n_));
  FBMPK_CHECK(k >= 0);
  FBMPK_TSPAN_ARGS(kSweep, "plan.power", {.k = k});
  FBMPK_TCOUNT("plan.power_calls", 1);
  if (perm_.is_identity()) {
    run_power_path(x, k, y, ws, ExecPath::kDefault, nullptr);
    return;
  }
  ws.px.resize(x.size());
  ws.py.resize(y.size());
  permute_vector<double>(perm_, x, ws.px);
  run_power_path(ws.px, k, ws.py, ws, ExecPath::kDefault, nullptr);
  unpermute_vector<double>(perm_, ws.py, y);
}

void MpkPlan::power(std::span<const double> x, int k, std::span<double> y) {
  power(x, k, y, *internal_ws_);
}

void MpkPlan::power_all(std::span<const double> x, int k,
                        std::span<double> out, Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  FBMPK_CHECK(x.size() == n);
  FBMPK_CHECK(out.size() == n * static_cast<std::size_t>(k + 1));
  FBMPK_CHECK(k >= 0);
  FBMPK_TSPAN_ARGS(kSweep, "plan.power_all", {.k = k});
  FBMPK_TCOUNT("plan.power_all_calls", 1);
  if (perm_.is_identity()) {
    run_power_all(x, k, out, ws);
    return;
  }
  ws.px.resize(n);
  ws.py.resize(n * static_cast<std::size_t>(k + 1));
  permute_vector<double>(perm_, x, ws.px);
  std::span<double> pout(ws.py);
  run_power_all(std::span<const double>(ws.px), k, pout, ws);
  for (int p = 0; p <= k; ++p)
    unpermute_vector<double>(perm_,
                             pout.subspan(static_cast<std::size_t>(p) * n, n),
                             out.subspan(static_cast<std::size_t>(p) * n, n));
}

void MpkPlan::power_all(std::span<const double> x, int k,
                        std::span<double> out) {
  power_all(x, k, out, *internal_ws_);
}

void MpkPlan::polynomial(std::span<const double> coeffs,
                         std::span<const double> x, std::span<double> y,
                         Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  FBMPK_CHECK(x.size() == n && y.size() == n);
  FBMPK_CHECK(!coeffs.empty());
  FBMPK_TSPAN_ARGS(kSweep, "plan.polynomial",
                   {.k = static_cast<int>(coeffs.size()) - 1});
  if (perm_.is_identity()) {
    run_polynomial(coeffs, x, y, ws);
    return;
  }
  ws.px.resize(n);
  ws.py.resize(n);
  permute_vector<double>(perm_, x, ws.px);
  std::span<double> py(ws.py);
  run_polynomial(coeffs, std::span<const double>(ws.px), py, ws);
  unpermute_vector<double>(perm_, py, y);
}

void MpkPlan::polynomial(std::span<const double> coeffs,
                         std::span<const double> x, std::span<double> y) {
  polynomial(coeffs, x, y, *internal_ws_);
}

KernelStatus MpkPlan::recurrence(std::span<const RecurrenceStep<double>> steps,
                                 std::span<const double> x,
                                 std::span<double> y, Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  FBMPK_CHECK(x.size() == n && y.size() == n);
  FBMPK_CHECK(!steps.empty());
  const int k = static_cast<int>(steps.size());

  // Breakdown detection up front: a non-finite input or coefficient
  // would NaN-poison every row of the sweep.
  for (const auto& st : steps)
    if (!std::isfinite(st.alpha) || !std::isfinite(st.beta) ||
        !std::isfinite(st.gamma))
      return KernelStatus::breakdown(-1, "non-finite recurrence coefficient");
  if (auto st = check_finite(x, "non-finite input vector"); !st.ok)
    return st;

  auto run = [&](std::span<const double> px, std::span<double> py) {
    double* yp = py.data();
    auto emit = [&](int p, index_t i, double v) {
      if (p == k) yp[i] = v;
    };
    if (level_plan()) {
      // No parallel recurrence kernel for the level scheduler: one
      // thread walks the stages (identical numerics).
      const LevelSweepSchedule& ls = level_sweep_schedule_;
      fbmpk_recurrence_sweep(
          split_, steps, px, ws.fb, emit,
          [&](auto&& f) { ls.fwd.for_each_row(ls.num_threads, f); },
          [&](auto&& f) { ls.bwd.for_each_row(ls.num_threads, f); },
          kWalkUp);  // backward slots list their rows upward
    } else if (opts_.parallel) {
      fbmpk_recurrence_parallel_sweep(split_, schedule_, steps, px, ws.fb,
                                      emit);
    } else {
      fbmpk_recurrence_sweep(split_, steps, px, ws.fb, emit);
    }
  };

  if (perm_.is_identity()) {
    run(x, y);
  } else {
    ws.px.resize(n);
    ws.py.resize(n);
    permute_vector<double>(perm_, x, ws.px);
    run(std::span<const double>(ws.px), std::span<double>(ws.py));
    unpermute_vector<double>(perm_, std::span<const double>(ws.py), y);
  }
  return check_finite(std::span<const double>(y.data(), y.size()),
                      "non-finite recurrence iterate");
}

KernelStatus MpkPlan::recurrence(std::span<const RecurrenceStep<double>> steps,
                                 std::span<const double> x,
                                 std::span<double> y) {
  return recurrence(steps, x, y, *internal_ws_);
}

void MpkPlan::polynomial(std::span<const std::complex<double>> coeffs,
                         std::span<const double> x,
                         std::span<std::complex<double>> y,
                         Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  FBMPK_CHECK(x.size() == n && y.size() == n);
  FBMPK_CHECK(!coeffs.empty());
  const int k = static_cast<int>(coeffs.size()) - 1;

  // Work in the permuted space; y is accumulated there and unpermuted
  // at the end (permuting complex vectors directly avoids a third
  // scratch array).
  std::span<const double> px = x;
  if (!perm_.is_identity()) {
    ws.px.resize(n);
    permute_vector<double>(perm_, x, ws.px);
    px = std::span<const double>(ws.px);
  }

  std::vector<std::complex<double>> acc(n);
  for (std::size_t i = 0; i < n; ++i) acc[i] = coeffs[0] * px[i];
  if (k >= 1) {
    const std::complex<double>* cp = coeffs.data();
    run_sweep(px, k, ws,
              [&](int p, index_t i, double v) { acc[i] += cp[p] * v; });
  }

  if (perm_.is_identity())
    std::copy(acc.begin(), acc.end(), y.begin());
  else
    unpermute_vector<std::complex<double>>(
        perm_, std::span<const std::complex<double>>(acc), y);
}

void MpkPlan::polynomial(std::span<const std::complex<double>> coeffs,
                         std::span<const double> x,
                         std::span<std::complex<double>> y) {
  polynomial(coeffs, x, y, *internal_ws_);
}

}  // namespace fbmpk
