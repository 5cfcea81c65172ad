#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <new>
#include <utility>

#include "support/fault_inject.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Anomaly hook (docs/OBSERVABILITY.md): when flight dumps are armed,
/// snapshot the in-memory rings around this event. `reason` must be a
/// string literal; failures (budget exhausted, I/O) are swallowed —
/// an observer must never affect serving.
void maybe_flight_dump(const char* reason) {
  if (!telemetry::flight_dumps_armed()) return;
  (void)telemetry::trigger_flight_dump(reason);
}

/// Cache key salt for the fp64 rebuild of a reduced-precision plan —
/// the rebuilt plan is a distinct cache entry for the same matrix.
constexpr std::uint64_t kFp64RebuildSalt = 0x9E3779B97F4A7C15ull;

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

ExecPath exec_path(Rung rung) {
  switch (rung) {
    case Rung::kEngine: return ExecPath::kEngine;
    case Rung::kBarrier: return ExecPath::kBarrier;
    case Rung::kSerial: break;
  }
  return ExecPath::kSerial;
}

bool all_finite(std::span<const double> v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

const char* rung_name(Rung r) {
  switch (r) {
    case Rung::kEngine: return "engine";
    case Rung::kBarrier: return "barrier";
    case Rung::kSerial: return "serial";
  }
  return "unknown";
}

/// One in-flight request. The ticket (m/cv/done) follows
/// first-completer-wins: a worker finishing a sweep and a watchdog
/// force-completing a stuck request race benignly — the second
/// complete() is a no-op. The service copies x in at submit and the
/// caller copies y out at wait, so no caller memory is ever touched
/// after a force-completion.
struct MpkService::Request {
  explicit Request(MatrixHandle a) : matrix(std::move(a)) {}

  RequestId id = 0;
  const MatrixHandle matrix;
  AlignedVector<double> x;
  AlignedVector<double> y;
  int k = 1;
  double deadline_seconds = 0.0;  ///< resolved; <= 0 means none
  Clock::time_point deadline_tp{};
  Clock::time_point submitted_at{};  ///< for windowed latency

  RunControl ctl;
  std::atomic<bool> running{false};  ///< a worker is executing the sweep
  std::atomic<bool> done_flag{false};

  // Watchdog-private stuck-detection state (only the watchdog thread
  // reads or writes these).
  bool cancel_seen = false;
  std::uint64_t last_progress = 0;
  Clock::time_point last_progress_change{};

  // Completion ticket.
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  RequestResult result;

  std::uint64_t key() const { return matrix.fingerprint(); }
  BatchKey batch_key() const { return BatchKey{key(), k}; }
};

/// One in-flight batched sweep. The sweep runs under the batch's own
/// RunControl (members' tokens cannot cancel each other's work), and
/// the watchdog scans batches_ the same way it scans single requests:
/// all members dead -> cancel the batch; a cancelled batch whose
/// progress freezes past the grace period -> quarantine + force-complete
/// every member.
struct MpkService::BatchExec {
  std::vector<std::shared_ptr<Request>> members;
  std::uint64_t key = 0;
  RunControl ctl;

  // Watchdog-private stuck-detection state.
  bool cancel_seen = false;
  std::uint64_t last_progress = 0;
  Clock::time_point last_progress_change{};
};

MpkService::MpkService(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_capacity),
      coalescer_(Coalescer::Options{opts_.max_batch, opts_.batch_window_us}) {
  const int n_workers = std::max(1, opts_.workers);
  workers_.reserve(static_cast<std::size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

MpkService::~MpkService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Queued requests complete with kCancelled when a worker pops
    // them; running sweeps see the token at the next stage boundary.
    for (auto& [id, req] : active_)
      req->ctl.request_cancel(ErrorCode::kCancelled);
    for (auto& b : batches_) b->ctl.request_cancel(ErrorCode::kCancelled);
  }
  queue_cv_.notify_all();
  watchdog_cv_.notify_all();
  for (auto& w : workers_) w.join();
  watchdog_.join();
}

MatrixHandle::MatrixHandle(std::shared_ptr<const CsrMatrix<double>> a)
    : matrix_(std::move(a)) {
  FBMPK_CHECK_CODE(matrix_ != nullptr, ErrorCode::kInvalidMatrix,
                   "MatrixHandle needs a matrix");
  fingerprint_ = service::fingerprint(*matrix_);
}

MatrixHandle::MatrixHandle(const CsrMatrix<double>& a, std::uint64_t key)
    : matrix_(std::shared_ptr<const CsrMatrix<double>>(), &a),
      fingerprint_(key) {}

MpkService::RequestId MpkService::submit(const MatrixHandle& a,
                                         std::span<const double> x, int k,
                                         RequestOptions ropts) {
  // Mint the id up front (atomic, no lock) so the request's trace
  // context exists from the very first span.
  const RequestId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  FBMPK_TSPAN_ARGS(kService, "service.submit",
                   {.k = k, .req = static_cast<std::int64_t>(id)});
  return admit(id, a, x, k, ropts);
}

MpkService::RequestId MpkService::submit(const CsrMatrix<double>& a,
                                         std::span<const double> x, int k,
                                         RequestOptions ropts) {
  const RequestId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  FBMPK_TSPAN_ARGS(kService, "service.submit",
                   {.k = k, .req = static_cast<std::int64_t>(id)});
  std::uint64_t key = 0;
  {
    FBMPK_TSPAN_ARGS(kService, "service.fingerprint",
                     {.req = static_cast<std::int64_t>(id)});
    key = fingerprint(a);
  }
  return admit(id, MatrixHandle(a, key), x, k, ropts);
}

MpkService::RequestId MpkService::admit(RequestId id, MatrixHandle a,
                                        std::span<const double> x, int k,
                                        RequestOptions ropts) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const index_t rows = a.matrix().rows();
  auto req = std::make_shared<Request>(std::move(a));
  req->id = id;
  req->x.assign(x.begin(), x.end());
  req->y.resize(static_cast<std::size_t>(rows), 0.0);
  req->k = k;
  req->deadline_seconds = ropts.deadline_seconds < 0.0
                              ? opts_.default_deadline_seconds
                              : ropts.deadline_seconds;
  req->submitted_at = Clock::now();
  if (req->deadline_seconds > 0.0)
    req->deadline_tp =
        req->submitted_at + seconds_to_duration(req->deadline_seconds);

  Status early;  // non-ok -> reject without queueing
  if (x.size() != static_cast<std::size_t>(rows))
    early = Error(ErrorCode::kInvalidMatrix,
                  "request vector length does not match the matrix");

  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.emplace(id, req);
    if (early.ok()) {
      if (shutdown_) {
        early = Error(ErrorCode::kCancelled, "service is shutting down");
      } else if (queue_.size() >= opts_.max_queue ||
                 fault::should_fire(fault::Point::kQueueFull)) {
        early = Error(ErrorCode::kOverloaded,
                      "request queue is full (admission control)");
      } else {
        queue_.push_back(req);
        queued = true;
      }
    }
  }
  if (queued) {
    FBMPK_TCOUNT("service.admit", 1);
    queue_cv_.notify_one();
  } else {
    if (early.code() == ErrorCode::kOverloaded) {
      rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      FBMPK_TCOUNT("service.reject_overload", 1);
    }
    complete(req, early, Rung::kSerial, 0, false, false);
  }
  return id;
}

RequestResult MpkService::wait(RequestId id, std::span<double> y) {
  std::shared_ptr<Request> req;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(id);
    if (it == active_.end()) {
      RequestResult r;
      r.status = Error(ErrorCode::kInternal, "unknown request id");
      return r;
    }
    req = it->second;
  }
  RequestResult result;
  {
    std::unique_lock<std::mutex> lock(req->m);
    req->cv.wait(lock, [&] { return req->done; });
    result = req->result;
  }
  if (result.status.ok()) {
    if (y.size() >= req->y.size()) {
      std::copy(req->y.begin(), req->y.end(), y.begin());
    } else {
      result.status = Error(ErrorCode::kInternal,
                            "output span shorter than the matrix dimension");
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  active_.erase(id);
  return result;
}

bool MpkService::cancel(RequestId id) {
  std::shared_ptr<Request> req;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = active_.find(id);
    if (it == active_.end()) return false;
    req = it->second;
  }
  if (req->done_flag.load(std::memory_order_acquire)) return false;
  req->ctl.request_cancel(ErrorCode::kCancelled);
  return true;
}

RequestResult MpkService::power(const MatrixHandle& a,
                                std::span<const double> x, int k,
                                std::span<double> y, RequestOptions ropts) {
  return wait(submit(a, x, k, ropts), y);
}

RequestResult MpkService::power(const CsrMatrix<double>& a,
                                std::span<const double> x, int k,
                                std::span<double> y, RequestOptions ropts) {
  return wait(submit(a, x, k, ropts), y);
}

void MpkService::worker_loop() {
  const auto key_of = [](const Request& r) { return r.batch_key(); };
  for (;;) {
    std::vector<std::shared_ptr<Request>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (coalescer_.enabled()) {
        const BatchKey key = batch.front()->batch_key();
        coalescer_.drain_matches(queue_, key, key_of, batch);
        // Hold the seed for the gather window, waking on every submit
        // to pull in same-key arrivals. A window of 0 batches only
        // what was already queued.
        const auto gather_end = coalescer_.gather_deadline(Clock::now());
        while (!shutdown_ && batch.size() < coalescer_.max_batch()) {
          if (!queue_cv_.wait_until(lock, gather_end, [&] {
                return shutdown_ ||
                       coalescer_.has_match(queue_, key, key_of);
              }))
            break;  // window expired without same-key company
          coalescer_.drain_matches(queue_, key, key_of, batch);
        }
        // The gather consumed wakeups that may have been meant for
        // other workers: pass the baton if work remains queued.
        if (!queue_.empty()) queue_cv_.notify_one();
      }
    }
    if (coalescer_.enabled()) {
      record_batch_telemetry(batch.size());
      windows_.record_batch_width(batch.size());
    }
    if (batch.size() == 1)
      execute(batch.front());
    else
      execute_batch(batch);
  }
}

Status MpkService::run_rung(const std::shared_ptr<Request>& req,
                            const MpkPlan& plan, Rung rung,
                            MpkPlan::Workspace& ws) {
  // Parallel rungs allocate sweep scratch; the kAlloc fault point
  // stands in for that allocation failing under memory pressure. The
  // serial rung deliberately skips the check so the ladder always has
  // a floor.
  if (rung != Rung::kSerial && fault::should_fire(fault::Point::kAlloc))
    return Error(ErrorCode::kResourceLimit,
                 "injected sweep-scratch allocation failure");
  FBMPK_TSPAN_ARGS(kService, "service.rung",
                   {.k = req->k, .req = static_cast<std::int64_t>(req->id)});
  return plan.try_power(std::span<const double>(req->x.data(), req->x.size()),
                        req->k, std::span<double>(req->y.data(), req->y.size()),
                        ws, exec_path(rung), &req->ctl);
}

Status MpkService::run_ladder(PlanCache::Entry& entry,
                              const std::function<Status(Rung)>& run,
                              Rung& rung, int& steps) {
  // A rung the plan does not have is skipped, never tried: trying it
  // would blame it for the next injected or real failure.
  const auto supported_from = [&](int i) {
    while (!entry.plan->supports(exec_path(static_cast<Rung>(i)))) ++i;
    return i;
  };
  int rung_i = supported_from(
      std::clamp(entry.degrade_level.load(std::memory_order_acquire), 0,
                 static_cast<int>(Rung::kSerial)));
  steps = 0;
  Status st;
  for (;;) {
    rung = static_cast<Rung>(rung_i);
    st = run(rung);
    if (st.ok()) break;
    const ErrorCode code = st.code();
    // Cancellation is final — degrading a cancelled request would
    // burn more time the caller already gave up on.
    if (code == ErrorCode::kCancelled || code == ErrorCode::kTimeout) break;
    if (rung == Rung::kSerial || !opts_.allow_degradation) break;
    // Genuine rung failure: step the ladder, stick the plan to the
    // lower rung, and record the transition.
    FBMPK_TSPAN(kService, "service.degrade");
    if (rung == Rung::kEngine) {
      degrade_engine_to_barrier_.fetch_add(1, std::memory_order_relaxed);
      FBMPK_TCOUNT("service.degrade.engine_to_barrier", 1);
    } else {
      degrade_barrier_to_serial_.fetch_add(1, std::memory_order_relaxed);
      FBMPK_TCOUNT("service.degrade.barrier_to_serial", 1);
    }
    maybe_flight_dump("degrade");
    ++steps;
    rung_i = supported_from(rung_i + 1);
    entry.degrade_level.store(rung_i, std::memory_order_release);
  }
  return st;
}

void MpkService::execute(const std::shared_ptr<Request>& req) {
  FBMPK_TSPAN_ARGS(kService, "service.request",
                   {.k = req->k, .req = static_cast<std::int64_t>(req->id)});
  if (req->ctl.cancelled()) {
    complete(req, Error(req->ctl.cancel_reason(),
                        "request cancelled before execution"),
             Rung::kSerial, 0, false, false);
    return;
  }

  bool built = false;
  std::shared_ptr<PlanCache::Entry> entry;
  try {
    entry = cache_.acquire(req->key(), [&] {
      built = true;
      return MpkPlan::build(req->matrix.matrix(), opts_.plan);
    });
  } catch (const Error& e) {
    complete(req, Status(e), Rung::kSerial, 0, false, false);
    return;
  } catch (const std::bad_alloc&) {
    complete(req,
             Error(ErrorCode::kResourceLimit, "plan build ran out of memory"),
             Rung::kSerial, 0, false, false);
    return;
  }
  const bool cache_hit = !built;
  windows_.record_cache(cache_hit);

  req->running.store(true, std::memory_order_release);
  MpkPlan::Workspace ws;
  Rung rung_used = Rung::kSerial;
  int steps = 0;
  bool precision_rebuilt = false;
  Status st = run_ladder(
      *entry,
      [&](Rung rung) { return run_rung(req, *entry->plan, rung, ws); },
      rung_used, steps);

  certify_result(req, st, rung_used, ws, precision_rebuilt);
  req->running.store(false, std::memory_order_release);
  complete(req, st, rung_used, steps, cache_hit, precision_rebuilt);
  if (!st.ok() && st.code() == ErrorCode::kTimeout)
    maybe_flight_dump("timeout");
}

void MpkService::certify_result(const std::shared_ptr<Request>& req,
                                Status& st, Rung rung,
                                MpkPlan::Workspace& ws,
                                bool& precision_rebuilt) {
  if (!st.ok()) return;
  // Precision certification: a reduced-precision (or injected-fault)
  // result that is not finite everywhere must not be served.
  const bool cert_ok = all_finite(req->y) &&
                       !fault::should_fire(fault::Point::kPrecisionCertify);
  if (cert_ok) return;
  if (!opts_.rebuild_fp64_on_cert_failure) {
    st = Error(ErrorCode::kNumericalBreakdown,
               "result failed precision certification (non-finite "
               "output); enable rebuild_fp64_on_cert_failure to retry "
               "at full precision");
    return;
  }
  FBMPK_TSPAN(kService, "service.precision_rebuild");
  precision_rebuilds_.fetch_add(1, std::memory_order_relaxed);
  FBMPK_TCOUNT("service.degrade.precision_rebuild", 1);
  precision_rebuilt = true;
  try {
    PlanOptions fp64_opts = opts_.plan;
    fp64_opts.value_precision = ValuePrecision::kFp64;
    auto rebuilt = cache_.acquire(req->key() ^ kFp64RebuildSalt, [&] {
      return MpkPlan::build(req->matrix.matrix(), fp64_opts);
    });
    st = run_rung(req, *rebuilt->plan, rung, ws);
    if (st.ok() && !all_finite(req->y))
      st = Error(ErrorCode::kNumericalBreakdown,
                 "result failed precision certification after the "
                 "fp64 rebuild");
  } catch (const Error& e) {
    st = Status(e);
  } catch (const std::bad_alloc&) {
    st = Error(ErrorCode::kResourceLimit,
               "fp64 rebuild ran out of memory");
  }
}

void MpkService::execute_batch(
    const std::vector<std::shared_ptr<Request>>& batch) {
  // Mask members cancelled (or past deadline) while gathering: they
  // complete with their own reason before the sweep, never poisoning
  // the rest of the batch.
  std::vector<std::shared_ptr<Request>> live;
  live.reserve(batch.size());
  for (const auto& req : batch) {
    if (req->ctl.cancelled()) {
      complete(req,
               Error(req->ctl.cancel_reason(),
                     "request cancelled before execution"),
               Rung::kSerial, 0, false, false);
    } else {
      live.push_back(req);
    }
  }
  if (live.empty()) return;
  if (live.size() == 1) {
    execute(live.front());
    return;
  }

  const auto& seed = live.front();
  FBMPK_TSPAN_ARGS(kService, "service.batch",
                   {.k = seed->k, .req = static_cast<std::int64_t>(seed->id)});
  // One near-zero span per member so every coalesced request's trace
  // context reaches the batched sweep (flow events stitch them).
  for (const auto& r : live) {
    FBMPK_TSPAN_ARGS(kService, "service.batch_member",
                     {.k = r->k, .req = static_cast<std::int64_t>(r->id)});
    (void)r;
  }
  batches_run_.fetch_add(1, std::memory_order_relaxed);
  batch_coalesced_.fetch_add(live.size(), std::memory_order_relaxed);

  bool built = false;
  std::shared_ptr<PlanCache::Entry> entry;
  try {
    entry = cache_.acquire(seed->key(), [&] {
      built = true;
      return MpkPlan::build(seed->matrix.matrix(), opts_.plan);
    });
  } catch (const Error& e) {
    for (const auto& r : live)
      complete(r, Status(e), Rung::kSerial, 0, false, false);
    return;
  } catch (const std::bad_alloc&) {
    const Status oom(Error(ErrorCode::kResourceLimit,
                           "plan build ran out of memory"));
    for (const auto& r : live)
      complete(r, oom, Rung::kSerial, 0, false, false);
    return;
  }
  const bool cache_hit = !built;
  windows_.record_cache(cache_hit);

  // The sweep runs under the batch's own control token; member tokens
  // stay per-request (deadline/cancel of one member must not abort the
  // others' work). Members keep running == false so the per-request
  // stuck detector cannot fire on them — the watchdog tracks the batch
  // token instead, via batches_.
  auto exec = std::make_shared<BatchExec>();
  exec->members = live;
  exec->key = seed->key();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A destructor that already swept active_ will not see this batch:
    // carry the shutdown cancellation over at registration.
    if (shutdown_) exec->ctl.request_cancel(ErrorCode::kCancelled);
    batches_.push_back(exec);
  }

  // No staging copies: lanes gather straight from the request input
  // buffers and scatter straight into the request result buffers.
  std::vector<const double*> xs;
  std::vector<double*> ys;
  xs.reserve(live.size());
  ys.reserve(live.size());
  for (const auto& r : live) {
    xs.push_back(r->x.data());
    ys.push_back(r->y.data());
  }

  // Same degradation ladder as the single-vector path, shared sticky
  // rung on the cached plan.
  Rung rung_used = Rung::kSerial;
  int steps = 0;
  const Status st = run_ladder(
      *entry,
      [&](Rung rung) -> Status {
        if (rung != Rung::kSerial &&
            fault::should_fire(fault::Point::kAlloc))
          return Error(ErrorCode::kResourceLimit,
                       "injected sweep-scratch allocation failure");
        FBMPK_TSPAN_ARGS(kService, "service.batch_rung", {.k = seed->k});
        return entry->plan->try_power_batch(
            xs.data(), static_cast<index_t>(xs.size()), seed->k, ys.data(),
            exec_path(rung), &exec->ctl);
      },
      rung_used, steps);

  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(batches_, exec);
  }

  // Per-member finalize: a member cancelled mid-sweep keeps its own
  // reason (its lane's work was shared, but its answer was abandoned);
  // survivors get the batch status, then per-member certification with
  // the usual single-vector fp64 rebuild path.
  MpkPlan::Workspace ws;
  bool any_timeout = false;
  for (const auto& r : live) {
    if (r->done_flag.load(std::memory_order_acquire))
      continue;  // force-completed by the watchdog
    Status mst = st;
    bool rebuilt = false;
    if (r->ctl.cancelled()) {
      mst = Error(r->ctl.cancel_reason(),
                  "request cancelled during a batched sweep");
    } else if (mst.ok()) {
      // The rebuild rerun is a real sweep under the member's token:
      // surface it to the stuck detector like any single run.
      r->running.store(true, std::memory_order_release);
      certify_result(r, mst, rung_used, ws, rebuilt);
      r->running.store(false, std::memory_order_release);
    }
    if (!mst.ok() && mst.code() == ErrorCode::kTimeout) any_timeout = true;
    complete(r, mst, rung_used, steps, cache_hit, rebuilt);
  }
  if (any_timeout) maybe_flight_dump("timeout");
}

void MpkService::complete(const std::shared_ptr<Request>& req, Status status,
                          Rung rung, int degrade_steps, bool cache_hit,
                          bool precision_rebuilt) {
  const bool ok = status.ok();
  const ErrorCode code = ok ? ErrorCode::kInternal : status.code();
  {
    std::lock_guard<std::mutex> lock(req->m);
    if (req->done) return;  // first completer wins
    // Windowed SLO accounting happens exactly once, on the winning
    // completion (MetricsWindows has its own lock; never takes mu_).
    const auto lat = Clock::now() - req->submitted_at;
    const std::uint64_t latency_ns = static_cast<std::uint64_t>(std::max<
        std::int64_t>(
        0,
        std::chrono::duration_cast<std::chrono::nanoseconds>(lat).count()));
    windows_.record_request(latency_ns, static_cast<int>(rung), ok, code);
    FBMPK_THIST(kRequestLatency, latency_ns);
    req->result.status = std::move(status);
    req->result.rung = rung;
    req->result.degrade_steps = degrade_steps;
    req->result.cache_hit = cache_hit;
    req->result.precision_rebuilt = precision_rebuilt;
    // Counters update before `done` becomes visible so a caller that
    // reads stats() right after wait() returns sees this completion.
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (code == ErrorCode::kTimeout) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      FBMPK_TCOUNT("service.timeout", 1);
    } else if (code == ErrorCode::kCancelled) {
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      FBMPK_TCOUNT("service.cancelled", 1);
    }
    req->done = true;
  }
  req->done_flag.store(true, std::memory_order_release);
  req->cv.notify_all();
}

void MpkService::watchdog_loop() {
  const auto interval =
      seconds_to_duration(std::max(1e-4, opts_.watchdog_interval_seconds));
  const auto grace =
      seconds_to_duration(std::max(1e-3, opts_.stuck_grace_seconds));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, interval);
    if (shutdown_) return;
    const auto now = Clock::now();
    windows_.sample_queue_depth(queue_.size());
    // Quarantine dumps are deferred past both scans: the dump does
    // I/O and takes the telemetry registry lock, neither of which
    // belongs under mu_.
    const char* pending_dump = nullptr;
    for (auto& [id, req] : active_) {
      if (req->done_flag.load(std::memory_order_acquire)) continue;
      if (req->deadline_seconds > 0.0 && now >= req->deadline_tp)
        req->ctl.request_cancel(ErrorCode::kTimeout);
      if (!req->running.load(std::memory_order_acquire) ||
          !req->ctl.cancelled())
        continue;
      // A cancelled request should unwind within a few stage
      // boundaries. Track the sweep heartbeat: if it freezes past the
      // grace period the plan's schedule is wedged — force-complete
      // the ticket and quarantine the plan.
      const std::uint64_t p =
          req->ctl.progress.load(std::memory_order_relaxed);
      if (!req->cancel_seen || p != req->last_progress) {
        req->cancel_seen = true;
        req->last_progress = p;
        req->last_progress_change = now;
        continue;
      }
      if (now - req->last_progress_change < grace) continue;
      if (cache_.quarantine(req->key())) {
        quarantines_.fetch_add(1, std::memory_order_relaxed);
        FBMPK_TCOUNT("service.quarantine", 1);
        pending_dump = "quarantine";
      }
      complete(req,
               Error(req->ctl.cancel_reason(),
                     "sweep made no progress past the grace period; plan "
                     "quarantined"),
               Rung::kSerial, 0, false, false);
    }
    for (auto& exec : batches_) {
      // A batch whose members are all dead (cancelled or already
      // force-completed) has nobody left to serve: cancel the sweep.
      bool any_live = false;
      for (const auto& r : exec->members)
        if (!r->done_flag.load(std::memory_order_acquire) &&
            !r->ctl.cancelled()) {
          any_live = true;
          break;
        }
      if (!any_live) exec->ctl.request_cancel(ErrorCode::kCancelled);
      if (!exec->ctl.cancelled()) continue;
      // Same frozen-heartbeat rule as single requests, on the batch
      // token: no progress past the grace period means the schedule is
      // wedged — quarantine the plan and force-complete every member.
      const std::uint64_t p =
          exec->ctl.progress.load(std::memory_order_relaxed);
      if (!exec->cancel_seen || p != exec->last_progress) {
        exec->cancel_seen = true;
        exec->last_progress = p;
        exec->last_progress_change = now;
        continue;
      }
      if (now - exec->last_progress_change < grace) continue;
      if (cache_.quarantine(exec->key)) {
        quarantines_.fetch_add(1, std::memory_order_relaxed);
        FBMPK_TCOUNT("service.quarantine", 1);
        pending_dump = "quarantine";
      }
      for (const auto& r : exec->members)
        complete(r,
                 Error(r->ctl.cancelled() ? r->ctl.cancel_reason()
                                          : exec->ctl.cancel_reason(),
                       "batched sweep made no progress past the grace "
                       "period; plan quarantined"),
                 Rung::kSerial, 0, false, false);
    }
    if (pending_dump != nullptr) {
      lock.unlock();
      maybe_flight_dump(pending_dump);
      lock.lock();
    }
  }
}

ServiceStats MpkService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.degrade_engine_to_barrier =
      degrade_engine_to_barrier_.load(std::memory_order_relaxed);
  s.degrade_barrier_to_serial =
      degrade_barrier_to_serial_.load(std::memory_order_relaxed);
  s.precision_rebuilds = precision_rebuilds_.load(std::memory_order_relaxed);
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.batches = batches_run_.load(std::memory_order_relaxed);
  s.batch_coalesced = batch_coalesced_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

ServiceMetricsWindow MpkService::window(double horizon_seconds) const {
  return windows_.snapshot(horizon_seconds);
}

}  // namespace fbmpk::service
