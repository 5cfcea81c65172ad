// MpkService — a resilient, long-lived serving front end over MpkPlan
// (docs/SERVICE.md).
//
// A request is "compute y = A^k x with a deadline". The service owns:
//
//  - an LRU PlanCache keyed by matrix fingerprint, so repeated
//    requests against the same matrix amortize the one-off build the
//    paper assumes is offline (§V-F);
//  - admission control: a bounded queue; submissions past the bound
//    are rejected immediately with ErrorCode::kOverloaded instead of
//    growing latency without bound;
//  - per-request deadlines: a watchdog thread cancels overdue
//    requests through a cooperative RunControl token polled at sweep
//    color/k boundaries (kTimeout), and quarantines a plan whose
//    sweep stops making progress past a grace period;
//  - a graceful-degradation ladder: p2p engine -> barrier kernel ->
//    serial sweep, entered at the plan's first supported rung
//    (MpkPlan::supports) and stepped on resource failures, plus an opt-in
//    fp32 -> fp64 plan rebuild when precision certification fails.
//    The rung is sticky per cached plan, and every transition is
//    recorded (service.degrade.* counters + a kService span);
//  - optional request coalescing (max_batch > 1): queued requests
//    against the same matrix fingerprint and k are gathered under a
//    short window into one multi-vector sweep (try_power_batch), with
//    deadlines/cancellation/certification still applied per request.
//
// Every request terminates with either a correct result or a typed
// error — never a crash, hang, or silent wrong answer. All rungs
// issue identical per-row kernels, so for exact-mode plans a degraded
// result is bitwise identical to the serial oracle.
//
// Thread-safety: all public methods are safe to call concurrently.
// The caller's x/y spans are copied in at submit and out at wait, so
// a force-completed (timed-out) request can never write through a
// span the caller has abandoned.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/plan.hpp"
#include "service/batcher.hpp"
#include "service/metrics_window.hpp"
#include "service/plan_cache.hpp"
#include "sparse/csr.hpp"
#include "support/error.hpp"

namespace fbmpk::service {

/// Degradation-ladder rungs, fastest first. Each maps onto one
/// ExecPath; kSerial always succeeds (modulo cancellation). Only level
/// plans with point-to-point sync have the engine rung, and only
/// parallel plans the barrier rung.
enum class Rung : int { kEngine = 0, kBarrier = 1, kSerial = 2 };

const char* rung_name(Rung r);

struct ServiceOptions {
  std::size_t cache_capacity = 8;  ///< distinct plans kept hydrated
  std::size_t max_queue = 64;      ///< admission bound (queued, not active)
  int workers = 2;                 ///< request worker threads
  /// Deadline applied when a request doesn't carry its own; <= 0
  /// means no default deadline.
  double default_deadline_seconds = 0.0;
  double watchdog_interval_seconds = 0.005;
  /// A cancelled request whose sweep heartbeat stays frozen this long
  /// is declared stuck: its ticket is force-completed (kTimeout) and
  /// the plan is quarantined so the wedged schedule is never reused.
  double stuck_grace_seconds = 2.0;
  bool allow_degradation = true;  ///< step the ladder on rung failure
  /// Rebuild the plan at fp64 value storage and retry once when a
  /// reduced-precision result fails certification (non-finite output).
  bool rebuild_fp64_on_cert_failure = false;
  /// Request coalescing (docs/SERVICE.md): a worker that pops a
  /// request gathers queued requests with the same matrix fingerprint
  /// and k into one multi-vector sweep, up to max_batch wide. 1 (the
  /// default) disables coalescing entirely.
  std::size_t max_batch = 1;
  /// How long a worker holding a lone request waits for same-key
  /// company before sweeping it alone. 0 batches only what is already
  /// queued at pop time.
  double batch_window_us = 0.0;
  PlanOptions plan;  ///< construction options for cache misses
};

struct RequestOptions {
  /// Deadline for this request; < 0 uses the service default, 0
  /// disables even the default.
  double deadline_seconds = -1.0;
};

/// A matrix registered once with the service: an immutable, shared
/// CsrMatrix plus its fingerprint, hashed when the handle is made.
/// Requests that carry a handle skip the per-request hash, and each
/// request holds its own reference, so the caller may drop every copy
/// of the handle right after submit(). Copying a handle copies one
/// shared_ptr; the fingerprint is never recomputed.
class MatrixHandle {
 public:
  /// Hashes `*a` once. A null `a` fails with kInvalidMatrix.
  explicit MatrixHandle(std::shared_ptr<const CsrMatrix<double>> a);

  const CsrMatrix<double>& matrix() const { return *matrix_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  friend class MpkService;
  /// Non-owning wrap of an already-hashed matrix: the one-shot
  /// submit(const CsrMatrix&), whose caller keeps `a` alive.
  MatrixHandle(const CsrMatrix<double>& a, std::uint64_t key);

  std::shared_ptr<const CsrMatrix<double>> matrix_;
  std::uint64_t fingerprint_ = 0;
};

/// Outcome of one request, returned by wait()/power().
struct RequestResult {
  Status status;                 ///< ok, or typed kTimeout/kOverloaded/...
  Rung rung = Rung::kEngine;     ///< ladder rung that produced the result
  int degrade_steps = 0;         ///< ladder transitions taken this request
  bool cache_hit = false;        ///< plan came from the cache
  bool precision_rebuilt = false;  ///< fp64 rebuild path was taken
};

/// Monotonic service counters (snapshot; independent of telemetry).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< finished with any status
  std::uint64_t rejected_overload = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t degrade_engine_to_barrier = 0;
  std::uint64_t degrade_barrier_to_serial = 0;
  std::uint64_t precision_rebuilds = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t batches = 0;  ///< multi-member batched sweeps run
  /// Requests that were served inside a multi-member batch.
  std::uint64_t batch_coalesced = 0;
  CacheStats cache;
};

class MpkService {
 public:
  using RequestId = std::uint64_t;

  explicit MpkService(ServiceOptions opts = {});
  /// Cancels queued work, waits for in-flight requests, joins threads.
  ~MpkService();

  MpkService(const MpkService&) = delete;
  MpkService& operator=(const MpkService&) = delete;

  /// Enqueue y = a^k x. Copies `x` and holds a reference to `a`, so
  /// the request keeps the matrix alive on its own (the plan build
  /// reads it on a cache miss). Never throws and never blocks on the
  /// queue: an over-bound submission is completed immediately with
  /// kOverloaded.
  RequestId submit(const MatrixHandle& a, std::span<const double> x, int k,
                   RequestOptions ropts = {});

  /// One-shot form: hashes `a` on the caller's thread, then submits it
  /// as a non-owning handle, so `a` must stay alive until the request
  /// completes. Prefer a MatrixHandle for a matrix served repeatedly.
  RequestId submit(const CsrMatrix<double>& a, std::span<const double> x,
                   int k, RequestOptions ropts = {});

  /// Block until `id` completes; copies the result into `y` when the
  /// status is ok (`y` must hold rows() doubles). An unknown or
  /// already-waited id fails with kInternal.
  RequestResult wait(RequestId id, std::span<double> y);

  /// Request cooperative cancellation (kCancelled). Returns false when
  /// the request already completed or is unknown.
  bool cancel(RequestId id);

  /// Blocking convenience: submit + wait.
  RequestResult power(const MatrixHandle& a, std::span<const double> x,
                      int k, std::span<double> y, RequestOptions ropts = {});
  RequestResult power(const CsrMatrix<double>& a, std::span<const double> x,
                      int k, std::span<double> y, RequestOptions ropts = {});

  ServiceStats stats() const;
  /// Sliding-window SLO snapshot over the last `horizon_seconds`
  /// (docs/OBSERVABILITY.md): latency quantiles, queue depth, batch
  /// width, cache hit ratio, rung occupancy.
  ServiceMetricsWindow window(double horizon_seconds = 60.0) const;
  PlanCache& cache() { return cache_; }
  const ServiceOptions& options() const { return opts_; }

 private:
  struct Request;
  struct BatchExec;

  /// Shared tail of both submit() forms: builds the request around
  /// `a`, then queues it or completes it at once with a typed error.
  RequestId admit(RequestId id, MatrixHandle a, std::span<const double> x,
                  int k, RequestOptions ropts);
  void worker_loop();
  void watchdog_loop();
  void execute(const std::shared_ptr<Request>& req);
  void execute_batch(const std::vector<std::shared_ptr<Request>>& batch);
  Status run_rung(const std::shared_ptr<Request>& req, const MpkPlan& plan,
                  Rung rung, MpkPlan::Workspace& ws);
  /// The degradation ladder shared by single and batched execution:
  /// runs `run` from the entry's sticky rung, or from the plan's first
  /// supported rung if that is lower, stepping down (and sticking the
  /// entry there) on each genuine failure. Stops on success,
  /// cancellation, timeout, the serial floor, or any failure when
  /// degradation is off. Reports the last rung run and the steps taken.
  Status run_ladder(PlanCache::Entry& entry,
                    const std::function<Status(Rung)>& run, Rung& rung,
                    int& steps);
  /// Post-sweep precision certification for one request's result, with
  /// the optional one-shot fp64 rebuild. Updates st in place; sets
  /// precision_rebuilt when the rebuild path ran.
  void certify_result(const std::shared_ptr<Request>& req, Status& st,
                      Rung rung, MpkPlan::Workspace& ws,
                      bool& precision_rebuilt);
  void complete(const std::shared_ptr<Request>& req, Status status,
                Rung rung, int degrade_steps, bool cache_hit,
                bool precision_rebuilt);

  ServiceOptions opts_;
  PlanCache cache_;
  Coalescer coalescer_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;     ///< workers: queue became non-empty
  std::condition_variable watchdog_cv_;  ///< watchdog: interval tick/shutdown
  std::deque<std::shared_ptr<Request>> queue_;
  std::unordered_map<RequestId, std::shared_ptr<Request>> active_;
  /// In-flight batched sweeps, scanned by the watchdog: member
  /// RunControls stay per-request, but the sweep itself runs under the
  /// batch's own control token.
  std::vector<std::shared_ptr<BatchExec>> batches_;
  bool shutdown_ = false;
  /// Atomic so submit() can mint the id (and open the request's trace
  /// context) before taking mu_.
  std::atomic<std::uint64_t> next_id_{1};

  /// Sliding-window SLO aggregation (own internal mutex; never held
  /// together with mu_ in a path that could invert the order).
  mutable MetricsWindows windows_;

  std::vector<std::thread> workers_;
  std::thread watchdog_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> degrade_engine_to_barrier_{0};
  std::atomic<std::uint64_t> degrade_barrier_to_serial_{0};
  std::atomic<std::uint64_t> precision_rebuilds_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> batches_run_{0};
  std::atomic<std::uint64_t> batch_coalesced_{0};
};

}  // namespace fbmpk::service
