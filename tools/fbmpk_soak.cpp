// fbmpk_soak — randomized fault-injection soak for the serving layer
// (docs/SERVICE.md, CI `soak` job).
//
//   fbmpk_soak [--seconds=60] [--seed=1] [--clients=4] [--workers=3]
//              [--max-batch=4] [--batch-window-us=200]
//
// A chaos thread continuously arms random runtime fault points
// (allocation failure, sweep stalls, queue-full, precision-certification
// failure) while client threads
// hammer one MpkService with mixed deadlines and explicit cancels.
// Clients periodically fire same-(matrix, k) bursts so the request
// coalescer (enabled by default here) batches under chaos too. A
// seed-chosen half of the requests, bursts included, go through
// registered MatrixHandles and the rest through the one-shot
// submit(const CsrMatrix&), so both entry points soak.
// The pass criteria are the serving layer's whole contract:
//
//   1. no crash, hang, or deadlock (the binary exits before the
//      driver's timeout);
//   2. every request finishes with either a correct result — bitwise
//      identical to a precomputed serial oracle; all soak plans are
//      exact-mode — or a typed error from the allowed set
//      (kTimeout/kOverloaded/kCancelled/kResourceLimit/
//      kNumericalBreakdown);
//   3. the service's own accounting balances: submitted == completed.
//
// Exit code 0 on success, 1 with a diagnostic on any violation.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/stencil.hpp"
#include "service/metrics_window.hpp"
#include "service/service.hpp"
#include "support/fault_inject.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

using namespace fbmpk;
using Clock = std::chrono::steady_clock;

namespace {

/// Self-contained xorshift so the soak schedule reproduces from the
/// seed alone, independent of library RNG changes.
struct Rng64 {
  std::uint64_t s;
  explicit Rng64(std::uint64_t seed) : s(seed ? seed : 0x9e3779b9ull) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dULL;
  }
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }
};

double flag(int argc, char** argv, const char* name, double fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return std::atof(argv[i] + prefix.size());
  return fallback;
}

std::string string_flag(int argc, char** argv, const char* name,
                        const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0)
      return std::string(argv[i] + prefix.size());
  return fallback;
}

bool allowed_error(ErrorCode c) {
  return c == ErrorCode::kTimeout || c == ErrorCode::kOverloaded ||
         c == ErrorCode::kCancelled || c == ErrorCode::kResourceLimit ||
         c == ErrorCode::kNumericalBreakdown;
}

}  // namespace

int main(int argc, char** argv) {
  const double seconds = flag(argc, argv, "seconds", 60.0);
  const auto seed = static_cast<std::uint64_t>(flag(argc, argv, "seed", 1.0));
  const int clients = static_cast<int>(flag(argc, argv, "clients", 4.0));
  const int workers = static_cast<int>(flag(argc, argv, "workers", 3.0));
  const auto max_batch =
      static_cast<std::size_t>(flag(argc, argv, "max-batch", 4.0));
  const double batch_window_us = flag(argc, argv, "batch-window-us", 200.0);
  // --flight-dir arms the always-on flight recorder: the chaos the soak
  // injects (timeouts, quarantines, degradations) should then leave
  // automatic dumps behind (docs/OBSERVABILITY.md, CI validates them).
  const std::string flight_dir = string_flag(argc, argv, "flight-dir", "");
  if (!flight_dir.empty()) {
    fbmpk::telemetry::FlightDumpOptions fopts;
    fopts.dir = flight_dir;
    fopts.max_dumps =
        static_cast<std::size_t>(flag(argc, argv, "flight-max", 8.0));
    fbmpk::telemetry::arm_flight_dumps(fopts);
    auto& reg = fbmpk::telemetry::Registry::instance();
    reg.set_enabled(true);
    reg.set_trace_mode(fbmpk::telemetry::TraceMode::kFlightOnly);
  }
  std::printf("fbmpk_soak: %.0f s, seed %llu, %d clients, %d workers, "
              "max-batch %zu (window %.0f us)\n",
              seconds, static_cast<unsigned long long>(seed), clients,
              workers, max_batch, batch_window_us);

  std::vector<CsrMatrix<double>> mats;
  mats.push_back(gen::make_laplacian_2d(24, 24));
  mats.push_back(gen::make_laplacian_2d(32, 24));
  mats.push_back(gen::make_laplacian_2d(40, 24));

  service::ServiceOptions sopts;
  sopts.workers = workers;
  sopts.cache_capacity = 2;  // below the working set: constant churn
  sopts.max_queue = 16;
  sopts.watchdog_interval_seconds = 0.002;
  sopts.stuck_grace_seconds = 0.25;
  sopts.rebuild_fp64_on_cert_failure = true;
  sopts.max_batch = max_batch;
  sopts.batch_window_us = batch_window_us;
  // Level plans with point-to-point sync: the engine rung live.
  sopts.plan.scheduler = Scheduler::kLevels;
  sopts.plan.reorder = false;
  sopts.plan.sweep.sync = SweepSync::kPointToPoint;

  constexpr int kMaxK = 5;
  // Serial oracles per (matrix, k): every rung of the ladder must
  // reproduce these bitwise (exact-mode plans).
  std::vector<std::vector<AlignedVector<double>>> oracle(mats.size());
  std::vector<AlignedVector<double>> inputs;
  {
    Rng64 rng(seed ^ 0xABCDEF);
    for (std::size_t m = 0; m < mats.size(); ++m) {
      const auto n = static_cast<std::size_t>(mats[m].rows());
      AlignedVector<double> x(n);
      for (auto& v : x)
        v = 2.0 * (static_cast<double>(rng.next() >> 11) * 0x1.0p-53) - 1.0;
      inputs.push_back(std::move(x));
      MpkPlan plan = MpkPlan::build(mats[m], sopts.plan);
      MpkPlan::Workspace ws;
      oracle[m].resize(kMaxK + 1);
      for (int k = 1; k <= kMaxK; ++k) {
        oracle[m][static_cast<std::size_t>(k)].resize(n);
        const Status st = plan.try_power(
            inputs[m], k, oracle[m][static_cast<std::size_t>(k)], ws,
            ExecPath::kSerial);
        if (!st.ok()) {
          std::fprintf(stderr, "oracle build failed: %s\n",
                       st.error().what());
          return 1;
        }
      }
    }
  }

  // Registered once; their fingerprints must equal the one-shot hash, or
  // the two entry points would split one matrix over two cache entries.
  std::vector<service::MatrixHandle> handles;
  for (const auto& m : mats) {
    handles.emplace_back(std::make_shared<const CsrMatrix<double>>(m));
    if (handles.back().fingerprint() != service::fingerprint(m)) {
      std::fprintf(stderr, "handle fingerprint differs from the one-shot\n");
      return 1;
    }
  }

  service::MpkService svc(sopts);
  std::atomic<bool> stop{false};
  std::atomic<long long> by_handle{0};
  std::atomic<long long> one_shot{0};
  std::atomic<long long> ok_count{0};
  std::atomic<long long> typed_count{0};
  std::atomic<long long> violations{0};

  // Chaos thread: every few milliseconds arm a random fault point with
  // a small budget. Budgets are small so the system keeps oscillating
  // between faulted and healthy instead of pinning one failure mode.
  std::thread chaos([&] {
    Rng64 rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      auto& inj = fault::Injector::instance();
      switch (rng.range(0, 3)) {
        case 0:
          inj.arm(fault::Point::kAlloc, static_cast<long long>(rng.range(1, 3)));
          break;
        case 1:
          inj.arm(fault::Point::kSweepStall,
                  static_cast<long long>(rng.range(1, 2)),
                  static_cast<long long>(rng.range(0, 3)),
                  static_cast<long long>(rng.range(5, 60)));
          break;
        case 2:
          inj.arm(fault::Point::kQueueFull,
                  static_cast<long long>(rng.range(1, 2)));
          break;
        case 3:
          inj.arm(fault::Point::kPrecisionCertify, 1);
          break;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(rng.range(5, 40)));
    }
    fault::Injector::instance().reset();
  });

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      Rng64 rng(seed + 1000ull * static_cast<std::uint64_t>(c + 1));
      const auto check = [&](const service::RequestResult& r,
                             const AlignedVector<double>& y, std::size_t m,
                             int k) {
        if (r.status.ok()) {
          ok_count.fetch_add(1);
          const auto& want = oracle[m][static_cast<std::size_t>(k)];
          if (std::memcmp(y.data(), want.data(),
                          want.size() * sizeof(double)) != 0) {
            violations.fetch_add(1);
            std::fprintf(stderr,
                         "VIOLATION: rung %s result differs from serial "
                         "oracle (matrix %zu, k %d)\n",
                         service::rung_name(r.rung), m, k);
          }
        } else {
          typed_count.fetch_add(1);
          if (!allowed_error(r.status.code())) {
            violations.fetch_add(1);
            std::fprintf(stderr, "VIOLATION: unexpected error code %s: %s\n",
                         error_code_name(r.status.code()),
                         r.status.error().what());
          }
        }
      };
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t m = rng.next() % mats.size();
        const int k = static_cast<int>(rng.range(1, kMaxK));
        service::RequestOptions ropts;
        switch (rng.range(0, 3)) {
          case 0: ropts.deadline_seconds = 0.0; break;   // none
          case 1: ropts.deadline_seconds = 0.03; break;  // tight
          default: ropts.deadline_seconds = 0.5; break;  // generous
        }
        const bool use_handle = rng.range(0, 1) == 1;
        const auto submit = [&] {
          (use_handle ? by_handle : one_shot).fetch_add(1);
          return use_handle ? svc.submit(handles[m], inputs[m], k, ropts)
                            : svc.submit(mats[m], inputs[m], k, ropts);
        };
        if (rng.range(0, 7) == 0) {
          // Same-fingerprint burst: submit several identical (matrix,
          // k) requests back to back so the coalescer has company to
          // gather — each lane must still match the oracle bitwise.
          constexpr int kBurst = 3;
          service::MpkService::RequestId ids[kBurst];
          for (auto& id : ids) id = submit();
          for (const auto id : ids) {
            AlignedVector<double> y(
                static_cast<std::size_t>(mats[m].rows()));
            check(svc.wait(id, y), y, m, k);
          }
          continue;
        }
        AlignedVector<double> y(
            static_cast<std::size_t>(mats[m].rows()));
        const auto id = submit();
        if (rng.range(0, 9) == 0) {  // occasional explicit cancel
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng.range(0, 2000)));
          svc.cancel(id);
        }
        check(svc.wait(id, y), y, m, k);
      }
    });
  }

  const auto t_end =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<long long>(seconds * 1000.0));
  while (Clock::now() < t_end)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (auto& t : pool) t.join();
  chaos.join();

  const auto st = svc.stats();
  std::printf(
      "requests: %lld ok, %lld typed errors; cache %llu/%llu hit/miss, "
      "ladder %llu+%llu steps, %llu fp64 rebuilds, %llu quarantines, "
      "%llu overload rejections, %llu timeouts, %llu cancelled\n",
      ok_count.load(), typed_count.load(),
      static_cast<unsigned long long>(st.cache.hits),
      static_cast<unsigned long long>(st.cache.misses),
      static_cast<unsigned long long>(st.degrade_engine_to_barrier),
      static_cast<unsigned long long>(st.degrade_barrier_to_serial),
      static_cast<unsigned long long>(st.precision_rebuilds),
      static_cast<unsigned long long>(st.quarantines),
      static_cast<unsigned long long>(st.rejected_overload),
      static_cast<unsigned long long>(st.timeouts),
      static_cast<unsigned long long>(st.cancelled));
  std::printf("batching: %llu batched sweeps, %llu requests coalesced\n",
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.batch_coalesced));
  std::printf("entry points: %lld by handle, %lld one-shot\n",
              by_handle.load(), one_shot.load());
  // Heartbeat contract: the sliding-window snapshot must format into
  // the one-line heartbeat and parse back — the same line `serve
  // --heartbeat` emits for operators (docs/OBSERVABILITY.md).
  {
    const service::ServiceMetricsWindow w = svc.window(60.0);
    const std::string hb = service::format_heartbeat(w);
    std::printf("%s\n", hb.c_str());
    service::ServiceMetricsWindow parsed;
    if (!service::parse_heartbeat(hb, &parsed) ||
        parsed.completed != w.completed || parsed.ok != w.ok ||
        parsed.timeouts != w.timeouts ||
        parsed.rung_completions != w.rung_completions) {
      std::fprintf(stderr,
                   "VIOLATION: heartbeat line failed to round-trip: %s\n",
                   hb.c_str());
      violations.fetch_add(1);
    }
    if (w.completed == 0) {
      std::fprintf(stderr,
                   "VIOLATION: sliding window saw no completions\n");
      violations.fetch_add(1);
    }
  }
  if (!flight_dir.empty())
    std::printf("flight: %llu dump(s) written to %s\n",
                static_cast<unsigned long long>(
                    fbmpk::telemetry::flight_dump_count()),
                flight_dir.c_str());
  if (st.submitted != st.completed) {
    std::fprintf(stderr, "VIOLATION: %llu submitted but %llu completed\n",
                 static_cast<unsigned long long>(st.submitted),
                 static_cast<unsigned long long>(st.completed));
    violations.fetch_add(1);
  }
  if (by_handle.load() == 0 || one_shot.load() == 0) {
    std::fprintf(stderr, "VIOLATION: an entry point was never exercised\n");
    violations.fetch_add(1);
  }
  if (ok_count.load() == 0) {
    std::fprintf(stderr, "VIOLATION: no request ever succeeded\n");
    violations.fetch_add(1);
  }
  if (violations.load() != 0) {
    std::fprintf(stderr, "fbmpk_soak FAILED: %lld violations\n",
                 violations.load());
    return 1;
  }
  std::printf("fbmpk_soak passed\n");
  return 0;
}
