// Shared plumbing for the figure/table reproduction binaries.
//
// Methodology (paper §IV-C): each timed case runs `--warmup` untimed
// iterations then `--reps` timed ones and reports the geometric mean.
// Preprocessing (split + ABMC) is excluded from kernel timings, as in
// the paper. Matrices come from the analogue suite (DESIGN.md §5),
// scaled by --scale.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "gen/suite.hpp"
#include "kernels/mpk_baseline.hpp"
#include "perf/harness.hpp"
#include "perf/traffic_model.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/threading.hpp"
#include "telemetry/hw_counters.hpp"

namespace fbmpk::bench {

/// Names selected by the options (default: the whole suite).
inline std::vector<std::string> selected_names(
    const perf::BenchOptions& opts) {
  return opts.matrices.empty() ? gen::suite_names() : opts.matrices;
}

/// Print the standard bench banner.
inline void print_banner(const char* what, const perf::BenchOptions& o) {
  std::printf("== FBMPK reproduction: %s ==\n", what);
  std::printf("scale=%.3g reps=%d warmup=%d blocks=%d threads=%d\n\n",
              o.scale, o.reps, o.warmup, static_cast<int>(o.num_blocks),
              o.threads > 0 ? o.threads : max_threads());
}

/// Robust per-run estimate under a noisy host: the median of reps.
/// (The paper reports the geometric mean of 50 runs on unloaded
/// machines; on a shared VM the median rejects interference spikes.)
inline double robust_seconds(const RunningStats& stats) {
  return stats.median();
}

/// Median seconds of the standard MPK baseline (A^k x, unrolled SpMV —
/// the paper's "optimized kernel" baseline). Row-parallel by default;
/// SpmvExec::kUnrolled times it on one thread, to compare against a
/// serial FBMPK run.
inline double time_baseline_mpk(const CsrMatrix<double>& a,
                                std::span<const double> x, int k,
                                const perf::BenchOptions& o,
                                SpmvExec exec = SpmvExec::kParallel) {
  const index_t n = a.rows();
  MpkWorkspace<double> ws;
  AlignedVector<double> y(static_cast<std::size_t>(n));
  return robust_seconds(perf::time_runs(
      [&] { mpk_power<double>(a, x, k, y, ws, exec); }, o.reps, o.warmup));
}

/// Median seconds of FBMPK through a prebuilt plan (kernel time only).
inline double time_plan_power(const MpkPlan& plan, MpkPlan::Workspace& ws,
                              std::span<const double> x, int k,
                              const perf::BenchOptions& o) {
  AlignedVector<double> y(static_cast<std::size_t>(plan.rows()));
  return robust_seconds(
      perf::time_runs([&] { plan.power(x, k, y, ws); }, o.reps, o.warmup));
}

/// Build a plan from bench options.
inline MpkPlan build_plan(const CsrMatrix<double>& a,
                          const perf::BenchOptions& o,
                          FbVariant variant = FbVariant::kBtb,
                          bool parallel = true, bool reorder = true) {
  PlanOptions popts;
  popts.reorder = reorder;
  popts.parallel = parallel;
  popts.variant = variant;
  popts.abmc.num_blocks = o.num_blocks;
  return MpkPlan::build(a, popts);
}

/// Deterministic x0 for every bench.
inline AlignedVector<double> bench_vector(index_t n) {
  Rng rng(0xbe7c);
  AlignedVector<double> v(static_cast<std::size_t>(n));
  for (auto& e : v) e = rng.next_double(-1.0, 1.0);
  return v;
}

// ---------------------------------------------------------------------------
// Machine-readable results: every figure bench can mirror its table
// into BENCH_<name>.json so plots and regression checks do not have to
// scrape stdout.
// ---------------------------------------------------------------------------

/// One timed case. `bytes_moved` comes from the traffic model (the
/// compulsory-DRAM estimate for the whole A^k x evaluation), `gflops`
/// from the 2·nnz·sweeps flop count over the measured time.
///
/// The traffic-validation triple (schema v3): `modeled_bytes` is the
/// analytic model's estimate for one A^k x evaluation, and
/// `measured_bytes` is what a byte-capable meter actually observed for
/// one evaluation — hardware counters (telemetry::HwCounterGroup) or
/// the cache simulator, per `measured_source`. Negative means "not
/// measured" and exports as null; the deviation percentage
/// 100·(measured-modeled)/modeled is derived at write() time.
struct JsonRecord {
  std::string matrix;
  std::string kernel;  ///< e.g. "fbmpk", "mpk", "levels_engine"
  int k = 0;
  int threads = 1;
  double seconds = 0.0;
  double gflops = 0.0;
  std::size_t bytes_moved = 0;
  double modeled_bytes = -1.0;
  double measured_bytes = -1.0;
  std::string measured_source;  ///< "imc" | "llc_proxy" | "cache_sim" | ""

  // Constructor (rather than aggregate init) so benches without a byte
  // meter can keep the seven-field v2 form without -Wmissing-field-
  // initializers noise under -Werror.
  JsonRecord(std::string matrix_, std::string kernel_, int k_, int threads_,
             double seconds_, double gflops_, std::size_t bytes_moved_,
             double modeled_bytes_ = -1.0, double measured_bytes_ = -1.0,
             std::string measured_source_ = {})
      : matrix(std::move(matrix_)),
        kernel(std::move(kernel_)),
        k(k_),
        threads(threads_),
        seconds(seconds_),
        gflops(gflops_),
        bytes_moved(bytes_moved_),
        modeled_bytes(modeled_bytes_),
        measured_bytes(measured_bytes_),
        measured_source(std::move(measured_source_)) {}
};

/// Accumulates records and writes `BENCH_<name>.json` on write() (or
/// destruction). Schema v3: a top-level object `{"schema_version": 3,
/// "records": [...]}` where each record keeps the flat stable keys of
/// v2 and adds modeled_bytes / measured_bytes / traffic_deviation_pct
/// / measured_source (null or "" when the case was not byte-metered),
/// so `jq .records` / pandas can consume it directly.
class JsonReport {
 public:
  static constexpr int kSchemaVersion = 3;

  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  ~JsonReport() {
    if (!written_) write();
  }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  void add(JsonRecord rec) { records_.push_back(std::move(rec)); }

  /// FBMPK flop rate for a measured case: both triangle sweeps touch
  /// each off-diagonal nnz once per pair plus head/tail, which is the
  /// same 2·nnz per full-matrix-equivalent sweep as standard MPK.
  static double gflops_of(const perf::MatrixShape& shape, double sweeps,
                          double seconds) {
    if (seconds <= 0.0) return 0.0;
    return 2.0 * static_cast<double>(shape.nnz) * sweeps / seconds / 1e9;
  }

  /// JSON string escaping (RFC 8259): quotes, backslashes and control
  /// characters. Matrix/kernel labels are normally plain identifiers,
  /// but a hostile --matrices flag must not produce invalid JSON.
  static std::string escape(const std::string& s) { return json_escape(s); }

  void write() {
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out.is_open()) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    out << "{\n\"schema_version\": " << kSchemaVersion << ",\n"
        << "\"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      out << "  {\"matrix\": \"" << escape(r.matrix) << "\", \"kernel\": \""
          << escape(r.kernel) << "\", \"k\": " << r.k
          << ", \"threads\": " << r.threads << ", \"seconds\": " << r.seconds
          << ", \"gflops\": " << r.gflops
          << ", \"bytes_moved\": " << r.bytes_moved << ", \"modeled_bytes\": "
          << (r.modeled_bytes >= 0 ? json_number(r.modeled_bytes) : "null")
          << ", \"measured_bytes\": "
          << (r.measured_bytes >= 0 ? json_number(r.measured_bytes) : "null")
          << ", \"traffic_deviation_pct\": ";
      if (r.measured_bytes >= 0 && r.modeled_bytes > 0) {
        out << json_number(
            100.0 * telemetry::traffic_deviation(r.measured_bytes,
                                                 r.modeled_bytes));
      } else {
        out << "null";
      }
      out << ", \"measured_source\": \"" << escape(r.measured_source) << "\"}"
          << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]\n}\n";
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
  }

 private:
  std::string name_;
  std::vector<JsonRecord> records_;
  bool written_ = false;
};

}  // namespace fbmpk::bench
