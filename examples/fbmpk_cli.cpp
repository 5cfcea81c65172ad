// fbmpk_cli — end-to-end command-line driver for the offline-
// preprocessing workflow the paper assumes (§IV-C): build a plan once,
// store it next to the matrix, reload and run it many times.
//
//   fbmpk_cli plan  --matrix=<src> --out=plan.bin [--blocks=512]
//                   [--autotune-k=5] [--backend=auto|scalar|avx2]
//                   [--index-compress] [--prefetch-dist=16]
//   fbmpk_cli info  --plan=plan.bin
//   fbmpk_cli power --plan=plan.bin --k=5 [--nvec=1] [--x=x.txt] [--out=y.txt]
//   fbmpk_cli poly  --plan=plan.bin --coeffs=1,0.5,0.25 [--x=...] [--out=...]
//
// Every command additionally accepts --telemetry=<file>[,hw]: enable the
// runtime telemetry registry, run the command, and export a Chrome-trace
// / Perfetto JSON (with the embedded fbmpkMetrics object) to <file>.
// ",hw" also samples hardware counters around the run and attaches the
// measured-vs-modeled traffic comparison (docs/OBSERVABILITY.md).
//
// <src> is either "suite:<name>[:scale]" or "file:<path.mtx>".
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/autotune.hpp"
#include "core/fbmpk.hpp"
#include "perf/traffic_model.hpp"
#include "service/metrics_window.hpp"
#include "service/service.hpp"
#include "sparse/vector_io.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/hw_counters.hpp"
#include "telemetry/metrics_http.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

using namespace fbmpk;

namespace {

using Args = std::map<std::string, std::string>;

/// Bad command-line input: main() prints it with the usage text and
/// exits 2, like a missing command.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Args parse_flags(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw UsageError("expected --flag, got " + arg);
    const auto eq = arg.find('=');
    // A bare "--flag" is a boolean switch: store "1".
    if (eq == std::string::npos)
      args.insert_or_assign(arg.substr(2), std::string("1"));
    else
      args.insert_or_assign(arg.substr(2, eq - 2), arg.substr(eq + 1));
  }
  return args;
}

std::string need(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw UsageError("missing required --" + key + "=");
  return it->second;
}

std::string get(const Args& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

/// `text`, the value of --`key`, parsed whole as a T no smaller than
/// `min`. Junk, trailing characters, overflow or a value below `min`
/// is a UsageError.
template <class T>
T parse_number(const std::string& key, const std::string& text,
               T min = std::numeric_limits<T>::lowest()) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc() || ptr != last)
    throw UsageError("--" + key + " expects a number, got '" + text + "'");
  if (v < min) {
    std::ostringstream os;
    os << "--" << key << " must be at least " << min << ", got " << text;
    throw UsageError(os.str());
  }
  return v;
}

/// `text`, the value of choice flag --`key`, parsed by the library's
/// `parse` (parse_scheduler, parse_backend, parse_precision). A name it
/// rejects is a UsageError.
template <class Parse>
auto parse_choice(const std::string& key, const std::string& text,
                  Parse parse) {
  try {
    return parse(text);
  } catch (const Error&) {
    throw UsageError("--" + key + " does not take '" + text + "'");
  }
}

/// Numeric flag --`key`, or `fallback` when absent.
template <class T>
T number(const Args& args, const std::string& key, const char* fallback,
         T min = std::numeric_limits<T>::lowest()) {
  return parse_number<T>(key, get(args, key, fallback), min);
}

// --telemetry=<file>[,hw] session: enables the registry before the
// command runs, optionally brackets it with hardware counters, and
// exports the trace afterwards. Export failures are reported as a
// nonzero exit but never throw (telemetry must not take down the run).
struct TelemetrySession {
  bool on = false;
  bool hw = false;
  std::string path;
  /// |measured-vs-modeled deviation| above this triggers a "deviation"
  /// flight dump at finish(); 0 disables the trigger.
  double flight_deviation = 0.0;
  std::unique_ptr<telemetry::HwCounterGroup> counters;
  telemetry::ExportMeta meta;

  void parse(const Args& args) {
    // --flight-dir arms the always-on flight recorder independently of
    // --telemetry: rings fill in memory, dumps land in <dir> on
    // anomalies (docs/OBSERVABILITY.md). Without a full --telemetry
    // session the registry runs in flight-only mode so a long-lived
    // serve never accumulates an unbounded event vector.
    const auto fit = args.find("flight-dir");
    if (fit != args.end()) {
      telemetry::FlightDumpOptions fopts;
      fopts.dir = fit->second;
      fopts.max_dumps = number<std::size_t>(args, "flight-max", "8");
      telemetry::arm_flight_dumps(fopts);
      telemetry::Registry::instance().set_enabled(true);
      if (args.find("telemetry") == args.end())
        telemetry::Registry::instance().set_trace_mode(
            telemetry::TraceMode::kFlightOnly);
    }
    flight_deviation = number<double>(args, "flight-deviation", "0");

    const auto it = args.find("telemetry");
    if (it == args.end()) return;
    on = true;
    path = it->second;
    const auto comma = path.find(',');
    if (comma != std::string::npos) {
      const std::string opt = path.substr(comma + 1);
      FBMPK_CHECK_MSG(opt == "hw",
                      "--telemetry only knows the ,hw option, got ," << opt);
      hw = true;
      path = path.substr(0, comma);
    }
    FBMPK_CHECK_MSG(!path.empty(), "--telemetry needs a file path");
    telemetry::Registry::instance().set_enabled(true);
    if (hw) {
      counters = std::make_unique<telemetry::HwCounterGroup>();
      meta.has_hw = true;
      meta.hw_avail = counters->availability();
      if (!counters->available())
        std::fprintf(stderr, "telemetry: hardware counters unavailable (%s)\n",
                     meta.hw_avail.detail.c_str());
      else
        counters->start();
    }
  }

  /// Attach the analytic traffic prediction for an upcoming k-power run
  /// so the export can report measured-vs-modeled deviation.
  void expect_traffic(const MpkPlan& plan, int k, int nvec = 1) {
    if (!on) return;
    const auto& split = plan.split();
    perf::MatrixShape shape;
    shape.rows = plan.rows();
    shape.diag_entries = 0;
    for (double d : split.diag)
      if (d != 0.0) ++shape.diag_entries;
    shape.nnz = split.lower.nnz() + split.upper.nnz() + shape.diag_entries;
    const double col_bytes = plan.options().index_compress
                                 ? plan.packed_index().bytes_per_nnz()
                                 : static_cast<double>(sizeof(index_t));
    meta.has_traffic = true;
    meta.traffic.k = k;
    meta.traffic.runs = 1;
    meta.traffic.modeled_bytes = static_cast<double>(
        perf::fbmpk_traffic_mixed(shape, k, col_bytes,
                                  plan.options().value_precision, nvec)
            .total());
  }

  int finish() {
    if (!on) return 0;
    if (counters && counters->available()) {
      meta.hw = counters->stop();
      if (meta.has_traffic && meta.hw.memory_bytes() >= 0) {
        meta.traffic.measured_bytes =
            static_cast<double>(meta.hw.memory_bytes());
        meta.traffic.measured_direct = meta.hw.dram_direct;
      }
    }
    // Anomaly trigger: measured traffic strayed too far from the model.
    if (flight_deviation > 0.0 && meta.has_traffic &&
        meta.traffic.measured() &&
        std::abs(meta.traffic.deviation()) > flight_deviation &&
        telemetry::flight_dumps_armed())
      (void)telemetry::trigger_flight_dump("deviation");
    const telemetry::Snapshot snap =
        telemetry::Registry::instance().snapshot();
    const Status st = telemetry::export_trace_file(path, snap, meta);
    if (!st.ok()) {
      std::fprintf(stderr, "telemetry: export failed: %s\n",
                   st.error().what());
      return 1;
    }
    std::printf("telemetry: trace written to %s (%zu events)\n", path.c_str(),
                snap.total_events());
    return 0;
  }
};

TelemetrySession g_telemetry;

CsrMatrix<double> load_matrix(const std::string& src) {
  if (src.rfind("suite:", 0) == 0) {
    const std::string rest = src.substr(6);
    const auto colon = rest.find(':');
    const std::string name =
        colon == std::string::npos ? rest : rest.substr(0, colon);
    const double scale =
        colon == std::string::npos
            ? 0.3
            : parse_number<double>("matrix", rest.substr(colon + 1));
    return gen::make_suite_matrix(name, scale).matrix;
  }
  if (src.rfind("file:", 0) == 0)
    return read_matrix_market_file(src.substr(5));
  FBMPK_CHECK_MSG(false, "matrix source must be suite:... or file:...");
  return {};
}

AlignedVector<double> load_or_make_x(const Args& args, index_t n) {
  if (args.count("x") != 0) {
    auto v = read_vector_file(args.at("x"));
    FBMPK_CHECK_MSG(v.size() == static_cast<std::size_t>(n),
                    "x has " << v.size() << " entries, matrix has " << n
                             << " rows");
    return v;
  }
  Rng rng(1);
  AlignedVector<double> v(static_cast<std::size_t>(n));
  for (auto& e : v) e = rng.next_double(-1.0, 1.0);
  return v;
}

void emit_result(const Args& args, const AlignedVector<double>& y) {
  const std::string out = get(args, "out", "");
  if (out.empty()) {
    double norm = 0.0;
    for (double v : y) norm += v * v;
    std::printf("result: n=%zu, ||y||_2 = %.12e, y[0] = %.12e\n", y.size(),
                std::sqrt(norm), y[0]);
  } else {
    write_vector_file(out, y);
    std::printf("result written to %s\n", out.c_str());
  }
}

int cmd_plan(const Args& args) {
  // Numeric flags first: a typo fails before the matrix is generated.
  PlanOptions opts;
  opts.sweep.threads = number<index_t>(args, "sweep-threads", "0", 0);
  opts.prefetch_dist = number<int>(args, "prefetch-dist", "16");
  opts.abmc.num_blocks = number<index_t>(args, "blocks", "512");
  const bool autotune = args.count("autotune-k") != 0;
  const int autotune_k =
      autotune ? parse_number<int>("autotune-k", args.at("autotune-k"), 1) : 0;
  const auto a = load_matrix(need(args, "matrix"));
  std::printf("matrix: %d rows, %d nnz\n", a.rows(), a.nnz());

  // Scheduler choice (docs/PARALLELISM.md §9). Level plans renumber by
  // thread ownership instead of the ABMC reorder, so levels implies
  // reorder off.
  opts.scheduler = parse_choice("scheduler", get(args, "scheduler", "abmc"),
                                parse_scheduler);
  if (opts.scheduler == Scheduler::kLevels) opts.reorder = false;
  const std::string sweep = get(args, "sweep", "barrier");
  if (sweep == "p2p")
    opts.sweep.sync = SweepSync::kPointToPoint;
  else if (sweep != "barrier")
    throw UsageError("--sweep must be barrier or p2p, got '" + sweep + "'");
  // Row-kernel configuration. "scalar" keeps the exact mode; anything
  // else opts into fast mode (docs/KERNELS.md).
  opts.kernel_backend = parse_choice(
      "backend", get(args, "backend", "scalar"), parse_backend);
  opts.index_compress = get(args, "index-compress", "0") != "0";
  // Value storage precision. fp64 is the exact default; fp32 narrows
  // the stored value stream while accumulating in fp64
  // (docs/KERNELS.md has the error bound).
  opts.value_precision = parse_choice(
      "precision", get(args, "precision", "fp64"), parse_precision);
  if (autotune) {
    std::printf("autotuning block count for k=%d...\n", autotune_k);
    const auto tuned = autotune_block_count(a, autotune_k);
    for (const auto& s : tuned.samples)
      std::printf("  blocks=%-5d colors=%-3d %.3f ms\n",
                  static_cast<int>(s.num_blocks),
                  static_cast<int>(s.num_colors), s.seconds * 1e3);
    opts.abmc.num_blocks = tuned.best_blocks;
    std::printf("picked %d blocks\n", static_cast<int>(tuned.best_blocks));
  }
  const MpkPlan plan = MpkPlan::build(a, opts);

  const std::string out = need(args, "out");
  save_plan_file(plan, out);
  if (plan.options().scheduler == Scheduler::kLevels)
    std::printf("plan: %s scheduler, %d fwd / %d bwd levels, built in "
                "%.1f ms, saved to %s\n",
                scheduler_name(plan.options().scheduler),
                static_cast<int>(plan.stats().num_levels_forward),
                static_cast<int>(plan.stats().num_levels_backward),
                plan.stats().build_seconds * 1e3, out.c_str());
  else
    std::printf("plan: %d blocks, %d colors, built in %.1f ms, saved to %s\n",
                static_cast<int>(plan.stats().num_blocks),
                static_cast<int>(plan.stats().num_colors),
                plan.stats().build_seconds * 1e3, out.c_str());
  std::printf("kernel: backend=%s%s, values=%s\n",
              backend_name(plan.resolved_backend()),
              plan.options().index_compress ? ", compressed indices" : "",
              precision_name(plan.options().value_precision));
  return 0;
}

int cmd_info(const Args& args) {
  const auto plan = load_plan_file(need(args, "plan"));
  const auto& st = plan.stats();
  std::printf("rows:            %d\n", plan.rows());
  std::printf("blocks / colors: %d / %d\n", static_cast<int>(st.num_blocks),
              static_cast<int>(st.num_colors));
  std::printf("storage:         %.2f MB (L+U+d)\n",
              static_cast<double>(st.storage_bytes) / (1024.0 * 1024.0));
  const bool is_levels = plan.options().scheduler == Scheduler::kLevels;
  std::printf("scheduler:       %s, parallel=%s, reorder=%s\n",
              scheduler_name(plan.options().scheduler),
              plan.options().parallel ? "yes" : "no",
              plan.options().reorder ? "yes" : "no");
  if (is_levels) {
    std::printf("levels:          %d forward / %d backward\n",
                static_cast<int>(st.num_levels_forward),
                static_cast<int>(st.num_levels_backward));
    if (!plan.level_sweep_schedule().empty())
      std::printf("level blocking:  %d fwd / %d bwd stages x %d threads\n",
                  static_cast<int>(plan.level_sweep_schedule().fwd.num_stages),
                  static_cast<int>(plan.level_sweep_schedule().bwd.num_stages),
                  static_cast<int>(plan.level_sweep_schedule().num_threads));
  }
  if (plan.options().sweep.sync == SweepSync::kPointToPoint)
    std::printf("sweep:           point-to-point, %d threads%s\n",
                static_cast<int>(plan.level_sweep_schedule().num_threads),
                plan.options().sweep.pin_threads ? ", pinned" : "");
  else
    std::printf("sweep:           barrier\n");
  std::printf("kernel:          %s (stored %s), prefetch=%d\n",
              backend_name(plan.resolved_backend()),
              backend_name(plan.options().kernel_backend),
              plan.options().prefetch_dist);
  if (plan.options().index_compress)
    std::printf("indices:         compressed, %.2f bytes/nnz sidecar "
                "(%.2f MB)\n",
                plan.packed_index().bytes_per_nnz(),
                static_cast<double>(st.packed_index_bytes) /
                    (1024.0 * 1024.0));
  else
    std::printf("indices:         plain (%zu-byte)\n", sizeof(index_t));
  if (plan.options().value_precision != ValuePrecision::kFp64)
    std::printf("values:          %s%s, %.2f MB sidecar\n",
                precision_name(plan.options().value_precision),
                plan.packed_values().lossless() ? " (lossless)" : "",
                static_cast<double>(st.packed_value_bytes) /
                    (1024.0 * 1024.0));
  else
    std::printf("values:          fp64\n");
  const TunedConfig& tuned = plan.tuned_config();
  if (tuned.valid)
    std::printf("tuned:           backend=%s, compress=%s, values=%s, "
                "%d threads%s\n",
                backend_name(tuned.backend),
                tuned.index_compress ? "yes" : "no",
                precision_name(tuned.value_precision),
                static_cast<int>(tuned.tuned_threads),
                tuned.stale ? " (STALE on this machine)" : "");
  return 0;
}

int cmd_power(const Args& args) {
  const int k = parse_number<int>("k", need(args, "k"), 0);
  const int nvec = number<int>(args, "nvec", "1", 1);
  auto plan = load_plan_file(need(args, "plan"));
  // Scheduler pin: scripted runs can assert which scheduler the loaded
  // plan persists instead of silently running the other one.
  if (args.count("scheduler") != 0) {
    const Scheduler want =
        parse_choice("scheduler", args.at("scheduler"), parse_scheduler);
    FBMPK_CHECK_CODE(plan.options().scheduler == want,
                     ErrorCode::kUnsupported,
                     "--scheduler=" << scheduler_name(want)
                                    << " but the loaded plan persists '"
                                    << scheduler_name(plan.options().scheduler)
                                    << "'");
  }
  const auto x = load_or_make_x(args, plan.rows());
  if (nvec == 1) {
    AlignedVector<double> y(x.size());
    g_telemetry.expect_traffic(plan, k);
    Timer t;
    plan.power(x, k, y);
    std::printf("A^%d x computed in %.2f ms\n", k, t.milliseconds());
    emit_result(args, y);
    return 0;
  }
  // Batched run over nvec right-hand sides: lane 0 is the loaded (or
  // default) x — its --out bytes match a --nvec=1 run — and lanes 1..
  // are deterministic variants, so the run exercises the multi-vector
  // sweep end to end.
  std::vector<AlignedVector<double>> xs(static_cast<std::size_t>(nvec));
  std::vector<AlignedVector<double>> ys(static_cast<std::size_t>(nvec));
  std::vector<const double*> xp(static_cast<std::size_t>(nvec));
  std::vector<double*> yp(static_cast<std::size_t>(nvec));
  xs[0] = x;
  for (int b = 1; b < nvec; ++b) {
    Rng rng(static_cast<std::uint64_t>(b) + 1);
    xs[static_cast<std::size_t>(b)].resize(x.size());
    for (auto& e : xs[static_cast<std::size_t>(b)])
      e = rng.next_double(-1.0, 1.0);
  }
  for (int b = 0; b < nvec; ++b) {
    ys[static_cast<std::size_t>(b)].resize(x.size());
    xp[static_cast<std::size_t>(b)] = xs[static_cast<std::size_t>(b)].data();
    yp[static_cast<std::size_t>(b)] = ys[static_cast<std::size_t>(b)].data();
  }
  g_telemetry.expect_traffic(plan, k, nvec);
  Timer t;
  const Status st = plan.try_power_batch(xp.data(),
                                         static_cast<index_t>(nvec), k,
                                         yp.data());
  st.value();  // rethrow a typed failure as the usual CLI error path
  std::printf("A^%d x computed for %d vectors in %.2f ms\n", k, nvec,
              t.milliseconds());
  emit_result(args, ys[0]);
  return 0;
}

int cmd_poly(const Args& args) {
  auto plan = load_plan_file(need(args, "plan"));
  AlignedVector<double> coeffs;
  std::stringstream ss(need(args, "coeffs"));
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) coeffs.push_back(parse_number<double>("coeffs", item));
  FBMPK_CHECK_MSG(!coeffs.empty(), "need at least one coefficient");

  const auto x = load_or_make_x(args, plan.rows());
  AlignedVector<double> y(x.size());
  g_telemetry.expect_traffic(plan, static_cast<int>(coeffs.size()) - 1);
  Timer t;
  plan.polynomial(coeffs, x, y);
  std::printf("sum of %zu terms computed in %.2f ms\n", coeffs.size(),
              t.milliseconds());
  emit_result(args, y);
  return 0;
}

// 1-based ranks of the entries of `vals` in ascending order; entries
// with a negative value (unscored / untimed) get rank 0.
std::vector<int> rank_ascending(const std::vector<double>& vals) {
  std::vector<int> idx;
  for (int i = 0; i < static_cast<int>(vals.size()); ++i)
    if (vals[static_cast<std::size_t>(i)] >= 0.0) idx.push_back(i);
  std::sort(idx.begin(), idx.end(), [&](int x, int y) {
    return vals[static_cast<std::size_t>(x)] < vals[static_cast<std::size_t>(y)];
  });
  std::vector<int> rank(vals.size(), 0);
  for (int r = 0; r < static_cast<int>(idx.size()); ++r)
    rank[static_cast<std::size_t>(idx[static_cast<std::size_t>(r)])] = r + 1;
  return rank;
}

// One table row: "<predicted MB> <oracle#>  <measured ms> <measured#>",
// where pruned candidates show "pruned" instead of a time and failed
// ones the typed error that skipped them (docs/AUTOTUNING.md).
void print_candidate_tail(double predicted_bytes, int oracle_rank,
                          double seconds, bool pruned, bool failed,
                          ErrorCode error, int measured_rank) {
  if (predicted_bytes >= 0.0)
    std::printf("%13.2f %8d", predicted_bytes / (1024.0 * 1024.0),
                oracle_rank);
  else
    std::printf("%13s %8s", "-", "-");
  if (failed)
    std::printf("  %12s %10s\n", error_code_name(error), "-");
  else if (pruned)
    std::printf("  %12s %10s\n", "pruned", "-");
  else
    std::printf("  %12.3f %10d\n", seconds * 1e3, measured_rank);
}

// autotune: run the model-guided sweeps directly (without building or
// saving a plan) and report what the oracle did. --explain prints the
// full per-candidate table: predicted DRAM bytes, oracle rank, and the
// measured time (or "pruned" / the typed error) with its rank, so
// model-vs-measurement agreement is visible at a glance.
int cmd_autotune(const Args& args) {
  const int k = number<int>(args, "k", "4", 1);
  const int reps = number<int>(args, "reps", "3", 1);
  const bool explain = get(args, "explain", "0") != "0";
  OracleOptions oracle;
  oracle.enabled = get(args, "oracle", "on") != "off";
  oracle.top_k = number<int>(args, "top-k", "2");
  const auto a = load_matrix(need(args, "matrix"));
  std::printf("matrix: %d rows, %d nnz\n", a.rows(), a.nnz());

  // Scheduler for the tuned plan: abmc / levels pin it, auto runs the
  // measured race first (docs/AUTOTUNING.md §the-scheduler-race).
  PlanOptions base;
  base.scheduler = parse_choice("scheduler", get(args, "scheduler", "abmc"),
                                parse_scheduler);
  if (base.scheduler == Scheduler::kLevels) base.reorder = false;
  if (base.scheduler == Scheduler::kAuto) {
    Timer ts;
    const SchedulerRaceResult race =
        autotune_scheduler(a, k, reps, PlanOptions{}, oracle);
    std::printf("scheduler race: picked %s (%s)", scheduler_name(race.best),
                race.measured ? "measured" : "structural");
    if (race.measured)
      std::printf(", abmc %.3f ms vs levels %.3f ms",
                  race.abmc_seconds * 1e3, race.levels_seconds * 1e3);
    std::printf(", %.1f ms total\n", ts.milliseconds());
    base.scheduler = race.best;
    if (race.best == Scheduler::kLevels) base.reorder = false;
  }

  Timer t;
  const AutotuneResult r = autotune_block_count(
      a, k, default_block_candidates(), reps, base, oracle);
  const double sweep_ms = t.milliseconds();
  std::printf("block sweep: k=%d, oracle=%s, %zu candidates, %d timed, "
              "%d pruned, %.1f ms total\n",
              k, r.oracle_used ? "on" : "off", r.samples.size(),
              static_cast<int>(r.candidates_timed),
              static_cast<int>(r.candidates_pruned), sweep_ms);
  if (explain) {
    std::vector<double> predicted, measured;
    for (const auto& s : r.samples) {
      predicted.push_back(s.predicted_bytes);
      measured.push_back((s.pruned || s.failed) ? -1.0 : s.seconds);
    }
    const auto orank = rank_ascending(predicted);
    const auto mrank = rank_ascending(measured);
    std::printf("  %6s %6s %13s %8s  %12s %10s\n", "blocks", "colors",
                "predicted MB", "oracle#", "measured ms", "measured#");
    for (std::size_t i = 0; i < r.samples.size(); ++i) {
      const auto& s = r.samples[i];
      std::printf("  %6d %6d", static_cast<int>(s.num_blocks),
                  static_cast<int>(s.num_colors));
      print_candidate_tail(s.predicted_bytes, orank[i], s.seconds, s.pruned,
                           s.failed, s.error, mrank[i]);
    }
  }
  std::printf("picked %d blocks: %.3f ms/run", static_cast<int>(r.best_blocks),
              r.best_seconds * 1e3);
  if (r.oracle_used)
    std::printf(", oracle ranked the winner #%d of the timed set",
                static_cast<int>(r.oracle_rank_of_winner));
  std::printf("\n");

  if (get(args, "kernel", "0") != "0") {
    const bool allow_fast = get(args, "allow-fast", "0") != "0";
    Timer tk;
    base.abmc.num_blocks = r.best_blocks;
    const KernelConfigResult kr =
        autotune_kernel_config(a, k, reps, base, allow_fast, oracle);
    std::printf("kernel sweep: oracle=%s, %zu candidates, %d timed, "
                "%d pruned, %.1f ms total\n",
                kr.oracle_used ? "on" : "off", kr.samples.size(),
                static_cast<int>(kr.candidates_timed),
                static_cast<int>(kr.candidates_pruned), tk.milliseconds());
    if (explain) {
      std::vector<double> predicted, measured;
      for (const auto& s : kr.samples) {
        predicted.push_back(s.predicted_bytes);
        measured.push_back((s.pruned || s.failed) ? -1.0 : s.seconds);
      }
      const auto orank = rank_ascending(predicted);
      const auto mrank = rank_ascending(measured);
      std::printf("  %-20s %13s %8s  %12s %10s\n", "config", "predicted MB",
                  "oracle#", "measured ms", "measured#");
      for (std::size_t i = 0; i < kr.samples.size(); ++i) {
        const auto& s = kr.samples[i];
        std::string label = backend_name(s.backend);
        label += "/";
        label += precision_name(s.value_precision);
        if (s.index_compress) label += "+cib";
        std::printf("  %-20s", label.c_str());
        print_candidate_tail(s.predicted_bytes, orank[i], s.seconds, s.pruned,
                             s.failed, s.error, mrank[i]);
      }
    }
    std::printf("picked %s/%s%s: %.3f ms/run",
                backend_name(kr.best_backend),
                precision_name(kr.best_value_precision),
                kr.best_index_compress ? "+cib" : "", kr.best_seconds * 1e3);
    if (kr.oracle_used)
      std::printf(", oracle ranked the winner #%d of the timed set",
                  static_cast<int>(kr.oracle_rank_of_winner));
    std::printf("\n");
  }
  return 0;
}

// serve: drive the resilient serving front end (docs/SERVICE.md) —
// concurrent clients against one MpkService, plan cache + admission
// control + degradation ladder engaged, stats printed at the end.
// With --telemetry the service.* counters land in the exported
// fbmpkMetrics block.
int cmd_serve(const Args& args) {
  const int requests = number<int>(args, "requests", "32", 0);
  const int clients = number<int>(args, "clients", "2", 0);
  const int k = number<int>(args, "k", "4", 0);

  service::ServiceOptions sopts;
  // Scheduler for cache-miss plan builds. Levels implies reorder off
  // plus the blocked p2p engine so the full degradation ladder
  // (engine -> barrier -> serial) stays populated.
  sopts.plan.scheduler = parse_choice(
      "scheduler", get(args, "scheduler", "abmc"), parse_scheduler);
  if (sopts.plan.scheduler == Scheduler::kLevels) {
    sopts.plan.reorder = false;
    sopts.plan.sweep.sync = SweepSync::kPointToPoint;
  }
  sopts.workers = number<int>(args, "workers", "2");
  sopts.cache_capacity = number<std::size_t>(args, "cache", "4");
  sopts.max_queue = number<std::size_t>(args, "queue", "16");
  sopts.default_deadline_seconds = number<double>(args, "deadline", "0");
  // Request coalescing: workers gather same-(matrix, k) requests under
  // the window into one multi-vector sweep (docs/SERVICE.md).
  sopts.max_batch = number<std::size_t>(args, "max-batch", "1");
  sopts.batch_window_us = number<double>(args, "batch-window-us", "0");

  // Live exposition (docs/OBSERVABILITY.md): an embedded Prometheus
  // endpoint (--metrics-port, 0 = ephemeral), an atomic textfile for
  // node_exporter (--metrics-textfile), and a human one-line heartbeat
  // (--heartbeat=<seconds>). All are observers: any failure warns on
  // stderr and serving continues.
  const int metrics_port = number<int>(args, "metrics-port", "-1");
  const std::string metrics_textfile = get(args, "metrics-textfile", "");
  const double metrics_interval =
      std::max(0.05, number<double>(args, "metrics-interval", "1"));
  const double heartbeat_s = number<double>(args, "heartbeat", "0");
  const double linger_s = number<double>(args, "linger", "0");

  // Registered once: every request below reuses the handle's hash.
  const service::MatrixHandle a(std::make_shared<const CsrMatrix<double>>(
      load_matrix(need(args, "matrix"))));
  service::MpkService svc(sopts);

  const auto render = [&svc] {
    auto fams = service::service_families(svc.stats(), svc.window(60.0));
    if (telemetry::Registry::instance().enabled())
      telemetry::append_registry_families(
          telemetry::Registry::instance().snapshot(), fams);
    return telemetry::prometheus_render(fams);
  };

  telemetry::MetricsHttpServer http;
  if (metrics_port >= 0) {
    const Status hs = http.start(metrics_port, render);
    if (hs.ok())
      std::printf("metrics: listening on port %d\n", http.port());
    else
      std::fprintf(stderr, "metrics: %s (serving continues)\n",
                   hs.error().what());
  }

  std::atomic<bool> stop_metrics{false};
  std::thread metrics_thread;
  if (!metrics_textfile.empty() || heartbeat_s > 0.0) {
    metrics_thread = std::thread([&] {
      using SteadyClock = std::chrono::steady_clock;
      auto next_textfile = SteadyClock::now();
      auto next_heartbeat = SteadyClock::now();
      while (!stop_metrics.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto now = SteadyClock::now();
        if (!metrics_textfile.empty() && now >= next_textfile) {
          next_textfile =
              now + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(metrics_interval));
          const Status ws =
              telemetry::write_textfile_atomic(metrics_textfile, render());
          if (!ws.ok())
            std::fprintf(stderr, "metrics: %s (serving continues)\n",
                         ws.error().what());
        }
        if (heartbeat_s > 0.0 && now >= next_heartbeat) {
          next_heartbeat =
              now + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(heartbeat_s));
          std::printf("%s\n",
                      service::format_heartbeat(svc.window(60.0)).c_str());
          std::fflush(stdout);
        }
      }
    });
  }

  const auto x = load_or_make_x(args, a.matrix().rows());
  std::atomic<int> ok{0};
  std::atomic<int> typed{0};
  Timer t;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      AlignedVector<double> y(static_cast<std::size_t>(a.matrix().rows()));
      for (int i = 0; i < requests; ++i) {
        const auto r = svc.power(a, x, k, y);
        if (r.status.ok())
          ok.fetch_add(1);
        else
          typed.fetch_add(1);
      }
    });
  }
  for (auto& th : pool) th.join();
  const double ms = t.milliseconds();

  // Keep the endpoint (and textfile refresh) alive past the burst so
  // an external scraper has a window to observe the populated metrics.
  if (linger_s > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(linger_s));
  stop_metrics.store(true, std::memory_order_relaxed);
  if (metrics_thread.joinable()) metrics_thread.join();
  http.stop();
  if (!metrics_textfile.empty()) {
    const Status ws =
        telemetry::write_textfile_atomic(metrics_textfile, render());
    if (!ws.ok())
      std::fprintf(stderr, "metrics: %s (serving continues)\n",
                   ws.error().what());
  }
  if (heartbeat_s > 0.0)
    std::printf("%s\n", service::format_heartbeat(svc.window(60.0)).c_str());

  const auto st = svc.stats();
  std::printf("served %d requests (%d clients) in %.2f ms: %d ok, %d typed "
              "errors\n",
              clients * requests, clients, ms, ok.load(), typed.load());
  std::printf("cache: %llu hits, %llu misses, %llu evictions\n",
              static_cast<unsigned long long>(st.cache.hits),
              static_cast<unsigned long long>(st.cache.misses),
              static_cast<unsigned long long>(st.cache.evictions));
  std::printf("ladder: %llu engine->barrier, %llu barrier->serial, "
              "%llu fp64 rebuilds, %llu quarantines\n",
              static_cast<unsigned long long>(st.degrade_engine_to_barrier),
              static_cast<unsigned long long>(st.degrade_barrier_to_serial),
              static_cast<unsigned long long>(st.precision_rebuilds),
              static_cast<unsigned long long>(st.quarantines));
  std::printf("admission: %llu submitted, %llu completed, %llu overload "
              "rejections, %llu timeouts, %llu cancelled\n",
              static_cast<unsigned long long>(st.submitted),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.rejected_overload),
              static_cast<unsigned long long>(st.timeouts),
              static_cast<unsigned long long>(st.cancelled));
  if (sopts.max_batch > 1)
    std::printf("batching: %llu batched sweeps, %llu requests coalesced\n",
                static_cast<unsigned long long>(st.batches),
                static_cast<unsigned long long>(st.batch_coalesced));
  return st.submitted == st.completed ? 0 : 1;
}

void print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s plan|info|power|poly|autotune|serve"
               " --flag=value ...\n"
               "  plan  --matrix=suite:pwtk|file:a.mtx --out=plan.bin"
               " [--blocks=512] [--autotune-k=5]\n"
               "        [--scheduler=abmc|levels|auto]"
               " [--sweep=barrier|p2p] [--sweep-threads=0]"
               " (p2p: level plans)\n"
               "        [--backend=auto|scalar|avx2]"
               " [--index-compress] [--prefetch-dist=16]\n"
               "        [--precision=fp64|fp32]\n"
               "  info  --plan=plan.bin\n"
               "  power --plan=plan.bin --k=5 [--nvec=1] [--x=x.txt]"
               " [--out=y.txt] [--scheduler=abmc|levels]\n"
               "  poly  --plan=plan.bin --coeffs=1,0.5 [--x=] [--out=]\n"
               "  autotune --matrix=suite:...|file:... [--k=4] [--reps=3]"
               " [--explain]\n"
               "        [--scheduler=abmc|levels|auto] [--oracle=on|off]"
               " [--top-k=2] [--kernel]\n"
               "        [--allow-fast]\n"
               "  serve --matrix=suite:...|file:... [--requests=32]"
               " [--clients=2] [--workers=2]\n"
               "        [--k=4] [--deadline=0] [--cache=4] [--queue=16]\n"
               "        [--scheduler=abmc|levels|auto]"
               " [--max-batch=1] [--batch-window-us=0]\n"
               "        [--metrics-port=9464] [--metrics-textfile=m.prom]"
               " [--metrics-interval=1]\n"
               "        [--heartbeat=0] [--linger=0]\n"
               "  any command also takes --telemetry=<file>[,hw] and\n"
               "        --flight-dir=<dir> [--flight-max=8]"
               " [--flight-deviation=0]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args = parse_flags(argc, argv, 2);
    g_telemetry.parse(args);
    int rc;
    if (cmd == "plan")
      rc = cmd_plan(args);
    else if (cmd == "info")
      rc = cmd_info(args);
    else if (cmd == "power")
      rc = cmd_power(args);
    else if (cmd == "poly")
      rc = cmd_poly(args);
    else if (cmd == "autotune")
      rc = cmd_autotune(args);
    else if (cmd == "serve")
      rc = cmd_serve(args);
    else {
      std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
      return 2;
    }
    const int trc = g_telemetry.finish();
    return rc != 0 ? rc : trc;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(argv[0]);
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
