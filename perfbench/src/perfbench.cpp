// fbmpk_perfbench: the measuring half of the end-to-end benchmark.
//
// One process runs one workload through the library's public API:
//
//   power_dram  back-to-back MpkPlan::power on a matrix far larger than
//               the LLC (ABMC plan, barrier sync)
//   power_hub   the same caller on an in-cache power-law hub graph
//               (level scheduler, point-to-point sync)
//   serve_mix   MpkService under open-loop then closed-loop load over
//               six suite-class matrices
//
// Every input comes from --seed. Every checked output is compared
// bitwise against a serial-sweep result computed before timing. The raw
// samples (per-call and per-request timestamps, counters, plan
// configuration, host facts) go to --out as JSON; run.py turns them
// into metrics.
//
// With --trace 1 the process also records its own spans around each
// layer call it makes (name, start, end, parent, request id), runs the
// timed phase once without and once with spans to measure tracing
// overhead, runs the isolated per-layer timings after the end-to-end
// phases, and writes the spans once at exit as a Chrome-trace JSON file
// (--trace-out).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "gen/kkt.hpp"
#include "gen/random_sparse.hpp"
#include "gen/stencil.hpp"
#include "kernels/mpk_baseline.hpp"
#include "perf/traffic_model.hpp"
#include "reorder/abmc.hpp"
#include "reorder/level_blocking.hpp"
#include "service/service.hpp"
#include "sparse/split.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/threading.hpp"

using namespace fbmpk;

namespace {

// ---------------------------------------------------------------------------
// Clock, arguments, JSON output
// ---------------------------------------------------------------------------

// Fixed settings. The per-workload parameters come in as flags from
// workloads.json; these hold for every workload and seed.

/// STREAM triad passes; the best one is the host's bandwidth.
constexpr int kStreamPasses = 4;
/// Set-up ends when two consecutive warm-up calls agree within 10%...
constexpr double kSettle = 0.1;
/// ...or after this many warm-up calls, whichever comes first.
constexpr int kMaxWarmup = 8;
/// serve_mix: share of --seconds given to the open phase; closed gets
/// the rest. The open phase carries two of the three serving metrics.
constexpr double kOpenShare = 0.7;
/// serve_mix: requests per block in which the Zipf mix is exact.
constexpr int kZipfBlock = 55;
/// serve_mix: x vectors per matrix (each with a precomputed result).
constexpr int kXPool = 4;
/// serve_mix: admission queue bound, well above the closed phase's
/// outstanding count, so no request is refused on this load.
constexpr std::size_t kMaxQueue = 64;
/// power_* traced runs: the closed-loop service probe's load and length.
/// The length stays inside one service window slice (kWindowSliceS).
constexpr int kProbeOutstanding = 2;
constexpr double kProbeSeconds = 3.0;
/// MpkService::window() folds whole slices of this width, aligned to
/// multiples of it on the steady clock (service/metrics_window.hpp).
constexpr double kWindowSliceS = 5.0;

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

/// Seconds since process start.
double now_s() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

Clock::time_point at(double s) {
  return kStart + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0)
        throw std::runtime_error("unexpected argument: " + a);
      a = a.substr(2);
      const auto eq = a.find('=');
      if (eq != std::string::npos) {
        kv_[a.substr(0, eq)] = a.substr(eq + 1);
      } else if (i + 1 < argc) {
        kv_[a] = argv[++i];
      } else {
        throw std::runtime_error("missing value for --" + a);
      }
    }
  }
  const std::string& s(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  double d(const std::string& key) const { return std::stod(s(key)); }
  long long i(const std::string& key) const { return std::stoll(s(key)); }
  std::vector<std::string> list(const std::string& key) const {
    std::vector<std::string> out;
    std::stringstream ss(s(key));
    for (std::string item; std::getline(ss, item, ',');) out.push_back(item);
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Flat JSON object writer; values are pre-rendered JSON fragments.
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v) {
    return raw(k, json_number(v));
  }
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + json_escape(v) + "\"");
  }
  JsonObj& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonObj& nums(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ',';
      s += json_number(v[i]);
    }
    return raw(k, s + "]");
  }
  JsonObj& raw(const std::string& k, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + json_escape(k) + "\":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<std::string>& items) {
  std::string s = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) s += ",\n";
    s += items[i];
  }
  return s + "]";
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span store. Disabled, it records nothing and a Span costs
/// two clock reads; the end-to-end phases run that way.
class Recorder {
 public:
  void set_enabled(bool on) { on_ = on; }
  bool enabled() const { return on_; }
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }

  void add(const char* name, double t0, double t1, std::uint64_t id,
           std::uint64_t parent, std::uint64_t req) {
    if (!on_) return;
    static std::atomic<int> next_tid{0};
    thread_local const int tid = next_tid.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t0, t1, id, parent, req, tid});
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds); the
  /// span id, parent span id and request id ride in args.
  void write_chrome(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Rec& r = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":\"" << json_escape(r.name)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid
          << ",\"ts\":" << json_number(r.t0 * 1e6)
          << ",\"dur\":" << json_number((r.t1 - r.t0) * 1e6)
          << ",\"args\":{\"span\":" << r.id << ",\"parent\":" << r.parent;
      if (r.req != 0) out << ",\"req\":" << r.req;
      out << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Rec {
    const char* name;
    double t0, t1;
    std::uint64_t id, parent, req;
    int tid;
  };
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
};

Recorder g_rec;

/// Scoped span; `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t parent = 0)
      : name_(name),
        parent_(parent),
        id_(g_rec.enabled() ? g_rec.next_id() : 0),
        t0_(now_s()) {}
  ~Span() { g_rec.add(name_, t0_, now_s(), id_, parent_, 0); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }
  double elapsed_ms() const { return (now_s() - t0_) * 1e3; }

 private:
  const char* name_;
  std::uint64_t parent_, id_;
  double t0_;
};

/// Median wall time of `reps` calls of f, each in its own span.
template <class F>
double median_ms(const char* name, std::uint64_t parent, int reps, F&& f) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    Span s(name, parent);
    f();
    ms.push_back(s.elapsed_ms());
  }
  return median(ms);
}

// ---------------------------------------------------------------------------
// Host facts and the STREAM-triad bandwidth probe
// ---------------------------------------------------------------------------

/// Size in bytes of the data/unified cache at `level` as cpu0's sysfs
/// reports it (sysconf as fallback); 0 when unknown.
double cache_bytes(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    std::ifstream lv(dir + "level"), ty(dir + "type"), sz(dir + "size");
    int l = 0;
    std::string type, size;
    if (!(lv >> l) || !(ty >> type) || !(sz >> size)) continue;
    if (l != level || type == "Instruction") continue;
    double v = std::stod(size);
    if (size.back() == 'K') v *= 1024.0;
    if (size.back() == 'M') v *= 1024.0 * 1024.0;
    return v;
  }
  const long v =
      sysconf(level == 2 ? _SC_LEVEL2_CACHE_SIZE : _SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<double>(v) : 0.0;
}

struct Host {
  int nproc = 1;
  double l2_mb = 0, llc_mb = 0;  ///< MiB
  double stream_gbs = 0, stream_array_mb = 0;
};

/// STREAM triad a = b + 3c over nproc threads, each array 4x the LLC,
/// first-touch initialized in parallel; best of `passes`, counting 24
/// bytes per element as STREAM does.
void stream_probe(Host& h, int passes) {
  Span span("host.stream_triad");
  const auto n = static_cast<std::size_t>(4.0 * h.llc_mb * 1024 * 1024 / 8.0);
  h.stream_array_mb = static_cast<double>(n) * 8.0 / (1024.0 * 1024.0);
  const std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const auto len = static_cast<long long>(n);
  const int t = h.nproc;
#pragma omp parallel for schedule(static) num_threads(t)
  for (long long i = 0; i < len; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 1e30;
  for (int p = 0; p < passes; ++p) {
    const double t0 = now_s();
#pragma omp parallel for schedule(static) num_threads(t)
    for (long long i = 0; i < len; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::min(best, now_s() - t0);
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("stream triad miscomputed");
  h.stream_gbs = 24.0 * static_cast<double>(n) / best / 1e9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

/// Reset the kernel's peak-RSS mark (Linux clear_refs 5) so the
/// bandwidth probe's arrays do not count against the workload. Returns
/// false when the kernel refuses.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A generator seed derived from the workload seed and a label.
std::uint64_t mix(std::uint64_t seed, const std::string& salt) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (const char c : salt)
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return SplitMix64(h).next();
}

index_t scaled(index_t base, double scale, double dims) {
  return std::max<index_t>(2, static_cast<index_t>(std::lround(
                                  base * std::pow(scale, 1.0 / dims))));
}

/// The suite analogues (gen/suite.cpp recipes), with the generator seed
/// taken from the workload seed instead of the fixed suite constants.
CsrMatrix<double> suite_matrix(const std::string& name, double scale,
                               std::uint64_t seed) {
  const std::uint64_t s = mix(seed, name);
  const auto stencil3d = [&](gen::StencilKind kind, index_t extent, int dof,
                             double dropout, bool unsym) {
    gen::BlockStencilOptions o;
    o.kind = kind;
    o.dof = dof;
    o.dropout = dropout;
    o.unsymmetric = unsym;
    o.seed = s;
    const index_t e = scaled(extent, scale, 3.0);
    return gen::make_block_stencil({e, e, e}, o);
  };
  if (name == "pwtk")
    return stencil3d(gen::StencilKind::kBox, 31, 2, 0.0, false);
  if (name == "ML_Geer")
    return stencil3d(gen::StencilKind::kBox, 26, 3, 0.08, true);
  if (name == "Hook_1498")
    return stencil3d(gen::StencilKind::kStar, 21, 6, 0.0, false);
  if (name == "G3_circuit") {
    gen::CircuitOptions o;
    o.seed = s;
    const index_t e = scaled(300, scale, 2.0);
    return gen::make_circuit_like(e, e, o);
  }
  if (name == "nlpkkt120") {
    gen::KktOptions o;
    o.seed = s;
    const index_t e = scaled(32, scale, 3.0);
    return gen::make_kkt_saddle(e, e, e, o);
  }
  if (name == "cage14") {
    gen::RandomBandedOptions o;
    o.bandwidth = 600;
    o.avg_row_nnz = 18.0;
    o.symmetric = false;
    o.seed = s;
    return gen::make_random_banded(
        std::max<index_t>(64, static_cast<index_t>(94000 * scale)), o);
  }
  throw std::runtime_error("unknown matrix: " + name);
}

std::vector<double> random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  return x;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

PlanOptions plan_options(const std::string& scheduler) {
  PlanOptions po;
  if (scheduler == "levels") {  // what `fbmpk_cli serve --scheduler=levels` builds
    po.reorder = false;
    po.scheduler = Scheduler::kLevels;
    po.sweep.sync = SweepSync::kPointToPoint;
  } else if (scheduler != "abmc") {
    throw std::runtime_error("unknown scheduler: " + scheduler);
  }
  return po;
}

std::string plan_json(const std::string& label, const CsrMatrix<double>& a,
                      const MpkPlan& p) {
  const PlanOptions& o = p.options();
  return JsonObj()
      .str("matrix", label)
      .num("rows", a.rows())
      .num("nnz", static_cast<double>(a.nnz()))
      .str("scheduler", scheduler_name(o.scheduler))
      .str("sync", o.sweep.sync == SweepSync::kPointToPoint ? "p2p" : "barrier")
      .boolean("parallel", o.parallel)
      .boolean("reorder", o.reorder)
      .num("blocks", p.stats().num_blocks)
      .num("colors", p.stats().num_colors)
      .num("levels_fwd", p.stats().num_levels_forward)
      .num("stages_fwd", p.level_sweep_schedule().fwd.num_stages)
      .num("team", max_threads())
      .str("backend", backend_name(p.resolved_backend()))
      .str("precision", precision_name(o.value_precision))
      .boolean("index_compress", o.index_compress)
      .num("storage_mb", static_cast<double>(p.stats().storage_bytes) / 1e6)
      .str();
}

// ---------------------------------------------------------------------------
// Per-layer isolated timings (traced runs only)
// ---------------------------------------------------------------------------

/// Layer numbers by metric name; serve_mix folds its six matrices in.
struct Layers {
  std::map<std::string, double> v;
  void add(const std::string& k, double x) { v[k] += x; }
  void max(const std::string& k, double x) { v[k] = std::max(v[k], x); }
};

/// The matrix-level layer calls: split, ABMC, levels, save, fingerprint.
void matrix_layers(Layers& L, const CsrMatrix<double>& a, const MpkPlan& plan,
                   int reps, std::uint64_t parent) {
  std::optional<TriangularSplit<double>> split;
  L.add("sparse.split_ms",
        median_ms("sparse.split_triangular", parent, reps,
                  [&] { split.emplace(split_triangular(a)); }));
  L.add("sparse.storage_mb",
        static_cast<double>(plan.stats().storage_bytes) / 1e6);
  index_t colors = 0;
  L.add("reorder.abmc_ms", median_ms("reorder.abmc_order", parent, reps, [&] {
          colors = abmc_order(a, plan.options().abmc).num_colors;
        }));
  L.max("reorder.colors", colors);
  index_t stages = 0;
  L.add("reorder.levels_ms", median_ms("reorder.levels", parent, reps, [&] {
          const auto levels = LevelSchedulePair::of(*split);
          stages = build_level_sweep_schedule(levels, *split, max_threads())
                       .fwd.num_stages;
        }));
  L.max("reorder.stages_fwd", stages);
  std::size_t artifact = 0;
  L.add("core.save_ms", median_ms("core.save_plan", parent, reps, [&] {
          std::ostringstream os;
          save_plan(plan, os);
          artifact = static_cast<std::size_t>(os.tellp());
        }));
  L.add("core.artifact_mb", static_cast<double>(artifact) / 1e6);
  L.add("service.fingerprint_ms",
        median_ms("service.fingerprint", parent, reps,
                  [&] { (void)service::fingerprint(a); }));
}

/// The kernel-level layer calls on one plan: modeled bytes, power()
/// in isolation, standard MPK, the serial rung, and the batched kernel
/// at widths 1 and 8.
void kernel_layers(Layers& L, const CsrMatrix<double>& a, const MpkPlan& plan,
                   const std::vector<double>& x, int k, int reps,
                   std::uint64_t parent) {
  L.add("kernels.modeled_mb",
        static_cast<double>(
            perf::fbmpk_traffic(perf::MatrixShape::of(a), k).total()) /
            1e6);
  std::vector<double> y(x.size());
  MpkPlan::Workspace ws;
  L.add("kernels.power_ms", median_ms("kernels.power", parent, reps,
                                      [&] { plan.power(x, k, y, ws); }));
  MpkWorkspace<double> mws;
  // The paper's baseline is standard MPK with each SpMV parallel.
  L.add("kernels.mpk_baseline_ms",
        median_ms("kernels.mpk_power", parent, reps, [&] {
          mpk_power<double>(a, x, k, y, mws, SpmvExec::kParallel);
        }));
  L.add("kernels.serial_ms",
        median_ms("kernels.serial_rung", parent, reps, [&] {
          if (!plan.try_power(x, k, y, ws, ExecPath::kSerial).ok())
            throw std::runtime_error("serial rung failed");
        }));
  std::vector<std::vector<double>> ys(8, std::vector<double>(x.size()));
  const std::vector<const double*> xs(8, x.data());
  std::vector<double*> yp;
  for (auto& v : ys) yp.push_back(v.data());
  const auto batch = [&](index_t nvec) {
    if (!plan.try_power_batch(xs.data(), nvec, k, yp.data()).ok())
      throw std::runtime_error("batched power failed");
  };
  L.add("kernels.batch1_ms",
        median_ms("kernels.batch1", parent, reps, [&] { batch(1); }));
  L.add("kernels.batch8_ms",
        median_ms("kernels.batch8", parent, reps, [&] { batch(8); }));
}

// ---------------------------------------------------------------------------
// Serving: one generator thread (the caller), one collector thread
// ---------------------------------------------------------------------------

struct ServeMatrix {
  std::string name;
  const CsrMatrix<double>* a = nullptr;   ///< owned by the workload
  std::vector<std::vector<double>> xs;    ///< x pool
  std::vector<std::vector<double>> refs;  ///< serial-sweep A^k x per x
};

struct Draw {
  int matrix = 0;
  int xi = 0;
  double due = 0.0;  ///< seconds after phase start (open loop)
};

struct Req {
  Draw draw;
  double due = 0, send = 0, submitted = 0, done = 0;  ///< now_s()
  std::uint64_t id = 0;    ///< request id from submit()
  std::uint64_t span = 0;  ///< trace span of the whole request
  std::string status = "ok";
  bool correct = false;
  int rung = 0, degrade = 0;
  bool cache_hit = false;
};

std::string req_json(const Req& r) {
  return JsonObj()
      .num("matrix", r.draw.matrix)
      .num("due", r.due)
      .num("send", r.send)
      .num("submitted", r.submitted)
      .num("done", r.done)
      .str("status", r.status)
      .boolean("correct", r.correct)
      .num("rung", r.rung)
      .num("degrade", r.degrade)
      .boolean("cache_hit", r.cache_hit)
      .num("id", static_cast<double>(r.id))
      .str();
}

/// Drive `svc` with `draws`. Open loop (outstanding == 0): request i is
/// sent at its due time. Closed loop: up to `outstanding` requests in
/// flight until `stop_at`, each due when its slot freed. The collector
/// waits in submission order and checks every result.
std::vector<Req> drive(service::MpkService& svc,
                       const std::vector<ServeMatrix>& mats, int k,
                       const std::vector<Draw>& draws, int outstanding,
                       double stop_at, std::uint64_t parent) {
  const double t0 = now_s();
  std::vector<Req> reqs(draws.size());
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> pending;
  std::size_t in_flight = 0;
  double slot_free_at = t0;
  bool gen_done = false;

  std::thread collector([&] {
    std::vector<double> y;
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || gen_done; });
        if (pending.empty()) return;
        i = pending.front();
        pending.pop_front();
      }
      Req& r = reqs[i];
      const ServeMatrix& m = mats[r.draw.matrix];
      y.assign(m.refs[r.draw.xi].size(), 0.0);
      const double wait_t0 = now_s();
      const service::RequestResult res = svc.wait(r.id, y);
      r.done = now_s();
      r.status = res.status.ok() ? "ok" : error_code_name(res.status.code());
      r.correct = res.status.ok() && same_bits(y, m.refs[r.draw.xi]);
      r.rung = static_cast<int>(res.rung);
      r.degrade = res.degrade_steps;
      r.cache_hit = res.cache_hit;
      if (g_rec.enabled()) {
        g_rec.add("service.wait", wait_t0, r.done, g_rec.next_id(), r.span,
                  r.id);
        g_rec.add("serve.request", r.due, r.done, r.span, parent, r.id);
      }
      std::lock_guard<std::mutex> lock(mu);
      --in_flight;
      slot_free_at = r.done;
      cv.notify_all();
    }
  });
  // However the generator loop ends, release and join the collector.
  struct Joiner {
    std::mutex& mu;
    std::condition_variable& cv;
    bool& gen_done;
    std::thread& t;
    ~Joiner() {
      {
        std::lock_guard<std::mutex> lock(mu);
        gen_done = true;
      }
      cv.notify_all();
      t.join();
    }
  };

  std::size_t sent = 0;
  {
    const Joiner joiner{mu, cv, gen_done, collector};
    for (; sent < draws.size(); ++sent) {
      Req& r = reqs[sent];
      r.draw = draws[sent];
      if (outstanding == 0) {
        r.due = t0 + r.draw.due;
        std::this_thread::sleep_until(at(r.due));
      } else {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return in_flight < static_cast<std::size_t>(outstanding);
        });
        r.due = slot_free_at;
      }
      r.send = now_s();
      if (outstanding != 0 && r.send >= stop_at) break;
      const ServeMatrix& m = mats[r.draw.matrix];
      r.id = svc.submit(*m.a, m.xs[r.draw.xi], k);
      r.submitted = now_s();
      if (g_rec.enabled()) {
        r.span = g_rec.next_id();
        g_rec.add("service.submit", r.send, r.submitted, g_rec.next_id(),
                  r.span, r.id);
      }
      std::lock_guard<std::mutex> lock(mu);
      ++in_flight;
      pending.push_back(sent);
      cv.notify_all();
    }
  }
  reqs.resize(sent);
  return reqs;
}

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

/// `count` request draws. Matrix ranks follow Zipf(zipf_s) exactly per
/// block of `block` requests (quota per rank, order shuffled by the
/// seed), so every run serves the same mix; pool entries are uniform.
/// With rate > 0 the due times are a Poisson process on [0, horizon)
/// conditioned on its expected count: count = rate * horizon sorted
/// uniform points. Stratifying both keeps seed-to-seed spread down to
/// ordering effects.
std::vector<Draw> draw_requests(std::size_t count, std::size_t nmats,
                                double zipf_s, int pool, int block,
                                double rate, double horizon,
                                std::uint64_t seed) {
  std::vector<double> w;
  double sum = 0.0;
  for (std::size_t r = 0; r < nmats; ++r)
    sum += w.emplace_back(1.0 / std::pow(static_cast<double>(r + 1), zipf_s));
  std::vector<int> quota;
  for (std::size_t r = 0; r < nmats; ++r) {
    const auto q = std::max<long>(1, std::lround(block * w[r] / sum));
    quota.insert(quota.end(), static_cast<std::size_t>(q), static_cast<int>(r));
  }
  Rng rng(seed);
  if (rate > 0)
    count = static_cast<std::size_t>(std::lround(rate * horizon));
  std::vector<Draw> out(count);
  std::vector<int> ranks;
  for (std::size_t i = 0; i < count; ++i) {
    if (ranks.empty()) {
      ranks = quota;
      shuffle(ranks, rng);
    }
    out[i].matrix = ranks.back();
    ranks.pop_back();
    out[i].xi =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(pool)));
    if (rate > 0) out[i].due = rng.next_double() * horizon;
  }
  if (rate > 0) {
    std::vector<double> due;
    for (const auto& d : out) due.push_back(d.due);
    std::sort(due.begin(), due.end());
    for (std::size_t i = 0; i < count; ++i) out[i].due = due[i];
  }
  return out;
}

std::string stats_delta_json(const service::ServiceStats& b,
                             const service::ServiceStats& a) {
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  return JsonObj()
      .num("completed", d(a.completed, b.completed))
      .num("rejected", d(a.rejected_overload, b.rejected_overload))
      .num("timeouts", d(a.timeouts, b.timeouts))
      .num("batch_coalesced", d(a.batch_coalesced, b.batch_coalesced))
      .num("cache_hits", d(a.cache.hits, b.cache.hits))
      .num("cache_misses", d(a.cache.misses, b.cache.misses))
      .num("cache_evictions", d(a.cache.evictions, b.cache.evictions))
      .str();
}

/// Index of the service window slice covering `t` (steady clock).
std::int64_t window_slice(Clock::time_point t) {
  const auto width = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowSliceS));
  return t.time_since_epoch() / width;
}

/// Sleep until the next service window slice begins; returns its index.
std::int64_t wait_for_window_slice() {
  const auto width = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowSliceS));
  const std::int64_t next = window_slice(Clock::now()) + 1;
  std::this_thread::sleep_until(Clock::time_point(next * width));
  return next;
}

/// One serving phase: drive, then snapshot the service's own counters.
/// A `windowed` phase also reads the service's sliding window. It starts
/// on a window slice boundary and reads exactly the slices since, so
/// the window holds this phase's requests and none of an earlier phase.
std::string serve_phase(service::MpkService& svc,
                        const std::vector<ServeMatrix>& mats, int k,
                        const std::vector<Draw>& draws, int outstanding,
                        double seconds, const char* name, bool windowed) {
  const std::int64_t first_slice = windowed ? wait_for_window_slice() : 0;
  Span span(name);
  const service::ServiceStats before = svc.stats();
  const double t0 = now_s();
  const auto reqs =
      drive(svc, mats, k, draws, outstanding, t0 + seconds, span.id());
  const double t1 = now_s();
  std::vector<std::string> rs;
  for (const auto& r : reqs) rs.push_back(req_json(r));
  JsonObj out;
  out.num("start", t0)
      .num("end", t1)
      .num("outstanding", outstanding)
      .raw("requests", json_list(rs))
      .raw("stats", stats_delta_json(before, svc.stats()));
  if (windowed) {
    const auto slices = window_slice(Clock::now()) - first_slice + 1;
    const auto w = svc.window(static_cast<double>(slices) * kWindowSliceS);
    out.raw("window", JsonObj()
                          .num("slices", static_cast<double>(slices))
                          .num("p50_ms", w.p50_ms)
                          .num("p99_ms", w.p99_ms)
                          .num("queue_depth_mean", w.queue_depth_mean)
                          .num("queue_depth_max",
                               static_cast<double>(w.queue_depth_max))
                          .num("batch_width_mean", w.batch_width_mean)
                          .str());
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Run {
  explicit Run(const Args& a) : args(a) {}
  const Args& args;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  JsonObj out;
  Layers layers;
};

/// Back-to-back power() calls for `seconds`, each output checked
/// bitwise against `ref` outside the call's timing. Returns the JSON
/// list of {send, done, correct}.
std::string power_window(const MpkPlan& plan, MpkPlan::Workspace& ws,
                         const std::vector<double>& x,
                         const std::vector<double>& ref, int k,
                         double seconds, const char* name) {
  Span span(name);
  std::vector<double> y(x.size());
  std::vector<std::string> calls;
  const double stop = now_s() + seconds;
  while (now_s() < stop) {
    const double send = now_s();
    {
      Span s("core.power", span.id());
      plan.power(x, k, y, ws);
    }
    const double done = now_s();
    calls.push_back(JsonObj()
                        .num("send", send)
                        .num("done", done)
                        .boolean("correct", same_bits(y, ref))
                        .str());
  }
  return json_list(calls);
}

/// Closed-loop service probe on a power_* matrix (traced runs): what
/// admission and the cache cost for this matrix. The cache miss it
/// times inserts the plan the probe's requests then hit.
void service_probe(Run& run, const CsrMatrix<double>& a,
                   const std::vector<double>& x,
                   const std::vector<double>& ref, int k,
                   const PlanOptions& po) {
  Span span("service.probe");
  service::ServiceOptions so;
  so.workers = 1;
  so.cache_capacity = 1;
  so.plan = po;
  service::MpkService svc(so);
  const std::uint64_t key = service::fingerprint(a);
  const auto build = [&] { return MpkPlan::build(a, po); };
  run.layers.add("service.cache_miss_ms",
                 median_ms("service.cache_acquire_miss", span.id(), 1,
                           [&] { svc.cache().acquire(key, build); }));
  run.layers.add("service.cache_hit_us",
                 1e3 * median_ms("service.cache_acquire_hit", span.id(), 21,
                                 [&] { svc.cache().acquire(key, build); }));
  const std::vector<ServeMatrix> mats{{"probe", &a, {x}, {ref}}};
  const auto draws = draw_requests(4096, 1, 1.0, 1, 1, 0.0, 0.0, run.seed);
  run.out.raw("probe", serve_phase(svc, mats, k, draws, kProbeOutstanding,
                                   kProbeSeconds, "phase.probe", true));
}

void run_power(Run& run) {
  const Args& A = run.args;
  const int k = static_cast<int>(A.i("k"));
  CsrMatrix<double> a;
  {
    Span s("gen.matrix");
    if (A.s("generator") == "suite") {
      a = suite_matrix(A.s("matrix"), A.d("scale"), run.seed);
    } else {
      gen::PowerLawOptions o;
      o.avg_row_nnz = A.d("avg_row_nnz");
      o.bias = A.d("bias");
      o.seed = mix(run.seed, A.s("matrix"));
      a = gen::make_power_law(static_cast<index_t>(A.i("n")), o);
    }
  }
  const PlanOptions po = plan_options(A.s("scheduler"));
  const auto x = random_vector(a.rows(), mix(run.seed, "x"));
  std::vector<double> y(x.size());

  // Set-up, several times: build, then warm-up calls until two
  // consecutive calls agree within the settle tolerance.
  std::vector<double> setup_s, build_ms, first_ms, second_ms;
  std::optional<MpkPlan> plan;
  std::unique_ptr<MpkPlan::Workspace> ws;
  for (long long r = 0; r < A.i("setups"); ++r) {
    plan.reset();
    ws.reset();
    Span setup("setup");
    {
      Span s("core.build", setup.id());
      plan.emplace(MpkPlan::build(a, po));
      build_ms.push_back(s.elapsed_ms());
    }
    ws = std::make_unique<MpkPlan::Workspace>();
    std::vector<double> calls;
    while (static_cast<int>(calls.size()) < kMaxWarmup) {
      Span s("core.power.warmup", setup.id());
      plan->power(x, k, y, *ws);
      calls.push_back(s.elapsed_ms());
      const std::size_t c = calls.size();
      if (c >= 2 &&
          std::abs(calls[c - 1] - calls[c - 2]) <= kSettle * calls[c - 2])
        break;
    }
    setup_s.push_back(setup.elapsed_ms() / 1e3);
    first_ms.push_back(calls[0]);
    second_ms.push_back(calls.size() > 1 ? calls[1] : calls[0]);
  }
  run.layers.add("core.build_ms", median(build_ms));
  run.layers.add("core.first_call_ms", median(first_ms));
  run.layers.add("core.second_call_ms", median(second_ms));
  run.out.nums("setup_s", setup_s)
      .raw("plans", "[" + plan_json(A.s("matrix"), a, *plan) + "]");

  // The oracle: the plan's serial sweep (same ordering and per-row
  // kernels as every parallel path, so results must match bitwise).
  std::vector<double> ref(x.size());
  {
    Span s("kernels.oracle");
    MpkPlan::Workspace ows;
    if (!plan->try_power(x, k, ref, ows, ExecPath::kSerial).ok())
      throw std::runtime_error("serial oracle failed");
  }

  g_rec.set_enabled(false);
  run.out.raw("calls", power_window(*plan, *ws, x, ref, k, run.seconds,
                                    "window.untraced"));
  if (!run.trace) return;
  g_rec.set_enabled(true);
  run.out.raw("calls_traced", power_window(*plan, *ws, x, ref, k,
                                           run.seconds, "window.traced"));

  Span layers("layers");
  const int reps = static_cast<int>(A.i("layer_reps"));
  matrix_layers(run.layers, a, *plan, reps, layers.id());
  kernel_layers(run.layers, a, *plan, x, k, reps, layers.id());
  service_probe(run, a, x, ref, k, po);
}

void run_serve(Run& run) {
  const Args& A = run.args;
  const int k = static_cast<int>(A.i("k"));
  const int pool = kXPool;
  service::ServiceOptions so;
  so.workers = static_cast<int>(A.i("workers"));
  so.max_batch = static_cast<std::size_t>(A.i("max_batch"));
  so.cache_capacity = static_cast<std::size_t>(A.i("cache_capacity"));
  so.max_queue = kMaxQueue;
  so.plan = plan_options(A.s("scheduler"));

  // Inputs and their expected results, before any timing. Matrices are
  // listed hottest first (Zipf rank order).
  std::deque<CsrMatrix<double>> store;  // stable addresses for the service
  std::vector<ServeMatrix> mats;
  std::vector<std::optional<MpkPlan>> ref_plans;
  std::vector<std::string> plans;
  double build_ms = 0.0;
  {
    Span s("gen.inputs");
    for (const auto& name : A.list("matrices")) {
      ServeMatrix m;
      m.name = name;
      m.a = &store.emplace_back(suite_matrix(name, A.d("scale"), run.seed));
      auto& p = ref_plans.emplace_back();
      {
        Span b("core.build", s.id());
        p.emplace(MpkPlan::build(*m.a, so.plan));
        build_ms += b.elapsed_ms();
      }
      MpkPlan::Workspace ws;
      for (int i = 0; i < pool; ++i) {
        m.xs.push_back(random_vector(
            m.a->rows(), mix(run.seed, name + "#" + std::to_string(i))));
        m.refs.emplace_back(m.xs.back().size());
        if (!p->try_power(m.xs.back(), k, m.refs.back(), ws, ExecPath::kSerial)
                 .ok())
          throw std::runtime_error("serial oracle failed on " + name);
      }
      plans.push_back(plan_json(name, *m.a, *p));
      mats.push_back(std::move(m));
    }
  }
  run.out.raw("plans", json_list(plans));

  // Set-up, several times: construct the service, then the first request
  // per matrix (each a cache miss: build + artifact save on the request
  // path). The last service carries on into the phases.
  std::unique_ptr<service::MpkService> svc;
  std::vector<double> setup_s;
  std::vector<Draw> firsts;
  for (std::size_t m = 0; m < mats.size(); ++m)
    firsts.push_back({static_cast<int>(m), 0, 0.0});
  std::vector<std::string> setup_phases;
  for (long long r = 0; r < A.i("setups"); ++r) {
    svc.reset();
    const double t0 = now_s();
    svc = std::make_unique<service::MpkService>(so);
    setup_phases.push_back(serve_phase(*svc, mats, k, firsts,
                                       static_cast<int>(mats.size()), 1e9,
                                       "setup", false));
    setup_s.push_back(now_s() - t0);
  }
  run.out.nums("setup_s", setup_s).raw("setup_phases", json_list(setup_phases));

  // The two load phases: open loop for latency, closed for throughput.
  const double open_s = run.seconds * kOpenShare;
  const double closed_s = run.seconds - open_s;
  const auto open_draws =
      draw_requests(0, mats.size(), A.d("zipf_s"), pool, kZipfBlock,
                    A.d("open_rps"), open_s, mix(run.seed, "open"));
  const auto closed_draws =
      draw_requests(100000, mats.size(), A.d("zipf_s"), pool, kZipfBlock,
                    0.0, 0.0, mix(run.seed, "closed"));
  const int outstanding = static_cast<int>(A.i("closed_outstanding"));
  // Only the traced open phase reads window(): its service.* figures.
  const auto phases = [&](const char* tag, bool windowed) {
    run.out.raw(
        tag, JsonObj()
                 .raw("open", serve_phase(*svc, mats, k, open_draws, 0,
                                          open_s, "phase.open", windowed))
                 .raw("closed", serve_phase(*svc, mats, k, closed_draws,
                                            outstanding, closed_s,
                                            "phase.closed", false))
                 .str());
  };
  g_rec.set_enabled(false);
  phases("untraced", false);
  if (!run.trace) return;
  g_rec.set_enabled(true);
  phases("traced", true);

  // Isolated layer timings: matrix-level calls summed over the six
  // matrices, kernel-level ones on the hottest matrix's plan.
  Span layers("layers");
  const int reps = static_cast<int>(A.i("layer_reps"));
  run.layers.add("core.build_ms", build_ms);
  for (std::size_t m = 0; m < mats.size(); ++m)
    matrix_layers(run.layers, *mats[m].a, *ref_plans[m], reps, layers.id());
  kernel_layers(run.layers, *mats[0].a, *ref_plans[0], mats[0].xs[0], k, reps,
                layers.id());
  {
    // First and second power() on a fresh plan of the hottest matrix.
    const auto fresh = MpkPlan::build(*mats[0].a, so.plan);
    MpkPlan::Workspace ws;
    std::vector<double> y(mats[0].xs[0].size());
    for (const char* key : {"core.first_call_ms", "core.second_call_ms"}) {
      Span s("core.power.fresh", layers.id());
      fresh.power(mats[0].xs[0], k, y, ws);
      run.layers.add(key, s.elapsed_ms());
    }
  }
  {
    // PlanCache::acquire in isolation: a miss per matrix, then hits.
    service::PlanCache cache(mats.size());
    std::vector<double> miss, hit;
    for (const auto& m : mats) {
      const auto key = service::fingerprint(*m.a);
      const auto builder = [&] { return MpkPlan::build(*m.a, so.plan); };
      miss.push_back(median_ms("service.cache_acquire_miss", layers.id(), 1,
                               [&] { cache.acquire(key, builder); }));
      hit.push_back(median_ms("service.cache_acquire_hit", layers.id(), 21,
                              [&] { cache.acquire(key, builder); }));
    }
    run.layers.add("service.cache_miss_ms", median(miss));
    run.layers.add("service.cache_hit_us", 1e3 * median(hit));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    Run run{args};
    run.seed = static_cast<std::uint64_t>(args.i("seed"));
    run.seconds = args.d("seconds");
    run.trace = args.i("trace") != 0;
    // A traced run times its untraced and traced phases in halves of
    // --seconds, so it takes about as long as an untraced run.
    if (run.trace) run.seconds /= 2;
    const std::string wl = args.s("workload");

    Host host;
    host.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    host.l2_mb = cache_bytes(2) / (1024.0 * 1024.0);
    host.llc_mb = cache_bytes(3) / (1024.0 * 1024.0);
    if (host.llc_mb == 0) host.llc_mb = host.l2_mb;
    if (host.llc_mb == 0) throw std::runtime_error("cache sizes unknown");
    g_rec.set_enabled(run.trace);
    stream_probe(host, kStreamPasses);
    const bool rss_reset = reset_peak_rss();

#ifdef FBMPK_TELEMETRY
    const bool telemetry = true;
#else
    const bool telemetry = false;
#endif
    run.out.raw("host", JsonObj()
                            .num("nproc", host.nproc)
                            .num("l2_mb", host.l2_mb)
                            .num("llc_mb", host.llc_mb)
                            .num("stream_gbs", host.stream_gbs)
                            .num("stream_array_mb", host.stream_array_mb)
                            .str("build_type", PERFBENCH_BUILD_TYPE)
                            .boolean("telemetry", telemetry)
                            .num("team", max_threads())
                            .boolean("rss_reset", rss_reset)
                            .str());

    if (wl == "power_dram" || wl == "power_hub") {
      run_power(run);
    } else if (wl == "serve_mix") {
      run_serve(run);
    } else {
      throw std::runtime_error("unknown workload: " + wl);
    }

    JsonObj layers;
    for (const auto& [key, v] : run.layers.v) layers.num(key, v);
    run.out.num("peak_rss_mb", peak_rss_mb())
        .raw("layers", layers.str())
        .num("spans", static_cast<double>(g_rec.size()));
    if (run.trace) g_rec.write_chrome(args.s("trace-out"));
    std::ofstream f(args.s("out"));
    f << run.out.str() << "\n";
    f.flush();
    if (!f) throw std::runtime_error("cannot write " + args.s("out"));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fbmpk_perfbench: %s\n", e.what());
    return 1;
  }
}
