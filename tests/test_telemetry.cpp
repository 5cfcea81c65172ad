// Telemetry layer tests (src/telemetry/, docs/OBSERVABILITY.md):
// registry semantics, export validity, fault injection on the export
// path, the zero-allocation runtime-off contract on the sweep hot
// path, warmup exclusion in the harness, and graceful hardware-counter
// degradation. Tests that assert hot-path instrumentation *fired* are
// gated on telemetry::compiled_in() — in an FBMPK_TELEMETRY=OFF build
// they instead assert nothing was recorded.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/fbmpk.hpp"
#include "gen/suite.hpp"
#include "perf/harness.hpp"
#include "service/service.hpp"
#include "support/fault_inject.hpp"
#include "support/json.hpp"
#include "telemetry/hw_counters.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

namespace fbmpk {
namespace {

namespace fs = std::filesystem;

telemetry::Registry& reg() { return telemetry::Registry::instance(); }

/// RAII: enable the registry fresh for one test, leave it disabled and
/// empty afterwards so tests cannot leak state into each other.
struct ScopedTelemetry {
  ScopedTelemetry() {
    reg().reset();
    reg().set_enabled(true);
  }
  ~ScopedTelemetry() {
    reg().set_enabled(false);
    reg().reset();
  }
};

CsrMatrix<double> test_matrix(double scale = 0.05) {
  return gen::make_suite_matrix("shipsec1", scale).matrix;
}

// --------------------------------------------------------------------------
// JSON helpers
// --------------------------------------------------------------------------

TEST(TelemetryJson, EscapeCoversRfc8259Specials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(TelemetryJson, NumberMapsNonFiniteToNull) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

// --------------------------------------------------------------------------
// Registry semantics
// --------------------------------------------------------------------------

TEST(TelemetryRegistry, CountersAccumulateAndSortInSnapshot) {
  ScopedTelemetry scope;
  reg().counter_add("test.b", 2);
  reg().counter_add("test.a", 1);
  reg().counter_add("test.b", 3);
  reg().gauge_set("test.g", 42);

  const telemetry::Snapshot snap = reg().snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "test.a");
  EXPECT_EQ(snap.counters[0].second, 1);
  EXPECT_EQ(snap.counters[1].first, "test.b");
  EXPECT_EQ(snap.counters[1].second, 5);
  EXPECT_EQ(snap.counters[2].first, "test.g");
  EXPECT_EQ(snap.counters[2].second, 42);
}

TEST(TelemetryRegistry, CountersIgnoredWhenRuntimeDisabled) {
  reg().reset();
  reg().set_enabled(false);
  reg().counter_add("test.ignored", 7);
  reg().gauge_set("test.ignored_gauge", 7);
  EXPECT_TRUE(reg().snapshot().counters.empty());
}

TEST(TelemetryRegistry, SpansLandInThreadBuffer) {
  ScopedTelemetry scope;
  {
    telemetry::ScopedSpan span(telemetry::Cat::kPlan, "test.span",
                               telemetry::SpanArgs{3, 1, false, -1});
  }
  const telemetry::Snapshot snap = reg().snapshot();
  ASSERT_EQ(snap.total_events(), 1u);
  const telemetry::SpanEvent* e = nullptr;
  for (const auto& t : snap.threads)
    if (!t.events.empty()) e = &t.events[0];
  ASSERT_NE(e, nullptr);
  EXPECT_STREQ(e->name, "test.span");
  EXPECT_EQ(e->args.k, 3);
  EXPECT_EQ(e->args.color, 1);
  EXPECT_GE(e->dur_ns, 0);
}

TEST(TelemetryRegistry, ScopedSpanIsInertWhenDisabled) {
  reg().reset();
  reg().set_enabled(false);
  {
    telemetry::ScopedSpan span(telemetry::Cat::kPlan, "test.noop");
  }
  EXPECT_EQ(reg().event_count(), 0u);
}

TEST(TelemetryRegistry, ResetClearsEventsAndCounters) {
  ScopedTelemetry scope;
  reg().counter_add("test.c", 1);
  { telemetry::ScopedSpan span(telemetry::Cat::kBench, "test.s"); }
  EXPECT_GE(reg().event_count(), 1u);
  reg().reset();
  EXPECT_EQ(reg().event_count(), 0u);
  EXPECT_TRUE(reg().snapshot().counters.empty());
}

TEST(TelemetryRegistry, HistogramBucketsMergeAndAverage) {
  telemetry::Histogram a, b;
  a.add(0);
  a.add(1);
  a.add(1024);
  b.add(1 << 20);
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.max_ns, std::uint64_t{1} << 20);
  EXPECT_DOUBLE_EQ(a.mean_ns(), (0.0 + 1.0 + 1024.0 + (1 << 20)) / 4.0);
  EXPECT_EQ(a.buckets[0], 2u);   // 0 and 1
  EXPECT_EQ(a.buckets[10], 1u);  // 1024 = 2^10
  EXPECT_EQ(a.buckets[20], 1u);
}

TEST(TelemetryRegistry, HistogramAddPinsOctaveBoundaries) {
  // The bit_width-based bucket index must agree with the documented
  // octave layout [2^b, 2^(b+1)) at every boundary.
  telemetry::Histogram h;
  h.add(0);
  EXPECT_EQ(h.buckets[0], 1u);
  h.add(1);
  EXPECT_EQ(h.buckets[0], 2u);  // bucket 0 holds 0 and 1
  h.add(2);
  EXPECT_EQ(h.buckets[1], 1u);
  h.add(3);
  EXPECT_EQ(h.buckets[1], 2u);
  h.add(4);
  EXPECT_EQ(h.buckets[2], 1u);
  for (int b = 3; b < 63; ++b) {
    telemetry::Histogram hb;
    hb.add(std::uint64_t{1} << b);        // lower edge -> bucket b
    hb.add((std::uint64_t{1} << b) - 1);  // below edge -> bucket b-1
    EXPECT_EQ(hb.buckets[static_cast<std::size_t>(b)], 1u) << "b=" << b;
    EXPECT_EQ(hb.buckets[static_cast<std::size_t>(b - 1)], 1u) << "b=" << b;
  }
  telemetry::Histogram top;
  top.add(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(top.buckets[63], 1u);
  EXPECT_EQ(top.max_ns, std::numeric_limits<std::uint64_t>::max());
}

TEST(TelemetryRegistry, HistogramQuantileInterpolatesAndClamps) {
  telemetry::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  // 100 samples all in bucket 10 ([1024, 2048)): every quantile lies
  // inside the octave and never exceeds the recorded max.
  telemetry::Histogram h;
  for (int i = 0; i < 100; ++i) h.add(1500);
  EXPECT_GE(h.quantile(0.0), 1024.0);
  EXPECT_GE(h.quantile(0.99), h.quantile(0.5));
  EXPECT_LE(h.quantile(1.0), 1500.0);  // clamped to max_ns
  EXPECT_LE(h.quantile(2.0), 1500.0);  // q out of range clamps too

  // Spread samples: p50 below the big outlier, p99 near it.
  telemetry::Histogram s;
  for (int i = 0; i < 99; ++i) s.add(1000);
  s.add(1 << 20);
  EXPECT_LT(s.quantile(0.5), 2048.0);
  EXPECT_GT(s.quantile(0.999), 1 << 19);
}

// --------------------------------------------------------------------------
// Hot-path instrumentation (build-flavor dependent)
// --------------------------------------------------------------------------

/// A level-scheduled point-to-point plan: the persistent-threads
/// engine whose stage and wait spans the hot-path tests observe.
PlanOptions level_engine_options() {
  PlanOptions opts;
  opts.scheduler = Scheduler::kLevels;
  opts.reorder = false;
  opts.sweep.sync = SweepSync::kPointToPoint;
  return opts;
}

TEST(TelemetryHotPath, PlanAndSweepSpansMatchBuildFlavor) {
  ScopedTelemetry scope;
  const auto a = test_matrix();

  MpkPlan plan = MpkPlan::build(a, level_engine_options());
  AlignedVector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  AlignedVector<double> y(x.size());
  plan.power(x, 5, y);

  const telemetry::Snapshot snap = reg().snapshot();
  if (!telemetry::compiled_in()) {
    // OFF build: the macros expanded to nothing, so the whole plan
    // build + engine sweep must have recorded exactly zero telemetry.
    EXPECT_EQ(snap.total_events(), 0u);
    EXPECT_TRUE(snap.counters.empty());
    return;
  }

  bool saw_build = false, saw_split = false, saw_power = false;
  bool saw_fwd = false, saw_bwd = false;
  for (const auto& t : snap.threads) {
    for (const auto& e : t.events) {
      const std::string name = e.name;
      saw_build |= name == "plan.build";
      saw_split |= name == "plan.split";
      saw_power |= name == "plan.power";
      if (name == "F") {
        saw_fwd = true;
        EXPECT_GE(e.args.color, 0);
        EXPECT_GE(e.args.k, 1);
      }
      saw_bwd |= name == "B";
    }
  }
  EXPECT_TRUE(saw_build);
  EXPECT_TRUE(saw_split);
  EXPECT_TRUE(saw_power);
  EXPECT_TRUE(saw_fwd);
  EXPECT_TRUE(saw_bwd);

  std::int64_t builds = 0;
  for (const auto& [name, v] : snap.counters)
    if (name == "plan.builds") builds = v;
  EXPECT_EQ(builds, 1);
  EXPECT_GT(snap.total_wait.stages, 0u);
}

TEST(TelemetryHotPath, OneShotSubmitSplitsHashingFromAdmission) {
  ScopedTelemetry scope;
  const auto a = test_matrix();
  const service::MatrixHandle h(std::make_shared<const CsrMatrix<double>>(a));
  AlignedVector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  AlignedVector<double> y(x.size());
  service::MpkService::RequestId one_shot = 0;
  {
    service::ServiceOptions so;
    so.workers = 1;
    service::MpkService svc(so);
    one_shot = svc.submit(a, x, 2);
    ASSERT_TRUE(svc.wait(one_shot, y).status.ok());
    ASSERT_TRUE(svc.power(h, x, 2, y).status.ok());
  }

  const telemetry::Snapshot snap = reg().snapshot();
  if (!telemetry::compiled_in()) {
    EXPECT_EQ(snap.total_events(), 0u);
    return;
  }
  // Only the one-shot submit hashes, and inside its own submit span.
  std::vector<telemetry::SpanEvent> submits, hashes;
  for (const auto& t : snap.threads)
    for (const auto& e : t.events) {
      const std::string name = e.name;
      if (name == "service.submit") submits.push_back(e);
      if (name == "service.fingerprint") hashes.push_back(e);
    }
  ASSERT_EQ(submits.size(), 2u);
  ASSERT_EQ(hashes.size(), 1u);
  const telemetry::SpanEvent& fp = hashes.front();
  EXPECT_EQ(fp.args.req, static_cast<std::int64_t>(one_shot));
  const auto outer =
      std::find_if(submits.begin(), submits.end(), [&](const auto& e) {
        return e.args.req == fp.args.req;
      });
  ASSERT_NE(outer, submits.end());
  EXPECT_LE(outer->start_ns, fp.start_ns);
  EXPECT_GE(outer->start_ns + outer->dur_ns, fp.start_ns + fp.dur_ns);
}

TEST(TelemetryHotPath, RuntimeOffSweepAllocatesNothing) {
  reg().reset();
  reg().set_enabled(false);
  const auto a = test_matrix();
  MpkPlan plan = MpkPlan::build(a, level_engine_options());
  AlignedVector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  AlignedVector<double> y(x.size());
  plan.power(x, 4, y);  // warm every lazily-created buffer

  const std::uint64_t allocs_before = reg().buffer_allocations();
  const std::size_t events_before = reg().event_count();
  const std::uint64_t flight_before = reg().flight_pushes();
  for (int r = 0; r < 3; ++r) plan.power(x, 4, y);
  EXPECT_EQ(reg().buffer_allocations(), allocs_before);
  EXPECT_EQ(reg().event_count(), events_before);
  // The flight recorder rides inside the (never-allocated) thread
  // buffers: runtime-off must not push a single ring slot either.
  EXPECT_EQ(reg().flight_pushes(), flight_before);
}

TEST(TelemetryHotPath, HarnessMarksWarmupAndExcludesItFromHistogram) {
  if (!telemetry::compiled_in())
    GTEST_SKIP() << "instrumentation compiled out (FBMPK_TELEMETRY=OFF)";
  ScopedTelemetry scope;
  perf::time_runs([] {}, /*reps=*/3, /*warmup=*/2);

  const telemetry::Snapshot snap = reg().snapshot();
  int warm = 0, measured = 0;
  for (const auto& t : snap.threads)
    for (const auto& e : t.events)
      if (std::string(e.name) == "bench.run") (e.args.warmup ? warm : measured)++;
  EXPECT_EQ(warm, 2);
  EXPECT_EQ(measured, 3);
  // The kBenchRun histogram sees only the measured iterations.
  const auto& h =
      snap.merged[static_cast<std::size_t>(telemetry::Hist::kBenchRun)];
  EXPECT_EQ(h.count, 3u);
}

// --------------------------------------------------------------------------
// Export: structure and fault injection
// --------------------------------------------------------------------------

telemetry::Snapshot small_snapshot() {
  ScopedTelemetry scope;
  reg().counter_add("test.counter", 9);
  {
    telemetry::ScopedSpan span(telemetry::Cat::kSweep, "F",
                               telemetry::SpanArgs{1, 2, false, -1});
  }
  reg().thread_buffer().record(telemetry::Hist::kSweepStage, 512);
  return reg().snapshot();
}

TEST(TelemetryExport, TraceCarriesEventsAndVersionedMetrics) {
  const telemetry::Snapshot snap = small_snapshot();
  std::ostringstream os;
  const Status st = telemetry::write_trace(os, snap);
  ASSERT_TRUE(st.ok());
  const std::string out = os.str();

  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"fbmpkMetrics\""), std::string::npos);
  EXPECT_NE(out.find("\"schema_version\": 6"), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"F\""), std::string::npos);
  EXPECT_NE(out.find("\"color\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"test.counter\": 9"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser
  // (CI additionally json.load()s a CLI-produced trace).
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
}

TEST(TelemetryExport, RequestContextEmitsReqArgAndFlowEvents) {
  // Two spans tagged with the same request id must export the "req"
  // arg and a flow chain stitching them ("s" start, "f" end with
  // bp=e); a lone-span request gets the arg but no flow events.
  telemetry::Snapshot snap;
  {
    ScopedTelemetry scope;
    {
      telemetry::ScopedSpan a(telemetry::Cat::kService, "service.submit",
                              telemetry::SpanArgs{2, -1, false, -1, 7});
    }
    {
      telemetry::ScopedSpan b(telemetry::Cat::kService, "service.request",
                              telemetry::SpanArgs{2, -1, false, -1, 7});
    }
    {
      telemetry::ScopedSpan lone(telemetry::Cat::kService, "service.submit",
                                 telemetry::SpanArgs{2, -1, false, -1, 9});
    }
    snap = reg().snapshot();
  }
  std::ostringstream os;
  ASSERT_TRUE(telemetry::write_trace(os, snap).ok());
  const std::string out = os.str();
  EXPECT_NE(out.find("\"req\": 7"), std::string::npos);
  EXPECT_NE(out.find("\"req\": 9"), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"s\", \"id\": 7"), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"f\", \"id\": 7"), std::string::npos);
  EXPECT_NE(out.find("\"bp\": \"e\""), std::string::npos);
  // req 9 had a single span: no flow events for it.
  EXPECT_EQ(out.find("\"ph\": \"s\", \"id\": 9"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
}

TEST(TelemetryExport, HwAndTrafficSectionsExportWhenPresent) {
  const telemetry::Snapshot snap = small_snapshot();
  telemetry::ExportMeta meta;
  meta.has_hw = true;
  meta.hw_avail.task_clock = true;
  meta.hw_avail.detail = "test";
  meta.hw.task_clock_ns = 1000;
  meta.has_traffic = true;
  meta.traffic.modeled_bytes = 100.0;
  meta.traffic.measured_bytes = 110.0;
  meta.traffic.k = 5;

  std::ostringstream os;
  ASSERT_TRUE(telemetry::write_trace(os, snap, meta).ok());
  const std::string out = os.str();
  EXPECT_NE(out.find("\"hw\""), std::string::npos);
  EXPECT_NE(out.find("\"task_clock_ns\": 1000"), std::string::npos);
  EXPECT_NE(out.find("\"traffic\""), std::string::npos);
  EXPECT_NE(out.find("\"modeled_bytes\": 100"), std::string::npos);
  // deviation = |110 - 100| / 100
  EXPECT_NE(out.find("\"deviation\": 0.1"), std::string::npos);
}

TEST(TelemetryExport, WriteFaultReturnsTypedIoStatus) {
  const telemetry::Snapshot snap = small_snapshot();
  // Accept ever-larger prefixes; every truncation point must produce a
  // typed kIo status, never a throw.
  for (std::size_t limit : {std::size_t{0}, std::size_t{1}, std::size_t{64},
                            std::size_t{512}}) {
    FailingWriteStream os(limit);
    Status st = Status();
    EXPECT_NO_THROW(st = telemetry::write_trace(os, snap));
    EXPECT_FALSE(st.ok()) << "limit=" << limit;
    EXPECT_EQ(st.code(), ErrorCode::kIo);
  }
}

TEST(TelemetryExport, UnwritablePathReturnsIoAndLeavesNoDroppings) {
  const telemetry::Snapshot snap = small_snapshot();
  const std::string path = "/nonexistent_fbmpk_dir/trace.json";
  Status st = Status();
  EXPECT_NO_THROW(st = telemetry::export_trace_file(path, snap));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kIo);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(TelemetryExport, RenameFailureLeavesExistingTargetIntact) {
  const telemetry::Snapshot snap = small_snapshot();
  // A directory at the target path makes the final rename fail after
  // the tmp write succeeded — the pre-existing "artifact" must survive
  // and the tmp file must be cleaned up.
  const fs::path dir = fs::temp_directory_path() / "fbmpk_trace_target";
  fs::create_directories(dir / "keep");
  Status st = Status();
  EXPECT_NO_THROW(st = telemetry::export_trace_file(dir.string(), snap));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kIo);
  EXPECT_TRUE(fs::is_directory(dir));
  EXPECT_TRUE(fs::exists(dir / "keep"));
  EXPECT_FALSE(fs::exists(dir.string() + ".tmp"));
  fs::remove_all(dir);
}

TEST(TelemetryExport, FileRoundTripProducesLoadableTrace) {
  const telemetry::Snapshot snap = small_snapshot();
  const fs::path path = fs::temp_directory_path() / "fbmpk_trace_ok.json";
  const Status st = telemetry::export_trace_file(path.string(), snap);
  ASSERT_TRUE(st.ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  fs::remove(path);
}

// --------------------------------------------------------------------------
// Hardware counters: graceful degradation
// --------------------------------------------------------------------------

TEST(TelemetryHw, GroupConstructsAndReportsAvailabilityEverywhere) {
  // Must never throw, whatever the kernel/permission situation is. In
  // locked-down containers every event can be unavailable — that is a
  // valid, reportable outcome, not an error.
  telemetry::HwCounterGroup group;
  const telemetry::HwAvailability& avail = group.availability();
  EXPECT_FALSE(avail.detail.empty());
  if (group.available()) {
    group.start();
    const telemetry::HwCounts counts = group.stop();
    if (avail.task_clock) {
      EXPECT_GE(counts.task_clock_ns, 0);
    }
    if (avail.cycles) {
      EXPECT_GE(counts.cycles, 0);
    }
    if (!avail.traffic()) {
      EXPECT_LT(counts.memory_bytes(), 0);
    }
  }
}

TEST(TelemetryHw, TrafficDeviationIsSignedRelativeError) {
  EXPECT_DOUBLE_EQ(telemetry::traffic_deviation(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(telemetry::traffic_deviation(90.0, 100.0), -0.1);
  EXPECT_DOUBLE_EQ(telemetry::traffic_deviation(0.0, 0.0), 0.0);
}

}  // namespace
}  // namespace fbmpk
