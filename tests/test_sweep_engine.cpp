// Tests for the persistent-threads sweep engine (docs/PARALLELISM.md),
// which runs level-scheduled plans with point-to-point sync: the
// engine must equal the serial FBMPK kernel bitwise for every thread
// count, power parity and matrix family, its level-blocked schedule
// must validate structurally and survive plan serialization, and every
// unsafe configuration must fall back to the barrier stage walk rather
// than produce a different answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <tuple>

#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "gen/kkt.hpp"
#include "gen/stencil.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_level_engine.hpp"
#include "reorder/level_blocking.hpp"
#include "reorder/level_schedule.hpp"
#include "sparse/split.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

struct Prepared {
  TriangularSplit<double> split;
  LevelSweepSchedule sched;
};

/// The original-order split and its level-blocked schedule for
/// `threads` persistent threads.
Prepared prepare(const CsrMatrix<double>& a, index_t threads) {
  Prepared p;
  p.split = split_triangular(a);
  p.sched = build_level_sweep_schedule(LevelSchedulePair::of(p.split),
                                       p.split, threads);
  return p;
}

/// Restores the OpenMP thread default when a test body returns.
struct ThreadGuard {
  int saved = max_threads();
  ~ThreadGuard() { set_threads(saved); }
};

/// Structured stencil, random symmetric, random unsymmetric, and a KKT
/// saddle point (a zero diagonal block, uneven level widths).
std::vector<std::pair<std::string, CsrMatrix<double>>> test_matrices() {
  std::vector<std::pair<std::string, CsrMatrix<double>>> out;
  out.emplace_back("laplacian_2d", gen::make_laplacian_2d(16, 16));
  out.emplace_back("random_sym", test::random_matrix(300, 7.0, true, 21));
  out.emplace_back("random_unsym", test::random_matrix(300, 6.0, false, 22));
  out.emplace_back("kkt_saddle", gen::make_kkt_saddle(5, 5, 5, {}));
  return out;
}

PlanOptions level_p2p_options() {
  PlanOptions o;
  o.reorder = false;
  o.scheduler = Scheduler::kLevels;
  o.sweep.sync = SweepSync::kPointToPoint;
  return o;
}

/// y = A^k x by the serial kernel on the unpermuted split: the bitwise
/// oracle for level plans, which store their split renumbered.
AlignedVector<double> serial_power(const CsrMatrix<double>& a,
                                   std::span<const double> x, int k) {
  const auto s = split_triangular(a);
  AlignedVector<double> y(a.rows());
  FbWorkspace<double> ws;
  fbmpk_power<double>(s, x, k, y, ws);
  return y;
}

class SweepEngineTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SweepEngineTest, BitwiseEqualsSerialAcrossMatrixFamilies) {
  const auto [k, threads] = GetParam();
  ThreadGuard guard;
  set_threads(threads);
  for (const auto& [name, a] : test_matrices()) {
    const index_t n = a.rows();
    const auto p = prepare(a, threads);
    ASSERT_TRUE(validate_level_sweep_schedule(p.sched, p.split)) << name;
    const auto x = test::random_vector(n, 23);

    AlignedVector<double> y_eng(n), y_ser(n);
    SweepWorkspace<double> we;
    FbWorkspace<double> ws;
    fbmpk_level_engine_power<double>(p.split, p.sched, x, k, y_eng, we);
    fbmpk_power<double>(p.split, x, k, y_ser, ws);
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(y_eng[i], y_ser[i])
          << name << " row " << i << " k=" << k << " threads=" << threads;
  }
}

// Thread counts cross the container's core count on purpose
// (oversubscription exercises the futex-wait path); k values cover odd
// and even pair parities including the tail stage.
INSTANTIATE_TEST_SUITE_P(
    PowersAndThreads, SweepEngineTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 5, 8),
                       ::testing::Values(1, 2, 4, 7)));

TEST(SweepEngine, PowerAllMatchesSerialBitwise) {
  ThreadGuard guard;
  set_threads(4);
  const auto a = test::random_matrix(200, 6.0, false, 31);
  const auto p = prepare(a, 4);
  const auto x = test::random_vector(200, 32);
  const int k = 5;
  const std::size_t n = 200;
  AlignedVector<double> b_eng(n * (k + 1)), b_ser(n * (k + 1));
  std::copy(x.begin(), x.end(), b_eng.begin());
  SweepWorkspace<double> we;
  fbmpk_level_engine_sweep_rows<double, double>(
      p.split, p.sched, ScalarRows<double>(p.split),
      std::span<const double>(x), k, we, [&](int q, index_t i, double v) {
        b_eng[static_cast<std::size_t>(q) * n + i] = v;
      });
  FbWorkspace<double> ws;
  fbmpk_power_all<double>(p.split, x, k, b_ser, ws);
  for (std::size_t i = 0; i < b_eng.size(); ++i)
    ASSERT_EQ(b_eng[i], b_ser[i]) << "entry " << i;
}

TEST(SweepEngine, PolynomialMatchesSerialBitwise) {
  ThreadGuard guard;
  set_threads(4);
  const auto a = test::random_matrix(200, 6.0, true, 33);
  const auto p = prepare(a, 4);
  const auto x = test::random_vector(200, 34);
  const AlignedVector<double> coeffs{2.0, -1.0, 0.5, -0.25, 0.125};
  const int k = static_cast<int>(coeffs.size()) - 1;
  AlignedVector<double> y_eng(200), y_ser(200);
  for (index_t i = 0; i < 200; ++i) y_eng[i] = coeffs[0] * x[i];
  SweepWorkspace<double> we;
  fbmpk_level_engine_sweep_rows<double, double>(
      p.split, p.sched, ScalarRows<double>(p.split),
      std::span<const double>(x), k, we,
      [&](int q, index_t i, double v) { y_eng[i] += coeffs[q] * v; });
  FbWorkspace<double> ws;
  fbmpk_polynomial<double>(p.split, coeffs, x, y_ser, ws);
  for (index_t i = 0; i < 200; ++i) ASSERT_EQ(y_eng[i], y_ser[i]);
}

TEST(SweepEngine, WorkspaceReusesAcrossPowersAndMatrices) {
  // One workspace across changing k and changing matrix size: resize
  // and the first-touch warm flag must not leak state between runs.
  ThreadGuard guard;
  set_threads(2);
  SweepWorkspace<double> we;
  for (const index_t n : {100, 240, 100}) {
    const auto a = test::random_matrix(n, 6.0, true, 40 + n);
    const auto p = prepare(a, 2);
    const auto x = test::random_vector(n, 41);
    for (const int k : {0, 1, 4, 5}) {
      AlignedVector<double> y_eng(n), y_ser(n);
      FbWorkspace<double> ws;
      fbmpk_level_engine_power<double>(p.split, p.sched, x, k, y_eng, we);
      fbmpk_power<double>(p.split, x, k, y_ser, ws);
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(y_eng[i], y_ser[i]) << "n=" << n << " k=" << k;
    }
  }
}

TEST(SweepEngine, OversubscribedScheduleFallsBackBitwiseCorrect) {
  // A schedule built for more threads than the runtime offers cannot
  // run point-to-point: try must refuse without touching the outputs,
  // and the wrapper must still produce the serial answer through the
  // barrier stage walk.
  ThreadGuard guard;
  set_threads(2);
  const auto a = test::random_matrix(150, 6.0, true, 51);
  const auto p = prepare(a, static_cast<index_t>(max_threads()) + 14);
  const auto x = test::random_vector(150, 52);

  SweepWorkspace<double> we;
  bool emitted = false;
  EXPECT_FALSE((fbmpk_level_engine_try_sweep_rows<double, double>(
      p.split, p.sched, ScalarRows<double>(p.split),
      std::span<const double>(x), 3, we, false,
      [&](int, index_t, double) { emitted = true; })));
  EXPECT_FALSE(emitted);

  AlignedVector<double> y_eng(150), y_ser(150);
  FbWorkspace<double> ws;
  fbmpk_level_engine_power<double>(p.split, p.sched, x, 3, y_eng, we);
  fbmpk_power<double>(p.split, x, 3, y_ser, ws);
  for (index_t i = 0; i < 150; ++i) ASSERT_EQ(y_eng[i], y_ser[i]);
}

TEST(SweepEngine, ScheduleValidatesAndRejectsTampering) {
  const auto a = test::random_matrix(250, 7.0, true, 61);
  const auto s = split_triangular(a);
  const auto levels = LevelSchedulePair::of(s);
  for (const index_t t : {1, 2, 4, 7}) {
    const auto sched = build_level_sweep_schedule(levels, s, t);
    EXPECT_TRUE(validate_level_sweep_schedule(sched, s)) << t;
    EXPECT_EQ(sched.num_threads, t);
    EXPECT_EQ(sched.fwd.part_ptr.size(),
              static_cast<std::size_t>(t * sched.fwd.num_stages + 1));
    EXPECT_EQ(sched.bwd.part_ptr.size(),
              static_cast<std::size_t>(t * sched.bwd.num_stages + 1));
  }

  const auto sched = build_level_sweep_schedule(levels, s, 3);
  {
    // A row with a forward dependency moved to the head of slot (0, 0):
    // its producer now runs later, or on another thread in the same
    // stage, or after it on the same thread.
    auto broken = sched;
    ASSERT_LT(broken.fwd.part_ptr[0], broken.fwd.part_ptr[1]);
    const auto& rp = s.lower.row_ptr();
    auto& rows = broken.fwd.part_rows;
    const auto dep = std::find_if(rows.rbegin(), rows.rend(), [&](index_t r) {
      return rp[r + 1] > rp[r];
    });
    ASSERT_NE(dep, rows.rend());
    std::swap(rows.front(), *dep);
    EXPECT_FALSE(validate_level_sweep_schedule(broken, s));
  }
  {
    auto broken = sched;  // dep pointing at a thread outside the team
    ASSERT_FALSE(broken.fwd_deps.empty());
    broken.fwd_deps.front().thread = broken.num_threads;
    EXPECT_FALSE(validate_level_sweep_schedule(broken, s));
  }
  {
    auto broken = sched;  // non-monotone partition pointer
    broken.fwd.part_ptr.back() += 1;
    EXPECT_FALSE(validate_level_sweep_schedule(broken, s));
  }
}

TEST(SweepPlanIo, PointToPointPlanRoundTrips) {
  const auto a = gen::make_laplacian_3d(8, 8, 8);
  PlanOptions opts = level_p2p_options();
  opts.sweep.threads = 2;
  auto plan = MpkPlan::build(a, opts);
  ASSERT_FALSE(plan.level_sweep_schedule().empty());
  EXPECT_EQ(plan.level_sweep_schedule().num_threads, 2);

  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);
  EXPECT_EQ(loaded.options().sweep.sync, SweepSync::kPointToPoint);
  EXPECT_EQ(loaded.options().sweep.threads, 2);
  ASSERT_FALSE(loaded.level_sweep_schedule().empty());
  EXPECT_EQ(loaded.level_sweep_schedule().num_threads, 2);
  EXPECT_EQ(loaded.level_sweep_schedule().fwd.part_rows,
            plan.level_sweep_schedule().fwd.part_rows);
  EXPECT_EQ(loaded.level_sweep_schedule().bwd.part_rows,
            plan.level_sweep_schedule().bwd.part_rows);
  EXPECT_TRUE(validate_level_sweep_schedule(loaded.level_sweep_schedule(),
                                            loaded.split()));

  const auto x = test::random_vector(a.rows(), 81);
  AlignedVector<double> ya(a.rows()), yb(a.rows());
  plan.power(x, 6, ya);
  loaded.power(x, 6, yb);
  const auto want = serial_power(a, x, 6);
  for (index_t i = 0; i < a.rows(); ++i) {
    ASSERT_EQ(ya[i], yb[i]);
    ASSERT_EQ(ya[i], want[i]);
  }
}

TEST(SweepPlanIo, PointToPointPlanMatchesBarrierPlanBitwise) {
  // Same level-blocked schedule, different synchronization: the engine
  // performs the identical FP operations per row, so the two plans
  // must agree bitwise, not just approximately.
  ThreadGuard guard;
  set_threads(4);
  const auto a = test::random_matrix(300, 7.0, true, 82);
  PlanOptions barrier_opts = level_p2p_options();
  barrier_opts.sweep.sync = SweepSync::kBarrier;
  auto barrier_plan = MpkPlan::build(a, barrier_opts);
  auto p2p_plan = MpkPlan::build(a, level_p2p_options());
  ASSERT_EQ(p2p_plan.options().sweep.sync, SweepSync::kPointToPoint);

  const auto x = test::random_vector(300, 83);
  for (const int k : {1, 4, 7}) {
    AlignedVector<double> yb(300), yp(300);
    barrier_plan.power(x, k, yb);
    p2p_plan.power(x, k, yp);
    for (index_t i = 0; i < 300; ++i) ASSERT_EQ(yb[i], yp[i]) << "k=" << k;
  }
}

TEST(SweepPlanIo, CorruptedSweepBytesAreTypedError) {
  const auto a = gen::make_laplacian_2d(12, 12);
  PlanOptions opts = level_p2p_options();
  opts.sweep.threads = 2;
  auto plan = MpkPlan::build(a, opts);
  std::stringstream buf;
  save_plan(plan, buf);
  const std::string full = buf.str();

  // Flip bytes at the head, middle and tail of the LVLS payload (its
  // frame is the tag 'LVLS' as a little-endian u32, then a u64 length);
  // the CRC turns any flip into a typed error.
  const std::size_t lvls = full.rfind(std::string{'S', 'L', 'V', 'L'});
  ASSERT_NE(lvls, std::string::npos);
  std::uint64_t len = 0;
  std::memcpy(&len, full.data() + lvls + 4, sizeof(len));
  const std::size_t payload = lvls + 12;
  ASSERT_GT(len, 2u);
  ASSERT_LE(payload + len, full.size());
  for (const std::size_t pos :
       {payload, payload + len / 2, payload + len - 1}) {
    std::string corrupt = full;
    corrupt[pos] = static_cast<char>(
        static_cast<unsigned char>(corrupt[pos]) ^ 0xff);
    std::stringstream cbuf(corrupt);
    const auto r = try_load_plan(cbuf);
    ASSERT_FALSE(r) << "flip at " << pos << " accepted";
    EXPECT_EQ(r.code(), ErrorCode::kCorruptPlan) << "flip at " << pos;
  }
}

TEST(SweepPlanIo, RebuildsScheduleWhenRuntimeThreadsDiffer) {
  if (!has_openmp()) GTEST_SKIP() << "thread count fixed without OpenMP";
  ThreadGuard guard;
  set_threads(4);
  const auto a = gen::make_laplacian_2d(14, 14);
  // threads = 0: the schedule follows the runtime default.
  auto plan = MpkPlan::build(a, level_p2p_options());
  ASSERT_EQ(plan.level_sweep_schedule().num_threads, 4);
  std::stringstream buf;
  save_plan(plan, buf);

  set_threads(2);  // loading host differs from the build host
  auto loaded = load_plan(buf);
  ASSERT_FALSE(loaded.level_sweep_schedule().empty());
  EXPECT_EQ(loaded.level_sweep_schedule().num_threads, 2);
  EXPECT_TRUE(validate_level_sweep_schedule(loaded.level_sweep_schedule(),
                                            loaded.split()));

  const auto x = test::random_vector(a.rows(), 91);
  AlignedVector<double> ya(a.rows()), yb(a.rows());
  plan.power(x, 5, ya);
  loaded.power(x, 5, yb);
  for (index_t i = 0; i < a.rows(); ++i) ASSERT_EQ(ya[i], yb[i]);
}

}  // namespace
}  // namespace fbmpk
