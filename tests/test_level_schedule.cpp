// Tests for level scheduling (paper §VII alternative parallelization):
// schedule construction, validity, and bitwise agreement of the
// level-scheduled FBMPK kernel with the serial kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/plan.hpp"
#include "gen/stencil.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_level.hpp"
#include "kernels/fbmpk_level_engine.hpp"
#include "kernels/mpk_baseline.hpp"
#include "reorder/level_blocking.hpp"
#include "reorder/level_schedule.hpp"
#include "sparse/split.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

TEST(LevelSchedule, ChainMatrixHasOneLevelPerRow) {
  // Bidiagonal chain: row i depends on i-1, so n forward levels.
  CooMatrix<double> coo(6, 6);
  for (index_t i = 0; i < 6; ++i) {
    coo.add(i, i, 2.0);
    if (i > 0) coo.add(i, i - 1, -1.0);
  }
  const auto s = split_triangular(CsrMatrix<double>::from_coo(coo));
  const auto fwd = forward_levels(s.lower);
  EXPECT_EQ(fwd.num_levels, 6);
  EXPECT_TRUE(is_valid_level_schedule(s.lower, fwd, false));
  // Upper triangle empty: everything is level 0 backward.
  const auto bwd = backward_levels(s.upper);
  EXPECT_EQ(bwd.num_levels, 1);
}

TEST(LevelSchedule, DiagonalMatrixIsOneLevel) {
  CooMatrix<double> coo(5, 5);
  for (index_t i = 0; i < 5; ++i) coo.add(i, i, 1.0);
  const auto s = split_triangular(CsrMatrix<double>::from_coo(coo));
  EXPECT_EQ(forward_levels(s.lower).num_levels, 1);
  EXPECT_EQ(backward_levels(s.upper).num_levels, 1);
}

TEST(LevelSchedule, ValidOnRandomAndGridMatrices) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto a = test::random_matrix(300, 7.0, seed % 2 == 0, seed);
    const auto s = split_triangular(a);
    const auto fwd = forward_levels(s.lower);
    const auto bwd = backward_levels(s.upper);
    EXPECT_TRUE(is_valid_level_schedule(s.lower, fwd, false)) << seed;
    EXPECT_TRUE(is_valid_level_schedule(s.upper, bwd, true)) << seed;
  }
  const auto g = gen::make_laplacian_2d(20, 20);
  const auto s = split_triangular(g);
  EXPECT_TRUE(is_valid_level_schedule(s.lower, forward_levels(s.lower),
                                      false));
}

TEST(LevelSchedule, ForwardAndBackwardLevelCountsMirrorOnSymmetric) {
  const auto a = test::random_matrix(200, 6.0, true, 9);
  const auto s = split_triangular(a);
  // For a symmetric pattern U = L^T, so the dependency DAGs are mirror
  // images and the level counts coincide.
  EXPECT_EQ(forward_levels(s.lower).num_levels,
            backward_levels(s.upper).num_levels);
}

TEST(LevelSchedule, DetectsInvalidSchedules) {
  const auto a = test::random_matrix(50, 5.0, true, 11);
  const auto s = split_triangular(a);
  auto fwd = forward_levels(s.lower);
  // Collapse everything into one level: invalid unless L is empty.
  LevelSchedule broken;
  broken.num_levels = 1;
  broken.level_ptr = {0, a.rows()};
  broken.rows = fwd.rows;
  EXPECT_FALSE(is_valid_level_schedule(s.lower, broken, false));
}

class LevelKernelTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(LevelKernelTest, BitwiseEqualsSerial) {
  const auto [k, threads] = GetParam();
  set_threads(threads);
  const auto a = test::random_matrix(350, 8.0, false, 77);
  const auto s = split_triangular(a);
  const auto sched = build_level_sweep_schedule(
      LevelSchedulePair::of(s), s, static_cast<index_t>(threads));
  const auto x = test::random_vector(350, 78);

  AlignedVector<double> y_lvl(350), y_ser(350);
  FbWorkspace<double> wl, ws;
  fbmpk_level_power<double>(s, sched, x, k, y_lvl, wl);
  fbmpk_power<double>(s, x, k, y_ser, ws);
  for (index_t i = 0; i < 350; ++i)
    ASSERT_EQ(y_lvl[i], y_ser[i]) << "row " << i << " k=" << k;
  set_threads(max_threads());
}

INSTANTIATE_TEST_SUITE_P(
    PowersAndThreads, LevelKernelTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(1, 4)));

TEST(LevelKernel, PlanWithLevelSchedulerNoReorder) {
  const auto a = gen::make_laplacian_3d(12, 12, 12);
  PlanOptions opts;
  opts.reorder = false;
  opts.parallel = true;
  opts.scheduler = Scheduler::kLevels;
  auto plan = MpkPlan::build(a, opts);
  // No ABMC reorder: the permutation is the ownership renumbering, and
  // the stored forward schedule walks rows 0..n-1 in slot order.
  EXPECT_EQ(plan.stats().num_colors, 0);
  const auto& fwd = plan.level_sweep_schedule().fwd;
  for (index_t q = 0; q < a.rows(); ++q) ASSERT_EQ(fwd.part_rows[q], q);
  EXPECT_GT(plan.stats().num_levels_forward, 1);
  EXPECT_GT(plan.stats().num_levels_backward, 1);

  const auto x = test::random_vector(a.rows(), 5);
  AlignedVector<double> y(a.rows()), ref(a.rows());
  plan.power(x, 5, y);
  MpkWorkspace<double> mws;
  mpk_power<double>(a, x, 5, ref, mws);
  test::expect_near_rel(y, ref, 1e-9);
}

TEST(LevelKernel, PlanLevelsWithReorderAlsoWorks) {
  const auto a = test::random_matrix(250, 6.0, true, 13);
  PlanOptions opts;
  opts.reorder = true;
  opts.parallel = true;
  opts.scheduler = Scheduler::kLevels;
  auto plan = MpkPlan::build(a, opts);
  const auto x = test::random_vector(a.rows(), 14);
  AlignedVector<double> y(a.rows()), ref(a.rows());
  plan.power(x, 4, y);
  MpkWorkspace<double> mws;
  mpk_power<double>(a, x, 4, ref, mws);
  test::expect_near_rel(y, ref, 1e-9);
}

TEST(LevelKernel, PlanPowerAllAndPolynomial) {
  const auto a = test::random_matrix(150, 5.0, true, 15);
  PlanOptions opts;
  opts.reorder = false;
  opts.parallel = true;
  opts.scheduler = Scheduler::kLevels;
  auto plan = MpkPlan::build(a, opts);
  const auto x = test::random_vector(150, 16);

  const int k = 4;
  AlignedVector<double> basis(150 * (k + 1));
  plan.power_all(x, k, basis);
  for (int p = 0; p <= k; ++p) {
    const auto ref = test::dense_power_reference(a, x, p);
    test::expect_near_rel(
        std::span<const double>(basis).subspan(150 * p, 150), ref, 1e-8);
  }

  const AlignedVector<double> coeffs{1.0, -0.5, 0.25};
  AlignedVector<double> y(150), ref(150);
  plan.polynomial(coeffs, x, y);
  MpkWorkspace<double> mws;
  mpk_polynomial<double>(a, coeffs, x, ref, mws);
  test::expect_near_rel(y, ref, 1e-9);
}

// ---------------------------------------------------------------------
// Level blocking (reorder/level_blocking): structural invariants of the
// aggregated point-to-point schedule the level engine consumes.

/// Every row appears in exactly one (thread, stage) slot of `dir`.
void expect_partition_covers(const LevelBlockDirection& dir, index_t threads,
                             index_t n) {
  std::vector<index_t> seen(dir.part_rows.begin(), dir.part_rows.end());
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(n));
  std::sort(seen.begin(), seen.end());
  for (index_t i = 0; i < n; ++i) ASSERT_EQ(seen[i], i);
  ASSERT_EQ(dir.part_ptr.size(),
            static_cast<std::size_t>(threads) * dir.num_stages + 1);
}

/// The blocking invariant, asserted from first principles: inside one
/// stage every dependency edge is intra-thread and producer-first.
void expect_no_intra_stage_forward_dependency(
    const LevelBlockDirection& dir, index_t threads,
    const CsrMatrix<double>& tri, bool upper) {
  const index_t n = tri.rows();
  std::vector<index_t> owner_thread(n, -1), owner_stage(n, -1),
      pos(n, -1);
  for (index_t t = 0; t < threads; ++t)
    for (index_t s = 0; s < dir.num_stages; ++s) {
      const auto slot = dir.slot(t, s);
      for (index_t r = dir.part_ptr[slot]; r < dir.part_ptr[slot + 1]; ++r) {
        const index_t row = dir.part_rows[r];
        owner_thread[row] = t;
        owner_stage[row] = s;
        pos[row] = r;
      }
    }
  for (index_t i = 0; i < n; ++i) {
    for (index_t e = tri.row_ptr()[i]; e < tri.row_ptr()[i + 1]; ++e) {
      const index_t j = tri.col_idx()[e];
      // The sweep computes row i after its dependency j (j < i forward
      // over L; j > i backward over U — both are "j first").
      ASSERT_TRUE(upper ? j > i : j < i);
      if (owner_stage[i] != owner_stage[j]) continue;
      ASSERT_EQ(owner_thread[i], owner_thread[j])
          << "cross-thread edge inside stage " << owner_stage[i] << ": row "
          << i << " depends on " << j;
      ASSERT_LT(pos[j], pos[i])
          << "consumer " << i << " stored before producer " << j;
    }
  }
}

TEST(LevelBlocking, ScheduleStructurallyValidAcrossThreadCounts) {
  const CsrMatrix<double> mats[] = {
      test::random_matrix(300, 7.0, true, 21),
      test::random_matrix(260, 6.0, false, 22),
      gen::make_laplacian_2d(18, 18),
  };
  for (const auto& a : mats) {
    const auto s = split_triangular(a);
    const auto levels = LevelSchedulePair::of(s);
    for (index_t threads : {1, 2, 4, 7}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const auto sched = build_level_sweep_schedule(levels, s, threads);
      ASSERT_EQ(sched.num_threads, threads);
      EXPECT_TRUE(validate_level_sweep_schedule(sched, s));
      expect_partition_covers(sched.fwd, threads, a.rows());
      expect_partition_covers(sched.bwd, threads, a.rows());
      expect_no_intra_stage_forward_dependency(sched.fwd, threads, s.lower,
                                               false);
      expect_no_intra_stage_forward_dependency(sched.bwd, threads, s.upper,
                                               true);
      // Aggregation only merges: stage count never exceeds level count.
      EXPECT_LE(sched.fwd.num_stages, levels.forward.num_levels);
      EXPECT_LE(sched.bwd.num_stages, levels.backward.num_levels);
    }
  }
}

TEST(LevelBlocking, AggregationMergesLevelsUnderSmallBudgets) {
  // On a connected graph any multi-level stage is one connected
  // component, so with T >= 2 the balance predicate correctly keeps
  // stages at single levels; with one thread the component constraint
  // vanishes and a large budget must collapse many levels per stage.
  const auto a = gen::make_laplacian_2d(24, 24);
  const auto s = split_triangular(a);
  const auto levels = LevelSchedulePair::of(s);
  LevelBlockingOptions big;
  big.stage_bytes = 64u << 20;
  const auto merged = build_level_sweep_schedule(levels, s, 1, big);
  EXPECT_TRUE(validate_level_sweep_schedule(merged, s));
  EXPECT_LT(merged.fwd.num_stages, levels.forward.num_levels / 2);

  const auto two = build_level_sweep_schedule(levels, s, 2, big);
  EXPECT_TRUE(validate_level_sweep_schedule(two, s));
}

TEST(LevelBlocking, ValidatorRejectsCorruptedSchedules) {
  const auto a = test::random_matrix(200, 7.0, true, 31);
  const auto s = split_triangular(a);
  const auto levels = LevelSchedulePair::of(s);
  const auto good = build_level_sweep_schedule(levels, s, 4);
  ASSERT_TRUE(validate_level_sweep_schedule(good, s));

  {  // duplicated row: partition no longer covers each row once
    auto bad = good;
    ASSERT_GE(bad.fwd.part_rows.size(), 2u);
    bad.fwd.part_rows[0] = bad.fwd.part_rows[1];
    EXPECT_FALSE(validate_level_sweep_schedule(bad, s));
  }
  {  // truncated stage map
    auto bad = good;
    bad.fwd.stage_level_ptr.pop_back();
    EXPECT_FALSE(validate_level_sweep_schedule(bad, s));
  }
  if (!good.fwd_deps.empty()) {  // dropped point-to-point coverage
    auto bad = good;
    for (auto& d : bad.fwd_deps) d.stage = 0;
    bad.fwd_deps.clear();
    std::fill(bad.fwd_dep_ptr.begin(), bad.fwd_dep_ptr.end(), 0);
    EXPECT_FALSE(validate_level_sweep_schedule(bad, s));
  }
}

// ---------------------------------------------------------------------
// Level engine (kernels/fbmpk_level_engine): bitwise agreement with the
// serial kernel across thread counts and odd/even k.

class LevelEngineTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LevelEngineTest, BitwiseEqualsSerial) {
  const auto [k, threads] = GetParam();
  set_threads(threads);
  const auto a = test::random_matrix(340, 8.0, false, 91);
  const auto s = split_triangular(a);
  const auto levels = LevelSchedulePair::of(s);
  const auto sched =
      build_level_sweep_schedule(levels, s, static_cast<index_t>(threads));
  const auto x = test::random_vector(340, 92);

  AlignedVector<double> y_eng(340), y_ser(340);
  SweepWorkspace<double> we;
  FbWorkspace<double> ws;
  fbmpk_level_engine_power<double>(s, sched, x, k, y_eng, we);
  fbmpk_power<double>(s, x, k, y_ser, ws);
  for (index_t i = 0; i < 340; ++i)
    ASSERT_EQ(y_eng[i], y_ser[i]) << "row " << i << " k=" << k;
  set_threads(max_threads());
}

INSTANTIATE_TEST_SUITE_P(
    PowersAndThreads, LevelEngineTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7),
                       ::testing::Values(1, 2, 4, 7)));

TEST(LevelEngine, PlanPointToPointUsesLevelScheduleAndMatchesSerial) {
  const auto a = gen::make_laplacian_2d(22, 22);
  PlanOptions opts;
  opts.reorder = false;
  opts.parallel = true;
  opts.scheduler = Scheduler::kLevels;
  opts.sweep.sync = SweepSync::kPointToPoint;
  auto plan = MpkPlan::build(a, opts);
  ASSERT_FALSE(plan.level_sweep_schedule().empty());
  EXPECT_EQ(plan.level_sweep_schedule().num_threads,
            static_cast<index_t>(max_threads()));

  // The levels plan runs the natural order, so the bitwise oracle is
  // the natural-order serial plan (the permutation changes the row-sum
  // accumulation order, the schedule does not).
  PlanOptions serial;
  serial.parallel = false;
  serial.reorder = false;
  auto ps = MpkPlan::build(a, serial);

  const auto x = test::random_vector(a.rows(), 17);
  AlignedVector<double> y(a.rows()), ref(a.rows());
  for (int k : {1, 4, 5}) {
    plan.power(x, k, y);
    ps.power(x, k, ref);
    for (index_t i = 0; i < a.rows(); ++i)
      ASSERT_EQ(y[i], ref[i]) << "row " << i << " k=" << k;
  }
}

TEST(LevelEngine, AutoSchedulerResolvesStructurally) {
  // !reorder forces the level scheduler; a reordered build probes the
  // mean forward level width and records its pick in the options.
  const auto a = gen::make_laplacian_2d(16, 16);
  PlanOptions opts;
  opts.reorder = false;
  opts.parallel = true;
  opts.scheduler = Scheduler::kAuto;
  auto plan = MpkPlan::build(a, opts);
  EXPECT_EQ(plan.options().scheduler, Scheduler::kLevels);

  PlanOptions ro;
  ro.parallel = true;
  ro.scheduler = Scheduler::kAuto;
  auto plan2 = MpkPlan::build(a, ro);
  EXPECT_NE(plan2.options().scheduler, Scheduler::kAuto);
}

TEST(LevelEngine, AutoProbeMeasuresTheOriginalOrder) {
  // The probe reads the level width of the order a level plan runs in
  // (the original one), before any reorder. A narrow strip is a chain
  // there, whatever ABMC would make of it, so it gets ABMC; a wide
  // random graph gets levels and never pays for the ABMC reorder.
  PlanOptions o;
  o.parallel = true;
  o.scheduler = Scheduler::kAuto;
  o.sweep.threads = 4;
  const auto strip = gen::make_laplacian_2d(2, 2000);  // ~2000 levels
  EXPECT_EQ(MpkPlan::build(strip, o).options().scheduler, Scheduler::kAbmc);

  const auto wide = test::random_matrix(4000, 3.0, false, 71);
  auto plan = MpkPlan::build(wide, o);
  EXPECT_EQ(plan.options().scheduler, Scheduler::kLevels);
  EXPECT_EQ(plan.stats().num_colors, 0);
  EXPECT_EQ(plan.stats().reorder_seconds, 0.0);
}

TEST(LevelKernel, GridLevelsAreFarFewerThanRows) {
  // Grid matrices have wide wavefronts: level count ~ grid diameter,
  // much smaller than n — the property that makes the schedule useful.
  const auto a = gen::make_laplacian_2d(30, 30);
  const auto s = split_triangular(a);
  const auto fwd = forward_levels(s.lower);
  EXPECT_LT(fwd.num_levels, a.rows() / 4);
  EXPECT_GE(fwd.num_levels, 30);  // at least the grid diameter
}

}  // namespace
}  // namespace fbmpk
