// Tests for the color-scheduled parallel FBMPK (Algorithm 2): the
// parallel kernel must equal the serial kernel bitwise on the permuted
// matrix, for every power, block count and thread count.
#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "gen/stencil.hpp"
#include "gen/suite.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "kernels/mpk_baseline.hpp"
#include "reorder/abmc.hpp"
#include "sparse/split.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

struct Prepared {
  CsrMatrix<double> permuted;
  TriangularSplit<double> split;
  AbmcOrdering schedule;
};

Prepared prepare(const CsrMatrix<double>& a, index_t num_blocks) {
  AbmcOptions opts;
  opts.num_blocks = num_blocks;
  Prepared p;
  p.schedule = abmc_order(a, opts);
  p.permuted = permute_symmetric(a, p.schedule.perm);
  p.split = split_triangular(p.permuted);
  return p;
}

class ParallelFbmpkTest
    : public ::testing::TestWithParam<std::tuple<int, index_t, int>> {};

TEST_P(ParallelFbmpkTest, BitwiseEqualsSerialOnPermutedMatrix) {
  const auto [k, num_blocks, threads] = GetParam();
  set_threads(threads);
  const auto a = test::random_matrix(400, 7.0, true, 91);
  const auto p = prepare(a, num_blocks);
  const auto x = test::random_vector(400, 92);

  AlignedVector<double> y_par(400), y_ser(400);
  FbWorkspace<double> wp, ws;
  fbmpk_parallel_power<double>(p.split, p.schedule, x, k, y_par, wp);
  fbmpk_power<double>(p.split, x, k, y_ser, ws);
  for (index_t i = 0; i < 400; ++i)
    ASSERT_EQ(y_par[i], y_ser[i]) << "row " << i << " k=" << k;
  set_threads(max_threads());
}

INSTANTIATE_TEST_SUITE_P(
    PowersBlocksThreads, ParallelFbmpkTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9),
                       ::testing::Values<index_t>(1, 8, 32, 128),
                       ::testing::Values(1, 2, 4)));

TEST(ParallelFbmpk, MatchesBaselineInOriginalSpaceViaPermutation) {
  const auto a = gen::make_laplacian_2d(20, 20);
  const index_t n = a.rows();
  const auto p = prepare(a, 25);
  const auto x = test::random_vector(n, 7);

  // Permute input, run parallel FBMPK, unpermute output.
  AlignedVector<double> px(n), py(n), y(n), y_base(n);
  permute_vector<double>(p.schedule.perm, x, px);
  FbWorkspace<double> ws;
  fbmpk_parallel_power<double>(p.split, p.schedule,
                               std::span<const double>(px), 5, py, ws);
  unpermute_vector<double>(p.schedule.perm, py, y);

  MpkWorkspace<double> mws;
  mpk_power<double>(a, x, 5, y_base, mws);
  test::expect_near_rel(y, y_base, 1e-9);
}

TEST(ParallelFbmpk, PowerAllMatchesSerial) {
  const auto a = test::random_matrix(150, 6.0, false, 101);
  const auto p = prepare(a, 16);
  const auto x = test::random_vector(150, 102);
  const int k = 5;
  AlignedVector<double> b_par(150 * (k + 1)), b_ser(150 * (k + 1));
  FbWorkspace<double> wp, ws;
  fbmpk_parallel_power_all<double>(p.split, p.schedule, x, k, b_par, wp);
  fbmpk_power_all<double>(p.split, x, k, b_ser, ws);
  for (std::size_t i = 0; i < b_par.size(); ++i)
    ASSERT_EQ(b_par[i], b_ser[i]);
}

TEST(ParallelFbmpk, PolynomialMatchesSerial) {
  const auto a = test::random_matrix(150, 6.0, true, 103);
  const auto p = prepare(a, 16);
  const auto x = test::random_vector(150, 104);
  const AlignedVector<double> coeffs{1.0, 0.5, -0.25, 0.125};
  AlignedVector<double> y_par(150), y_ser(150);
  FbWorkspace<double> wp, ws;
  fbmpk_parallel_polynomial<double>(p.split, p.schedule, coeffs, x, y_par,
                                    wp);
  fbmpk_polynomial<double>(p.split, coeffs, x, y_ser, ws);
  for (index_t i = 0; i < 150; ++i) ASSERT_EQ(y_par[i], y_ser[i]);
}

TEST(ParallelFbmpk, SuiteMatricesSmallScale) {
  for (const auto& name : {"audikw_1", "G3_circuit", "cage14", "nlpkkt120"}) {
    const auto m = gen::make_suite_matrix(name, 0.02);
    const index_t n = m.matrix.rows();
    const auto p = prepare(m.matrix, 64);
    const auto x = test::random_vector(n, 1);
    AlignedVector<double> y_par(n), y_ser(n);
    FbWorkspace<double> wp, ws;
    fbmpk_parallel_power<double>(p.split, p.schedule, x, 4, y_par, wp);
    fbmpk_power<double>(p.split, x, 4, y_ser, ws);
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(y_par[i], y_ser[i]) << name << " row " << i;
  }
}

TEST(ParallelFbmpk, RejectsBadSchedule) {
  const auto a = test::random_matrix(50, 5.0, true, 105);
  const auto p = prepare(a, 8);
  const auto x = test::random_vector(50, 106);
  AlignedVector<double> y(50);
  FbWorkspace<double> ws;
  AbmcOrdering broken = p.schedule;
  broken.block_ptr.back() = 49;  // does not cover the matrix
  EXPECT_THROW(
      fbmpk_parallel_power<double>(p.split, broken, x, 3, y, ws), Error);
}

TEST(ParallelFbmpk, AbmcPointToPointRequestRunsBarrierKernel) {
  // ABMC plans have one executor, the per-color barrier kernel: a
  // point-to-point request is stored as the barrier sync that runs, the
  // plan has no engine rung, and the result is the serial oracle's.
  const auto a = test::random_matrix(300, 7.0, true, 82);
  PlanOptions opts;
  opts.sweep.sync = SweepSync::kPointToPoint;
  const auto plan = MpkPlan::build(a, opts);
  EXPECT_EQ(plan.options().scheduler, Scheduler::kAbmc);
  EXPECT_EQ(plan.options().sweep.sync, SweepSync::kBarrier);
  EXPECT_FALSE(plan.supports(ExecPath::kEngine));
  EXPECT_TRUE(plan.supports(ExecPath::kBarrier));

  PlanOptions serial;
  serial.parallel = false;
  const auto oracle = MpkPlan::build(a, serial);
  const auto x = test::random_vector(300, 83);
  MpkPlan::Workspace ws;
  AlignedVector<double> y(300), ref(300);
  for (const int k : {1, 4, 7}) {
    plan.power(x, k, y, ws);
    oracle.power(x, k, ref, ws);
    for (index_t i = 0; i < 300; ++i) ASSERT_EQ(y[i], ref[i]) << "k=" << k;
  }
  const Status st = plan.try_power(x, 3, y, ws, ExecPath::kEngine);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), ErrorCode::kUnsupported);
}

}  // namespace
}  // namespace fbmpk
