// Fast-mode sweeps: backend dispatch, compressed indices, error bound
// and cross-schedule determinism (PR 3).
#include "kernels/fb_simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "kernels/dispatch.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

double inf_norm_matrix(const CsrMatrix<double>& a) {
  double norm = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double row = 0.0;
    for (index_t j = a.row_ptr()[i]; j < a.row_ptr()[i + 1]; ++j)
      row += std::abs(a.values()[j]);
    norm = std::max(norm, row);
  }
  return norm;
}

double inf_norm(std::span<const double> v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

index_t max_row_nnz(const CsrMatrix<double>& a) {
  index_t m = 0;
  for (index_t i = 0; i < a.rows(); ++i) m = std::max(m, a.row_nnz(i));
  return m;
}

std::vector<KernelBackend> available_vector_backends() {
  std::vector<KernelBackend> v;
  if (backend_available(KernelBackend::kAvx2))
    v.push_back(KernelBackend::kAvx2);
  return v;
}

TEST(Dispatch, BackendNamesRoundTrip) {
  for (const KernelBackend b :
       {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kAvx2})
    EXPECT_EQ(parse_backend(backend_name(b)), b);
  EXPECT_THROW(parse_backend("sse9"), Error);
  try {
    parse_backend("sse9");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
  }
}

TEST(Dispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(backend_available(KernelBackend::kAuto));
  EXPECT_TRUE(backend_available(KernelBackend::kScalar));
  const KernelBackend resolved = resolve_backend(KernelBackend::kAuto);
  EXPECT_NE(resolved, KernelBackend::kAuto);
  EXPECT_TRUE(backend_available(resolved));
  // kAuto picks AVX2 whenever the CPU has it (unless FBMPK_BACKEND pins
  // the portable path), and the scalar backend otherwise.
  const char* env = std::getenv("FBMPK_BACKEND");
  if (env == nullptr || std::string(env) == "auto") {
    EXPECT_EQ(resolved, backend_available(KernelBackend::kAvx2)
                            ? KernelBackend::kAvx2
                            : KernelBackend::kScalar);
  }
  // Non-auto requests pass through unchanged.
  EXPECT_EQ(resolve_backend(KernelBackend::kScalar), KernelBackend::kScalar);
}

// The deleted backend and precision names are typed errors that list
// what remains, not silent fallbacks.
TEST(Dispatch, RemovedVariantNamesAreUnsupported) {
  for (const char* name : {"generic", "avx512"}) {
    try {
      parse_backend(name);
      FAIL() << name << " must be rejected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnsupported) << name;
      EXPECT_NE(std::string(e.what()).find("auto|scalar|avx2"),
                std::string::npos)
          << e.what();
    }
  }
  try {
    parse_precision("split");
    FAIL() << "split precision must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
  }
}

TEST(Dispatch, RowKernelsTableHasAllEntries) {
  for (const KernelBackend b :
       {KernelBackend::kScalar, KernelBackend::kAuto}) {
    const RowOps& ops = row_kernels(b);
    EXPECT_NE(ops.dot2_btb, nullptr);
    EXPECT_NE(ops.dot1_btb, nullptr);
    EXPECT_NE(ops.dot2_btb_u16, nullptr);
    EXPECT_NE(ops.dot1_btb_u16, nullptr);
  }
}

// Scalar backend + compressed indices must be bitwise identical to the
// exact path: the u16 decode twins replicate the accumulation order.
TEST(FbSimd, ScalarCompressedIsBitwiseExact) {
  const auto a = test::random_matrix(400, 8.0, /*symmetric=*/true, 21);
  const auto x = test::random_vector(a.rows(), 3);

  for (const bool parallel : {false, true}) {
    PlanOptions exact;
    exact.parallel = parallel;
    PlanOptions packed = exact;
    packed.index_compress = true;

    auto pe = MpkPlan::build(a, exact);
    auto pp = MpkPlan::build(a, packed);
    ASSERT_EQ(pp.resolved_backend(), KernelBackend::kScalar);
    EXPECT_GT(pp.stats().packed_index_bytes, 0u);

    AlignedVector<double> ye(x.size()), yp(x.size());
    for (const int k : {1, 2, 3, 6}) {
      pe.power(x, k, ye);
      pp.power(x, k, yp);
      for (std::size_t i = 0; i < ye.size(); ++i)
        ASSERT_EQ(ye[i], yp[i]) << "parallel=" << parallel << " k=" << k
                                << " i=" << i;
    }
  }
}

// prefetch_dist sets only the dispatched kernels' distance; the sweep's
// walk reaches them separately. At 0, a compressed exact plan's
// full-width rows (bands wider than a u16 offset) still run the exact
// helpers, which prefetch their own distance along the walk, and both
// backward forms (k even: the pair dot; k odd: the final single dot)
// stay bitwise equal to the plain exact plan.
TEST(FbSimd, ScalarCompressedIgnoresPrefetchDistance) {
  const auto a = test::random_matrix(70000, 4.0, /*symmetric=*/true, 29);
  const auto x = test::random_vector(a.rows(), 5);

  for (const bool parallel : {false, true}) {
    PlanOptions exact;
    exact.parallel = parallel;
    auto pe = MpkPlan::build(a, exact);
    for (const int dist : {0, 16}) {
      PlanOptions packed = exact;
      packed.index_compress = true;
      packed.prefetch_dist = dist;
      auto pp = MpkPlan::build(a, packed);
      ASSERT_EQ(pp.resolved_backend(), KernelBackend::kScalar);
      ASSERT_GT(pp.packed_index().upper.num_wide_bands(), 0);

      AlignedVector<double> ye(x.size()), yp(x.size());
      for (const int k : {2, 3}) {
        pe.power(x, k, ye);
        pp.power(x, k, yp);
        for (std::size_t i = 0; i < ye.size(); ++i)
          ASSERT_EQ(ye[i], yp[i]) << "parallel=" << parallel
                                  << " dist=" << dist << " k=" << k
                                  << " i=" << i;
      }
    }
  }
}

// Fast-mode error bound from docs/KERNELS.md:
//   ||fast - exact||_inf <= 4 k m eps ||A||_inf^k ||x||_inf.
TEST(FbSimd, FastModeErrorBoundHolds) {
  const auto a = test::random_matrix(500, 10.0, /*symmetric=*/true, 42);
  const auto x = test::random_vector(a.rows(), 9);
  const double anorm = inf_norm_matrix(a);
  const double xnorm = inf_norm(x);
  const double m = static_cast<double>(max_row_nnz(a));
  const double eps = std::numeric_limits<double>::epsilon();

  PlanOptions exact;
  exact.parallel = false;
  auto pe = MpkPlan::build(a, exact);
  AlignedVector<double> ye(x.size()), yf(x.size());

  for (const KernelBackend b : available_vector_backends()) {
    for (const bool compress : {false, true}) {
      PlanOptions fast = exact;
      fast.kernel_backend = b;
      fast.index_compress = compress;
      auto pf = MpkPlan::build(a, fast);
      for (const int k : {1, 2, 5, 8}) {
        pe.power(x, k, ye);
        pf.power(x, k, yf);
        const double bound =
            4.0 * k * m * eps * std::pow(anorm, k) * xnorm;
        for (std::size_t i = 0; i < ye.size(); ++i)
          ASSERT_LE(std::abs(ye[i] - yf[i]), bound)
              << backend_name(b) << " compress=" << compress << " k=" << k
              << " i=" << i;
      }
    }
  }
}

// Fast mode is deterministic across schedules: serial, the barrier
// kernel and the point-to-point level engine issue the same per-row
// kernels, so their results are bitwise identical to each other
// (though not to exact).
TEST(FbSimd, FastModeBitwiseIdenticalAcrossSchedules) {
  const auto a = test::random_matrix(600, 9.0, /*symmetric=*/true, 17);
  const auto x = test::random_vector(a.rows(), 11);
  const KernelBackend b = resolve_backend(KernelBackend::kAuto);

  PlanOptions serial;
  serial.parallel = false;
  serial.kernel_backend = b;
  serial.index_compress = true;
  // The serial pipeline and the parallel schedules must see the same
  // matrix ordering for a bitwise comparison, so reorder everywhere.
  auto ps = MpkPlan::build(a, serial);

  PlanOptions barrier = serial;
  barrier.parallel = true;
  auto pb = MpkPlan::build(a, barrier);

  // The level engine runs the natural order, so its oracle is the
  // natural-order serial plan.
  PlanOptions serial_nat = serial;
  serial_nat.reorder = false;
  auto psn = MpkPlan::build(a, serial_nat);
  PlanOptions engine = barrier;
  engine.scheduler = Scheduler::kLevels;
  engine.sweep.sync = SweepSync::kPointToPoint;
  auto pg = MpkPlan::build(a, engine);

  AlignedVector<double> ys(x.size()), yb(x.size()), ysn(x.size()),
      yg(x.size());
  for (const int k : {1, 3, 4, 8}) {
    ps.power(x, k, ys);
    pb.power(x, k, yb);
    psn.power(x, k, ysn);
    pg.power(x, k, yg);
    for (std::size_t i = 0; i < ys.size(); ++i) {
      ASSERT_EQ(ys[i], yb[i]) << "barrier k=" << k << " i=" << i;
      ASSERT_EQ(ysn[i], yg[i]) << "engine k=" << k << " i=" << i;
    }
  }
}

TEST(FbSimd, PowerAllAndPolynomialRouteThroughFastMode) {
  const auto a = test::random_matrix(250, 6.0, /*symmetric=*/true, 31);
  const auto x = test::random_vector(a.rows(), 2);
  const int k = 5;

  PlanOptions exact;
  exact.parallel = false;
  PlanOptions fast = exact;
  fast.kernel_backend = resolve_backend(KernelBackend::kAuto);
  fast.index_compress = true;

  auto pe = MpkPlan::build(a, exact);
  auto pf = MpkPlan::build(a, fast);

  const std::size_t n = x.size();
  AlignedVector<double> be(n * (k + 1)), bf(n * (k + 1));
  pe.power_all(x, k, be);
  pf.power_all(x, k, bf);
  test::expect_near_rel(bf, be, 1e-9, "power_all fast vs exact");

  const std::vector<double> coeffs{1.0, 0.5, 0.25, 0.125, 0.0625};
  AlignedVector<double> ye(n), yf(n);
  pe.polynomial(coeffs, x, ye);
  pf.polynomial(coeffs, x, yf);
  test::expect_near_rel(yf, ye, 1e-9, "polynomial fast vs exact");
}

TEST(FbSimd, DispatchRejectsUnsupportedPlanShapes) {
  const auto a = test::random_matrix(100, 5.0, /*symmetric=*/true, 3);

  {
    // Split-vector variant stays scalar-only.
    PlanOptions o;
    o.parallel = false;
    o.variant = FbVariant::kSplit;
    o.kernel_backend = KernelBackend::kAuto;
    try {
      MpkPlan::build(a, o);
      FAIL() << "split variant + vector backend must be rejected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
    }
  }
  {
    // The level scheduler runs the dispatched kernels since the
    // blocked-stage engine landed: compressed indices must build and
    // agree with the uncompressed plan bit for bit (same row kernels,
    // same schedule).
    PlanOptions o;
    o.scheduler = Scheduler::kLevels;
    o.reorder = false;
    o.index_compress = true;
    auto plan = MpkPlan::build(a, o);
    o.index_compress = false;
    auto ref = MpkPlan::build(a, o);
    const auto x = test::random_vector(a.rows(), 11);
    std::vector<double> yc(a.rows()), yr(a.rows());
    plan.power(x, 4, yc);
    ref.power(x, 4, yr);
    for (index_t i = 0; i < a.rows(); ++i) EXPECT_EQ(yc[i], yr[i]);
  }
  {
    // Prefetch distance is range-checked.
    PlanOptions o;
    o.prefetch_dist = -1;
    EXPECT_THROW(MpkPlan::build(a, o), Error);
    o.prefetch_dist = 4096;
    EXPECT_THROW(MpkPlan::build(a, o), Error);
  }
}

TEST(FbSimd, PrefetchDistanceDoesNotChangeFastResults) {
  const auto a = test::random_matrix(300, 8.0, /*symmetric=*/true, 23);
  const auto x = test::random_vector(a.rows(), 7);
  const int k = 6;

  AlignedVector<double> ref;
  for (const int dist : {0, 4, 16, 64, 1024}) {
    PlanOptions o;
    o.parallel = false;
    o.kernel_backend = resolve_backend(KernelBackend::kAuto);
    o.prefetch_dist = dist;
    auto p = MpkPlan::build(a, o);
    AlignedVector<double> y(x.size());
    p.power(x, k, y);
    if (ref.empty()) {
      ref = y;
    } else {
      for (std::size_t i = 0; i < y.size(); ++i)
        ASSERT_EQ(ref[i], y[i]) << "dist=" << dist << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace fbmpk
