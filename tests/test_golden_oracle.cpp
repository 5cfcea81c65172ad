// Golden-file oracle tests (PR 4): the exact serial scalar result of
// y = A^k x for three structurally distinct suite matrices is committed
// as text vectors under tests/golden/. Any change to the sweep
// pipeline, the reorderer, the suite generators or the RNG that alters
// a single output bit fails here — the files pin the end-to-end
// numerics, not just internal invariants.
//
// Regenerate (after an *intentional* numerical change) with:
//   FBMPK_REGEN_GOLDEN=1 ./fbmpk_tests --gtest_filter='GoldenOracle.*'
// and commit the rewritten .vec files alongside the change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/plan.hpp"
#include "gen/suite.hpp"
#include "kernels/dispatch.hpp"
#include "sparse/vector_io.hpp"
#include "test_util.hpp"

#ifndef FBMPK_TEST_GOLDEN_DIR
#error "FBMPK_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace fbmpk {
namespace {

struct GoldenCase {
  const char* name;
  double scale;
};

// Small scales keep the committed vectors a few thousand entries while
// exercising a FEM mesh, a circuit network and an unsymmetric digraph.
constexpr GoldenCase kCases[] = {
    {"cant", 0.03}, {"G3_circuit", 0.04}, {"cage14", 0.04}};
constexpr int kPowers[] = {4, 16};
constexpr std::uint64_t kXSeed = 0x60f1d;

std::string golden_path(const std::string& name, int k) {
  return std::string(FBMPK_TEST_GOLDEN_DIR) + "/" + name + "_k" +
         std::to_string(k) + ".vec";
}

AlignedVector<double> oracle_power(const CsrMatrix<double>& a, int k) {
  PlanOptions o;
  o.parallel = false;
  auto plan = MpkPlan::build(a, o);
  const auto x = test::random_vector(a.rows(), kXSeed);
  AlignedVector<double> y(x.size());
  plan.power(x, k, y);
  return y;
}

/// True when this build contracts `a*b + c` into a fused multiply-add
/// (e.g. GCC's default `-ffp-contract=fast` with an FMA-capable
/// `-march`). Probe: pick a so fl(a·a) loses low product bits; the
/// contracted form keeps them through the subtraction, the separately
/// rounded form (forced via a volatile) does not.
///   a = 1 + 2^-30, a·a = 1 + 2^-29 + 2^-60
///   fl(a·a) - 1 = 2^-29          (the 2^-60 tail rounds away)
///   fma(a,a,-1) = 2^-29 + 2^-60  (exact, representable)
bool build_contracts_fma() {
  volatile double av = 1.0 + std::ldexp(1.0, -30);
  const double a1 = av;
  volatile double prod = a1 * a1;  // separately rounded product
  const double unfused = prod - 1.0;
  // Fresh volatile load: a2*a2 is a distinct value, so CSE can't reuse
  // the rounded product above and the multiply feeds the subtraction
  // directly — a contraction candidate.
  const double a2 = av;
  const double maybe_fused = a2 * a2 - 1.0;
  return maybe_fused != unfused;
}

TEST(GoldenOracle, SerialScalarPowerMatchesCommittedVectors) {
  const bool regen = std::getenv("FBMPK_REGEN_GOLDEN") != nullptr;
  // The committed vectors pin the bits of the non-contracted default
  // build. A build that fuses multiply-adds (the CI `simd` job's
  // -march=x86-64-v3, for one) legitimately produces different — not
  // wrong — bits, so the cross-build comparison is meaningless there;
  // in-build reproducibility is what the bitwise and property suites
  // assert, and they run under every build. Refuse to regenerate from
  // a contracting build for the same reason.
  if (build_contracts_fma())
    GTEST_SKIP() << "build contracts a*b+c into fma; golden vectors pin "
                    "the non-contracted default build";
  for (const GoldenCase& c : kCases) {
    const auto a = gen::make_suite_matrix(c.name, c.scale).matrix;
    for (const int k : kPowers) {
      SCOPED_TRACE(std::string(c.name) + " k=" + std::to_string(k));
      const auto y = oracle_power(a, k);
      const std::string path = golden_path(c.name, k);
      if (regen) {
        write_vector_file(path, y);
        continue;
      }
      const auto want = read_vector_file(path);
      ASSERT_EQ(y.size(), want.size());
      // setprecision(17) round-trips doubles exactly, so the committed
      // text pins the result bit-for-bit.
      for (std::size_t i = 0; i < y.size(); ++i)
        ASSERT_EQ(y[i], want[i]) << "i=" << i;
    }
  }
}

// Level-scheduled golden vectors: the natural-order numerics of the
// level scheduler's engine path, pinned end-to-end (the permutation
// changes each row sum's accumulation order, so these differ from the
// reordered vectors above by design — see docs/PARALLELISM.md). The
// property suite proves every level schedule bitwise-equal to the
// natural serial sweep; this file pins what that sweep computes.
// Regenerate like the serial vectors:
//   FBMPK_REGEN_GOLDEN=1 ./fbmpk_tests --gtest_filter='GoldenOracle.*'
TEST(GoldenOracle, LevelScheduledPowerMatchesCommittedVectors) {
  const bool regen = std::getenv("FBMPK_REGEN_GOLDEN") != nullptr;
  if (build_contracts_fma())
    GTEST_SKIP() << "build contracts a*b+c into fma; golden vectors pin "
                    "the non-contracted default build";
  for (const GoldenCase& c : {GoldenCase{"cant", 0.03},
                              GoldenCase{"G3_circuit", 0.04}}) {
    const auto a = gen::make_suite_matrix(c.name, c.scale).matrix;
    const auto x = test::random_vector(a.rows(), kXSeed);
    const int k = 4;
    SCOPED_TRACE(std::string(c.name) + " levels k=" + std::to_string(k));

    PlanOptions o;
    o.reorder = false;
    o.parallel = true;
    o.scheduler = Scheduler::kLevels;
    o.sweep.sync = SweepSync::kPointToPoint;
    auto plan = MpkPlan::build(a, o);
    AlignedVector<double> y(x.size());
    plan.power(x, k, y);

    const std::string path = std::string(FBMPK_TEST_GOLDEN_DIR) + "/" +
                             c.name + "_levels_k" + std::to_string(k) +
                             ".vec";
    if (regen) {
      write_vector_file(path, y);
      continue;
    }
    const auto want = read_vector_file(path);
    ASSERT_EQ(y.size(), want.size());
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(y[i], want[i]) << "i=" << i;
  }
}

// The golden files double as an accuracy oracle for every fast / mixed-
// precision configuration: fp32 storage on the auto-resolved backend
// with compressed indices must stay within the
// documented bound of the committed exact result.
TEST(GoldenOracle, MixedPrecisionStaysWithinBoundOfGoldenVectors) {
  if (std::getenv("FBMPK_REGEN_GOLDEN") != nullptr)
    GTEST_SKIP() << "regenerating golden files";
  const double eps64 = std::numeric_limits<double>::epsilon();
  for (const GoldenCase& c : kCases) {
    const auto a = gen::make_suite_matrix(c.name, c.scale).matrix;
    const auto x = test::random_vector(a.rows(), kXSeed);

    double anorm = 0.0, xnorm = 0.0;
    index_t mrow = 0;
    for (index_t i = 0; i < a.rows(); ++i) {
      double row = 0.0;
      for (index_t j = a.row_ptr()[i]; j < a.row_ptr()[i + 1]; ++j)
        row += std::abs(a.values()[j]);
      anorm = std::max(anorm, row);
      mrow = std::max(mrow, a.row_nnz(i));
    }
    for (double v : x) xnorm = std::max(xnorm, std::abs(v));

    for (const int k : kPowers) {
      const auto want = read_vector_file(golden_path(c.name, k));
      SCOPED_TRACE(std::string(c.name) + " k=" + std::to_string(k));
      PlanOptions o;
      o.parallel = false;
      o.kernel_backend = resolve_backend(KernelBackend::kAuto);
      o.index_compress = true;
      o.value_precision = ValuePrecision::kFp32;
      auto plan = MpkPlan::build(a, o);
      AlignedVector<double> y(x.size());
      plan.power(x, k, y);

      const double eps_f32 = 0x1.0p-24;
      const double bound = 8.0 * k *
                           (static_cast<double>(mrow) * eps64 + eps_f32) *
                           std::pow(anorm, k) * xnorm;
      ASSERT_EQ(y.size(), want.size());
      for (std::size_t i = 0; i < y.size(); ++i)
        ASSERT_LE(std::abs(y[i] - want[i]), bound) << "i=" << i;
    }
  }
}

}  // namespace
}  // namespace fbmpk
