// Seeded randomized differential-testing harness for mixed-precision
// sweeps (PR 4).
//
// Every iteration draws a matrix family, size and vector from the
// committed Xorshift64 generator (test_util.hpp), then runs the full
// {value precision} x {backend} x {index compression} x {schedule}
// cross-product against the exact scalar serial oracle:
//
//   - fp64 on the scalar backend is bitwise equal to the oracle (the
//     dispatched twins replicate the accumulation order);
//   - every reduced-precision or vector configuration stays within the
//     documented bound (docs/KERNELS.md): the fast-mode reassociation
//     term plus the value-rounding term for the stored precision;
//   - fp32 storage is bitwise equal to fp64 when every matrix value is
//     a float (lossless);
//   - for a fixed configuration, every schedule — serial, the ABMC
//     per-color barrier kernel, and the level scheduler's barrier and
//     point-to-point engine (natural order, reorder off) — is bitwise
//     identical to the others.
//
// The scheduler axis honors FBMPK_SCHEDULER: "abmc" restricts the
// parallel plans to the ABMC plan, "levels" to the level pair (CI's
// scheduler job runs the harness both ways), anything else or unset
// runs all three.
//
// The iteration count comes from FBMPK_PROP_SEEDS (CI runs 5). The
// seed is attached to every assertion via SCOPED_TRACE, so a failure
// names the exact case to replay.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "gen/kkt.hpp"
#include "gen/stencil.hpp"
#include "kernels/dispatch.hpp"
#include "sparse/packed_tri.hpp"
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

/// Per-value relative rounding of the stored precision (0 for fp64:
/// the stream is the exact doubles).
double precision_eps(ValuePrecision p) {
  return p == ValuePrecision::kFp32 ? 0x1.0p-24 : 0.0;
}

/// Error bound for one configuration vs the exact result
/// (docs/KERNELS.md): reassociation + value rounding, composed over k.
double error_bound(int k, double m, double eps_prec, double anorm,
                   double xnorm) {
  const double eps64 = std::numeric_limits<double>::epsilon();
  return 8.0 * k * (m * eps64 + eps_prec) * std::pow(anorm, k) * xnorm;
}

/// A random matrix from one of four structurally distinct families.
CsrMatrix<double> draw_matrix(test::Xorshift64& rng) {
  switch (rng.next() % 4) {
    case 0:  // symmetric banded (stencil-like after reordering)
      return test::random_matrix(
          static_cast<index_t>(rng.in_range(120, 280)),
          4.0 + 6.0 * rng.uniform(), /*symmetric=*/true, rng.next());
    case 1:  // unsymmetric banded
      return test::random_matrix(
          static_cast<index_t>(rng.in_range(100, 240)),
          4.0 + 5.0 * rng.uniform(), /*symmetric=*/false, rng.next());
    case 2:  // 2D Laplacian stencil
      return gen::make_laplacian_2d(
          static_cast<index_t>(rng.in_range(9, 17)),
          static_cast<index_t>(rng.in_range(9, 17)));
    default: {  // KKT saddle point
      gen::KktOptions o;
      o.seed = rng.next();
      return gen::make_kkt_saddle(static_cast<index_t>(rng.in_range(3, 5)),
                                  static_cast<index_t>(rng.in_range(3, 5)),
                                  static_cast<index_t>(rng.in_range(3, 5)),
                                  o);
    }
  }
}

/// Quantize values to a coarse binary grid so each is exactly a float:
/// the resulting matrix is fp32-lossless.
CsrMatrix<double> quantize_values(const CsrMatrix<double>& a) {
  AlignedVector<index_t> rp(a.row_ptr().begin(), a.row_ptr().end());
  AlignedVector<index_t> ci(a.col_idx().begin(), a.col_idx().end());
  AlignedVector<double> va(a.values().begin(), a.values().end());
  for (auto& v : va) {
    v = std::round(v * 1024.0) * 0x1.0p-10;
    if (v == 0.0) v = 0x1.0p-10;  // keep the pattern (and the diagonal)
  }
  return CsrMatrix<double>(a.rows(), a.cols(), std::move(rp), std::move(ci),
                           std::move(va));
}

std::vector<KernelBackend> harness_backends() {
  std::vector<KernelBackend> v{KernelBackend::kScalar};
  const KernelBackend fast = resolve_backend(KernelBackend::kAuto);
  if (fast != KernelBackend::kScalar) v.push_back(fast);
  return v;
}

/// FBMPK_SCHEDULER env filter over the parallel-schedule axis.
struct SchedulerFilter {
  bool abmc = true;
  bool levels = true;
};

SchedulerFilter scheduler_filter() {
  const char* e = std::getenv("FBMPK_SCHEDULER");
  if (e == nullptr) return {};
  const std::string s(e);
  if (s == "abmc") return {true, false};
  if (s == "levels") return {false, true};
  return {};
}

/// One parallel plan of the schedule axis. The level plans run the
/// natural order (reorder off — the scheduler's home turf), so their
/// bitwise oracle is the *natural-order* serial plan: the permutation
/// changes each row sum's accumulation order, the schedule never does.
struct SchedPlan {
  std::string name;
  MpkPlan plan;
  bool natural = false;  ///< compare against the reorder=false oracle
};

/// The parallel plans of one configuration under the env filter:
/// ABMC barrier, level barrier + engine (natural order).
std::vector<SchedPlan> parallel_plans(const CsrMatrix<double>& a,
                                      const PlanOptions& serial) {
  const SchedulerFilter f = scheduler_filter();
  std::vector<SchedPlan> plans;
  PlanOptions barrier = serial;
  barrier.parallel = true;
  if (f.abmc) {
    plans.push_back({"abmc-barrier", MpkPlan::build(a, barrier), false});
  }
  if (f.levels) {
    PlanOptions lbarrier = barrier;
    lbarrier.scheduler = Scheduler::kLevels;
    lbarrier.reorder = false;
    plans.push_back({"levels-barrier", MpkPlan::build(a, lbarrier), true});
    PlanOptions lengine = lbarrier;
    lengine.sweep.sync = SweepSync::kPointToPoint;
    plans.push_back({"levels-engine", MpkPlan::build(a, lengine), true});
  }
  return plans;
}

/// One full cross-product check of a (matrix, vector, k) case.
void check_case(const CsrMatrix<double>& a, const AlignedVector<double>& x,
                int k) {
  const double anorm = inf_norm_matrix(a);
  const double xnorm = inf_norm(x);
  const double m = static_cast<double>(max_row_nnz(a));

  // Oracle: exact scalar serial sweep, plain indices, fp64 values.
  PlanOptions oracle_opts;
  oracle_opts.parallel = false;
  auto oracle = MpkPlan::build(a, oracle_opts);
  AlignedVector<double> yref(x.size());
  oracle.power(x, k, yref);

  AlignedVector<double> ys(x.size()), ysn(x.size()), yb(x.size());
  for (const ValuePrecision prec :
       {ValuePrecision::kFp64, ValuePrecision::kFp32}) {
    for (const KernelBackend backend : harness_backends()) {
      for (const bool compress : {false, true}) {
        SCOPED_TRACE(std::string("precision=") + precision_name(prec) +
                     " backend=" + backend_name(backend) +
                     " compress=" + (compress ? "1" : "0") +
                     " k=" + std::to_string(k));

        PlanOptions serial;
        serial.parallel = false;
        serial.kernel_backend = backend;
        serial.index_compress = compress;
        serial.value_precision = prec;
        auto ps = MpkPlan::build(a, serial);
        PlanOptions serial_nat = serial;
        serial_nat.reorder = false;
        auto psn = MpkPlan::build(a, serial_nat);

        if (prec != ValuePrecision::kFp64) {
          ASSERT_GT(ps.stats().packed_value_bytes, 0u);
        }

        ps.power(x, k, ys);
        psn.power(x, k, ysn);

        // Determinism: every schedule issues the same per-row kernels
        // in a different order but with identical operands.
        for (auto& sp : parallel_plans(a, serial)) {
          SCOPED_TRACE("schedule=" + sp.name);
          const auto& oracle_y = sp.natural ? ysn : ys;
          sp.plan.power(x, k, yb);
          for (std::size_t i = 0; i < ys.size(); ++i)
            ASSERT_EQ(oracle_y[i], yb[i]) << sp.name << " diverges at i="
                                          << i;
        }

        if (prec == ValuePrecision::kFp64 &&
            backend == KernelBackend::kScalar) {
          // Exact configurations reproduce the oracle bitwise.
          for (std::size_t i = 0; i < ys.size(); ++i)
            ASSERT_EQ(ys[i], yref[i]) << "exact config diverges at i=" << i;
        } else {
          const double bound =
              error_bound(k, m, precision_eps(prec), anorm, xnorm);
          for (std::size_t i = 0; i < ys.size(); ++i)
            ASSERT_LE(std::abs(ys[i] - yref[i]), bound)
                << "documented bound violated at i=" << i;
        }
      }
    }
  }
}

/// Batched sweeps: every lane of a try_power_batch call must be
/// bitwise identical to the serial scalar-backend B=1 run at the same
/// stored precision — the exact accumulation-order oracle — for every
/// backend, compression and schedule. nvec = 3 exercises the
/// non-power-of-two greedy chunking ({2, 1} remainder); nvec = 8 runs
/// a full one-chunk batch; nvec = 9 and 17 run several 8-wide chunks
/// plus a remainder.
void check_batched_case(const CsrMatrix<double>& a, int k,
                        test::Xorshift64& rng) {
  const index_t n = a.rows();
  constexpr int kMaxNvec = 17;
  std::vector<AlignedVector<double>> xs;
  for (int b = 0; b < kMaxNvec; ++b)
    xs.push_back(test::random_vector(n, rng.next()));

  for (const ValuePrecision prec :
       {ValuePrecision::kFp64, ValuePrecision::kFp32}) {
    for (const KernelBackend backend : harness_backends()) {
      for (const bool compress : {false, true}) {
        SCOPED_TRACE(std::string("precision=") + precision_name(prec) +
                     " backend=" + backend_name(backend) +
                     " compress=" + (compress ? "1" : "0") +
                     " k=" + std::to_string(k));

        PlanOptions serial;
        serial.parallel = false;
        serial.kernel_backend = backend;
        serial.index_compress = compress;
        serial.value_precision = prec;
        auto ps = MpkPlan::build(a, serial);
        auto parallel = parallel_plans(a, serial);

        // Per-lane B=1 oracle: scalar-backend serial run at the same
        // stored precision. The batch kernels replicate the scalar
        // accumulation order for every backend, so SIMD-backend plans
        // produce scalar-order lanes too.
        PlanOptions oracle = serial;
        oracle.kernel_backend = KernelBackend::kScalar;
        auto po = MpkPlan::build(a, oracle);
        PlanOptions oracle_nat = oracle;
        oracle_nat.reorder = false;
        auto pon = MpkPlan::build(a, oracle_nat);
        std::vector<AlignedVector<double>> yref(kMaxNvec), yref_nat(kMaxNvec);
        for (int b = 0; b < kMaxNvec; ++b) {
          yref[b].resize(n);
          po.power(xs[b], k, yref[b]);
          yref_nat[b].resize(n);
          pon.power(xs[b], k, yref_nat[b]);
        }

        for (const int nvec : {1, 2, 3, 8, 9, 17}) {
          SCOPED_TRACE("nvec=" + std::to_string(nvec));
          std::vector<const double*> xp(nvec);
          std::vector<AlignedVector<double>> ybat(nvec);
          std::vector<double*> yp(nvec);
          for (int b = 0; b < nvec; ++b) {
            xp[b] = xs[b].data();
            ybat[b].assign(static_cast<std::size_t>(n), 0.0);
            yp[b] = ybat[b].data();
          }
          struct Entry {
            std::string name;
            MpkPlan* plan;
            bool natural;
          };
          std::vector<Entry> plans{{"serial", &ps, false}};
          for (auto& sp : parallel)
            plans.push_back({sp.name, &sp.plan, sp.natural});
          for (auto& [name, plan, natural] : plans) {
            SCOPED_TRACE("schedule=" + name);
            const auto& ref = natural ? yref_nat : yref;
            for (int b = 0; b < nvec; ++b)
              std::fill(ybat[b].begin(), ybat[b].end(), 0.0);
            const Status st = plan->try_power_batch(
                xp.data(), static_cast<index_t>(nvec), k, yp.data());
            ASSERT_TRUE(st.ok()) << st.error().what();
            for (int b = 0; b < nvec; ++b) {
              SCOPED_TRACE("lane=" + std::to_string(b));
              for (index_t i = 0; i < n; ++i)
                ASSERT_EQ(ybat[b][i], ref[b][i])
                    << "batched lane diverges at i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(PropertyRandom, BatchedLanesMatchSerialOracleBitwise) {
  const int seeds = test::property_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("FBMPK_PROP_SEED=" + std::to_string(seed));
    test::Xorshift64 rng(0x42415443ull ^
                         (static_cast<std::uint64_t>(seed) << 32));
    const auto a = draw_matrix(rng);
    const int k = static_cast<int>(rng.in_range(2, 6));
    check_batched_case(a, k, rng);
  }
}

TEST(PropertyRandom, MixedPrecisionCrossProductHoldsOverRandomCases) {
  const int seeds = test::property_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("FBMPK_PROP_SEED=" + std::to_string(seed));
    test::Xorshift64 rng(0x46424d504bull ^
                         (static_cast<std::uint64_t>(seed) << 32));
    const auto a = draw_matrix(rng);
    const auto x = test::random_vector(a.rows(), rng.next());
    const int k = static_cast<int>(rng.in_range(2, 6));
    check_case(a, x, k);
  }
}

TEST(PropertyRandom, QuantizedMatrixIsFp32LosslessAndBitwiseExact) {
  const int seeds = test::property_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("FBMPK_PROP_SEED=" + std::to_string(seed));
    test::Xorshift64 rng(0x51554e54ull ^
                         (static_cast<std::uint64_t>(seed) << 32));
    const auto a = quantize_values(draw_matrix(rng));
    const auto x = test::random_vector(a.rows(), rng.next());
    const int k = static_cast<int>(rng.in_range(2, 6));

    PlanOptions exact;
    exact.parallel = false;
    auto pe = MpkPlan::build(a, exact);

    PlanOptions f32 = exact;
    f32.value_precision = ValuePrecision::kFp32;
    f32.index_compress = true;
    auto pf = MpkPlan::build(a, f32);
    ASSERT_TRUE(pf.packed_values().lossless())
        << "quantized values must be exact floats";

    AlignedVector<double> ye(x.size()), yf(x.size());
    pe.power(x, k, ye);
    pf.power(x, k, yf);
    for (std::size_t i = 0; i < ye.size(); ++i)
      ASSERT_EQ(ye[i], yf[i]) << "i=" << i;
  }
}

// The fp32 stream really is floats: a matrix whose values do not fit
// float range must be rejected at build, not silently truncated.
TEST(PropertyRandom, OutOfFloatRangeValuesAreRejected) {
  auto a = test::random_matrix(80, 5.0, /*symmetric=*/true, 77);
  AlignedVector<index_t> rp(a.row_ptr().begin(), a.row_ptr().end());
  AlignedVector<index_t> ci(a.col_idx().begin(), a.col_idx().end());
  AlignedVector<double> va(a.values().begin(), a.values().end());
  va[va.size() / 2] = 1e60;  // far beyond FLT_MAX
  CsrMatrix<double> big(a.rows(), a.cols(), std::move(rp), std::move(ci),
                        std::move(va));

  PlanOptions o;
  o.value_precision = ValuePrecision::kFp32;
  try {
    MpkPlan::build(big, o);
    FAIL() << "out-of-range values accepted for fp32";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported);
  }
}

}  // namespace
}  // namespace fbmpk
