// Level-scheduled plans store their split renumbered by thread
// ownership. Every entry point must still reproduce the natural-order
// serial sweep of the *unpermuted* matrix bit for bit: the oracle here
// is fbmpk_power & co. on split_triangular(a), never the plan's own
// serial rung (which walks the renumbered storage too).
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "gen/random_sparse.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_recurrence.hpp"
#include "sparse/split.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

constexpr int kK = 5;  // odd: exercises the tail stage too

/// Runtime team size for the scope; restores the default on exit.
struct TeamScope {
  explicit TeamScope(int t) : saved(max_threads()) { set_threads(t); }
  ~TeamScope() { set_threads(saved); }
  int saved;
};

void expect_bitwise(std::span<const double> got, std::span<const double> want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(double)), 0)
        << what << " diverges at row " << i << ": " << got[i] << " vs "
        << want[i];
}

PlanOptions level_options(SweepSync sync) {
  PlanOptions o;
  o.reorder = false;
  o.scheduler = Scheduler::kLevels;
  o.sweep.sync = sync;
  return o;
}

/// Natural-order oracles on the unpermuted split.
struct Oracle {
  explicit Oracle(const CsrMatrix<double>& a)
      : s(split_triangular(a)), n(a.rows()) {}

  AlignedVector<double> power(std::span<const double> x, int k) const {
    AlignedVector<double> y(n);
    FbWorkspace<double> ws;
    fbmpk_power<double>(s, x, k, y, ws);
    return y;
  }
  AlignedVector<double> power_all(std::span<const double> x, int k) const {
    AlignedVector<double> out(static_cast<std::size_t>(n) * (k + 1));
    FbWorkspace<double> ws;
    fbmpk_power_all<double>(s, x, k, out, ws);
    return out;
  }
  /// Same per-element operation sequence as MpkPlan::polynomial.
  template <class C>
  std::vector<C> polynomial(std::span<const C> coeffs,
                            std::span<const double> x) const {
    std::vector<C> y(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) y[i] = coeffs[0] * x[i];
    FbWorkspace<double> ws;
    fbmpk_sweep(s, x, static_cast<int>(coeffs.size()) - 1, ws,
                [&](int p, index_t i, double v) { y[i] += coeffs[p] * v; });
    return y;
  }
  AlignedVector<double> recurrence(
      std::span<const RecurrenceStep<double>> steps,
      std::span<const double> x) const {
    AlignedVector<double> y(n);
    FbWorkspace<double> ws;
    const int k = static_cast<int>(steps.size());
    fbmpk_recurrence_sweep(s, steps, x, ws, [&](int p, index_t i, double v) {
      if (p == k) y[i] = v;
    });
    return y;
  }

  TriangularSplit<double> s;
  index_t n;
};

/// Every entry point of `plan` against the oracle.
void check_plan(MpkPlan& plan, const Oracle& o, const std::string& what) {
  const index_t n = o.n;
  const auto x = test::random_vector(n, 7);

  AlignedVector<double> y(n);
  plan.power(x, kK, y);
  expect_bitwise(y, o.power(x, kK), what + " power");
  plan.power(x, kK - 1, y);  // even k: no tail stage
  expect_bitwise(y, o.power(x, kK - 1), what + " power k-1");

  AlignedVector<double> basis(static_cast<std::size_t>(n) * (kK + 1));
  plan.power_all(x, kK, basis);
  expect_bitwise(basis, o.power_all(x, kK), what + " power_all");

  const std::vector<double> c{0.5, -1.0, 0.25, 2.0};
  AlignedVector<double> yp(n);
  plan.polynomial(c, x, yp);
  const auto want_p = o.polynomial<double>(c, x);
  expect_bitwise(yp, want_p, what + " polynomial");

  const std::vector<std::complex<double>> cc{{1.0, 0.5}, {-0.5, 2.0},
                                             {0.25, -1.0}};
  std::vector<std::complex<double>> yc(static_cast<std::size_t>(n));
  plan.polynomial(cc, x, yc);
  const auto want_c = o.polynomial<std::complex<double>>(cc, x);
  for (index_t i = 0; i < n; ++i)
    ASSERT_EQ(std::memcmp(&yc[i], &want_c[i], sizeof(yc[i])), 0)
        << what << " complex polynomial diverges at row " << i;

  const std::vector<RecurrenceStep<double>> steps{
      {2.0, -0.5, 0.0}, {2.0, 0.0, -1.0}, {1.5, 0.25, -1.0}};
  AlignedVector<double> yr(n);
  ASSERT_TRUE(plan.recurrence(steps, x, yr).ok) << what;
  expect_bitwise(yr, o.recurrence(steps, x), what + " recurrence");

  const auto want = o.power(x, kK);
  MpkPlan::Workspace ws;
  for (ExecPath path : {ExecPath::kDefault, ExecPath::kEngine,
                        ExecPath::kBarrier, ExecPath::kSerial}) {
    const bool p2p = plan.options().sweep.sync == SweepSync::kPointToPoint;
    const Status st = plan.try_power(x, kK, y, ws, path);
    if (path == ExecPath::kEngine && !p2p) {
      EXPECT_EQ(st.code(), ErrorCode::kUnsupported) << what;
      continue;
    }
    ASSERT_TRUE(st.ok()) << what << " rung " << static_cast<int>(path);
    expect_bitwise(y, want,
                   what + " rung " + std::to_string(static_cast<int>(path)));
  }

  for (const index_t nvec : {1, 3, 8}) {
    std::vector<AlignedVector<double>> xs, ys;
    std::vector<const double*> xp;
    std::vector<double*> yptr;
    for (index_t b = 0; b < nvec; ++b) {
      xs.push_back(test::random_vector(n, 100 + b));
      ys.emplace_back(n);
    }
    for (index_t b = 0; b < nvec; ++b) {
      xp.push_back(xs[b].data());
      yptr.push_back(ys[b].data());
    }
    for (ExecPath path :
         {ExecPath::kDefault, ExecPath::kBarrier, ExecPath::kSerial}) {
      ASSERT_TRUE(
          plan.try_power_batch(xp.data(), nvec, kK, yptr.data(), path).ok())
          << what;
      for (index_t b = 0; b < nvec; ++b)
        expect_bitwise(ys[b], o.power(xs[b], kK),
                       what + " batch nvec=" + std::to_string(nvec) +
                           " lane " + std::to_string(b));
    }
  }
}

/// A power-law hub graph small enough that some backward stages hold
/// fewer components than threads.
CsrMatrix<double> hub_matrix() {
  gen::PowerLawOptions o;
  o.avg_row_nnz = 6.0;
  o.bias = 4.0;
  o.seed = 17;
  return gen::make_power_law(600, o);
}

bool has_empty_slot(const LevelBlockDirection& d) {
  for (std::size_t slot = 0; slot + 1 < d.part_ptr.size(); ++slot)
    if (d.part_ptr[slot] == d.part_ptr[slot + 1]) return true;
  return false;
}

struct Case {
  std::string name;
  CsrMatrix<double> a;
};

std::vector<Case> cases() {
  std::vector<Case> v;
  v.push_back({"unsymmetric", test::random_matrix(300, 7.0, false, 61)});
  v.push_back({"symmetric", test::random_matrix(280, 6.0, true, 62)});
  v.push_back({"hub", hub_matrix()});
  return v;
}

class LevelRenumbered : public ::testing::TestWithParam<int> {};

TEST_P(LevelRenumbered, EveryEntryPointMatchesNaturalOrderOracle) {
  const TeamScope team(GetParam());
  for (const Case& c : cases()) {
    const Oracle oracle(c.a);
    for (SweepSync sync : {SweepSync::kPointToPoint, SweepSync::kBarrier}) {
      auto plan = MpkPlan::build(c.a, level_options(sync));
      const std::string what =
          c.name + (sync == SweepSync::kBarrier ? " barrier" : " p2p") +
          " team " + std::to_string(GetParam());
      ASSERT_EQ(plan.level_sweep_schedule().num_threads, GetParam()) << what;
      check_plan(plan, oracle, what);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Teams, LevelRenumbered, ::testing::Values(1, 3, 4));

TEST(LevelRenumbered, StorageIsOwnershipOrdered) {
  const TeamScope team(3);
  const auto a = test::random_matrix(300, 7.0, false, 63);
  auto plan = MpkPlan::build(a, level_options(SweepSync::kPointToPoint));
  const LevelSweepSchedule& ls = plan.level_sweep_schedule();
  // Forward slot (t, s) is a contiguous range, slots in t-major order.
  for (index_t q = 0; q < a.rows(); ++q) ASSERT_EQ(ls.fwd.part_rows[q], q);
  EXPECT_FALSE(plan.permutation().is_identity());
  EXPECT_TRUE(validate_level_sweep_schedule(ls, plan.split()));
  // Each stored row is its original row: same entries, same order,
  // columns renamed through the permutation.
  const auto s = split_triangular(a);
  const Permutation& p = plan.permutation();
  for (index_t q = 0; q < a.rows(); ++q) {
    const index_t i = p.old_of(q);
    const auto& l = plan.split().lower;
    ASSERT_EQ(l.row_nnz(q), s.lower.row_nnz(i));
    for (index_t e = 0; e < l.row_nnz(q); ++e) {
      EXPECT_EQ(p.old_of(l.col_idx()[l.row_ptr()[q] + e]),
                s.lower.col_idx()[s.lower.row_ptr()[i] + e]);
      EXPECT_EQ(l.values()[l.row_ptr()[q] + e],
                s.lower.values()[s.lower.row_ptr()[i] + e]);
    }
    EXPECT_EQ(plan.split().diag[q], s.diag[i]);
  }
}

TEST(LevelRenumbered, HubBackwardScheduleHasEmptySlots) {
  const TeamScope team(4);
  const auto a = hub_matrix();
  auto plan = MpkPlan::build(a, level_options(SweepSync::kPointToPoint));
  EXPECT_TRUE(has_empty_slot(plan.level_sweep_schedule().bwd));
  check_plan(plan, Oracle(a), "hub team 4");
}

TEST(LevelRenumbered, ReorderOptionIsIgnoredByLevelPlans) {
  const auto a = test::random_matrix(250, 6.0, false, 64);
  PlanOptions o = level_options(SweepSync::kPointToPoint);
  o.reorder = true;
  auto plan = MpkPlan::build(a, o);
  EXPECT_EQ(plan.stats().num_colors, 0);
  check_plan(plan, Oracle(a), "reorder requested");
}

/// Storage variants whose sidecars hold the split in its numbering.
struct Storage {
  std::string name;
  bool index_compress;
  ValuePrecision precision;
};

const Storage kStorages[] = {{"plain", false, ValuePrecision::kFp64},
                             {"packed", true, ValuePrecision::kFp64},
                             {"fp32", false, ValuePrecision::kFp32},
                             {"packed fp32", true, ValuePrecision::kFp32}};

PlanOptions storage_options(SweepSync sync, const Storage& st) {
  PlanOptions o = level_options(sync);
  o.index_compress = st.index_compress;
  o.value_precision = st.precision;
  return o;
}

/// `a` with every value rounded to float, so fp32 storage is lossless
/// and the fp64 oracle stays bitwise comparable.
CsrMatrix<double> float_valued(const CsrMatrix<double>& a) {
  AlignedVector<index_t> rp(a.row_ptr().begin(), a.row_ptr().end());
  AlignedVector<index_t> ci(a.col_idx().begin(), a.col_idx().end());
  AlignedVector<double> va(a.values().begin(), a.values().end());
  for (auto& v : va) v = static_cast<double>(static_cast<float>(v));
  return CsrMatrix<double>(a.rows(), a.cols(), std::move(rp), std::move(ci),
                           std::move(va));
}

/// The loaded sidecars reproduce the loaded split, row for row.
void expect_sidecars_follow_split(const MpkPlan& p, const std::string& what) {
  const auto& s = p.split();
  if (p.options().index_compress) {
    EXPECT_TRUE(p.packed_index().lower.matches(
        s.lower.rows(), s.lower.row_ptr().data(), s.lower.col_idx().data()))
        << what;
    EXPECT_TRUE(p.packed_index().upper.matches(
        s.upper.rows(), s.upper.row_ptr().data(), s.upper.col_idx().data()))
        << what;
  }
  if (p.options().value_precision != ValuePrecision::kFp64) {
    EXPECT_TRUE(p.packed_values().lower.matches(s.lower.values())) << what;
    EXPECT_TRUE(p.packed_values().upper.matches(s.upper.values())) << what;
    EXPECT_TRUE(p.packed_values().diag.matches(s.diag)) << what;
  }
}

TEST(LevelRenumbered, SaveLoadRoundTripKeepsStorage) {
  const TeamScope team(3);
  const auto a = float_valued(test::random_matrix(260, 7.0, false, 65));
  const Oracle oracle(a);
  for (const Storage& st : kStorages)
    for (SweepSync sync : {SweepSync::kPointToPoint, SweepSync::kBarrier}) {
      auto plan = MpkPlan::build(a, storage_options(sync, st));
      std::stringstream buf;
      save_plan(plan, buf);
      auto loaded = load_plan(buf);
      EXPECT_EQ(loaded.permutation(), plan.permutation());
      EXPECT_EQ(loaded.split().lower, plan.split().lower);
      EXPECT_EQ(loaded.split().upper, plan.split().upper);
      expect_sidecars_follow_split(loaded, st.name);
      check_plan(loaded, oracle, "loaded " + st.name);
    }
}

TEST(LevelRenumbered, LoadUnderAnotherTeamRebuildsScheduleAndNumbering) {
  const auto a = float_valued(test::random_matrix(260, 7.0, false, 66));
  const Oracle oracle(a);
  for (const Storage& st : kStorages)
    for (SweepSync sync : {SweepSync::kPointToPoint, SweepSync::kBarrier}) {
      std::stringstream buf;
      {
        const TeamScope team(3);
        auto plan = MpkPlan::build(a, storage_options(sync, st));
        save_plan(plan, buf);
      }
      const TeamScope team(4);
      auto loaded = load_plan(buf);
      auto fresh = MpkPlan::build(a, storage_options(sync, st));
      const std::string what = "loaded at team 4, " + st.name;
      EXPECT_EQ(loaded.level_sweep_schedule().num_threads, 4) << what;
      // The rebuild goes back to the original order first, so it lands
      // exactly where a fresh build at this team size does; the
      // sidecars are rebuilt in the new numbering.
      EXPECT_EQ(loaded.permutation(), fresh.permutation()) << what;
      EXPECT_EQ(loaded.split().lower, fresh.split().lower) << what;
      EXPECT_EQ(loaded.split().upper, fresh.split().upper) << what;
      EXPECT_EQ(loaded.stats().packed_index_bytes,
                fresh.stats().packed_index_bytes)
          << what;
      expect_sidecars_follow_split(loaded, what);
      check_plan(loaded, oracle, what);
    }
}

TEST(LevelRenumbered, RenumberedTriangleConstructorValidatesBaseOrder) {
  // Row 0 of the base lower triangle is empty, row 1 holds column 0,
  // row 2 holds columns 0 and 1. Stored under order = {2, 0, 1}.
  const std::vector<index_t> base_of{2, 0, 1};
  const auto make = [&](std::vector<index_t> cols) {
    AlignedVector<index_t> rp{0, 2, 2, 3};
    AlignedVector<index_t> ci(cols.begin(), cols.end());
    AlignedVector<double> va(cols.size(), 1.0);
    return CsrMatrix<double>(Triangle::kLower, base_of, 3, std::move(rp),
                             std::move(ci), std::move(va));
  };
  // Stored row 0 = base row 2: base columns 0, 1 = stored 1, 2.
  EXPECT_NO_THROW(make({1, 2, 1}));
  // Base order reversed within the row.
  EXPECT_THROW(make({2, 1, 1}), Error);
  // Stored row 2 = base row 1 may only reference base column 0.
  EXPECT_THROW(make({1, 2, 2}), Error);
}

}  // namespace
}  // namespace fbmpk
