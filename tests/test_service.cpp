// MpkService / PlanCache: the serving layer's resilience contract
// (docs/SERVICE.md). Every request must terminate with a correct
// result or a typed error — and a degraded-rung result must be
// bitwise identical to the serial oracle for exact-mode plans.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "gen/stencil.hpp"
#include "service/plan_cache.hpp"
#include "service/service.hpp"
#include "support/fault_inject.hpp"
#include "test_util.hpp"

namespace fbmpk::service {
namespace {

/// Runs every case with a clean fault injector on both sides.
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().reset(); }
  void TearDown() override { fault::Injector::instance().reset(); }
};

AlignedVector<double> test_input(index_t n) {
  AlignedVector<double> x(static_cast<std::size_t>(n));
  test::Xorshift64 rng(42);
  for (auto& v : x) v = 2.0 * rng.uniform() - 1.0;
  return x;
}

/// Serial-path reference through the same plan options: the ladder's
/// correctness oracle (all rungs issue identical per-row kernels).
AlignedVector<double> serial_oracle(const CsrMatrix<double>& a,
                                    std::span<const double> x, int k,
                                    const PlanOptions& po) {
  MpkPlan plan = MpkPlan::build(a, po);
  MpkPlan::Workspace ws;
  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  const Status st = plan.try_power(x, k, y, ws, ExecPath::kSerial);
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().what());
  return y;
}

void expect_bitwise_equal(std::span<const double> got,
                          std::span<const double> want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(double)),
            0);
}

TEST_F(ServiceTest, LruEvictionOrderIsDeterministic) {
  PlanCache cache(2);
  const auto a = gen::make_laplacian_2d(4, 4);
  const auto b = gen::make_laplacian_2d(5, 4);
  const auto c = gen::make_laplacian_2d(6, 4);
  const std::uint64_t ka = fingerprint(a), kb = fingerprint(b),
                      kc = fingerprint(c);
  ASSERT_NE(ka, kb);
  ASSERT_NE(kb, kc);

  cache.acquire(ka, [&] { return MpkPlan::build(a); });
  cache.acquire(kb, [&] { return MpkPlan::build(b); });
  EXPECT_EQ(cache.keys_lru_order(), (std::vector<std::uint64_t>{ka, kb}));

  // Touch `a` so `b` becomes least-recently used...
  cache.acquire(ka, [&] { return MpkPlan::build(a); });
  EXPECT_EQ(cache.keys_lru_order(), (std::vector<std::uint64_t>{kb, ka}));

  // ...and inserting `c` must evict exactly `b`.
  cache.acquire(kc, [&] { return MpkPlan::build(c); });
  EXPECT_EQ(cache.keys_lru_order(), (std::vector<std::uint64_t>{ka, kc}));
  EXPECT_EQ(cache.size(), 2u);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST_F(ServiceTest, FingerprintSeparatesNearbyMatrices) {
  // 8 x 64 with column 2j at entry j: every column stays in range and
  // ascending under any bit flip below, so each variant is a valid
  // matrix that differs from the base in one bit of one array.
  constexpr index_t kRows = 8, kCols = 64, kNnz = 32;
  AlignedVector<index_t> rp, ci;
  AlignedVector<double> v;
  for (index_t i = 0; i <= kRows; ++i) rp.push_back(i * (kNnz / kRows));
  for (index_t j = 0; j < kNnz; ++j) {
    ci.push_back(2 * j);
    v.push_back(1.0 + 0.25 * j);
  }
  std::set<std::uint64_t> seen;
  std::size_t made = 0;
  const auto add = [&](index_t rows, index_t cols, AlignedVector<index_t> r,
                       AlignedVector<index_t> c, AlignedVector<double> w) {
    const CsrMatrix<double> m(rows, cols, std::move(r), std::move(c),
                              std::move(w));
    seen.insert(fingerprint(m));
    ++made;
  };
  add(kRows, kCols, rp, ci, v);
  add(kRows, kCols + 1, rp, ci, v);  // dims only
  for (index_t i = 1; i < kRows; ++i)
    for (index_t bit : {1, 2}) {  // row_ptr: move one row boundary
      auto r = rp;
      r[static_cast<std::size_t>(i)] ^= bit;
      add(kRows, kCols, std::move(r), ci, v);
    }
  for (std::size_t j = 0; j < ci.size(); ++j) {  // col_idx: 2j -> 2j+1
    auto c = ci;
    c[j] ^= 1;
    add(kRows, kCols, rp, std::move(c), v);
  }
  for (std::size_t j = 0; j < v.size(); ++j)  // values: every bit
    for (int bit = 0; bit < 64; ++bit) {
      auto w = v;
      std::uint64_t u;
      std::memcpy(&u, &w[j], sizeof(u));
      u ^= std::uint64_t{1} << bit;
      std::memcpy(&w[j], &u, sizeof(u));
      add(kRows, kCols, rp, ci, std::move(w));
    }
  // The same entries under swapped dims: 3 x 5 and 5 x 3 share col_idx
  // and values; row_ptr differs only by the two empty trailing rows.
  const AlignedVector<index_t> c3{0, 2, 1, 0, 1, 2};
  const AlignedVector<double> v3{1, 2, 3, 4, 5, 6};
  add(3, 5, {0, 2, 3, 6}, c3, v3);
  add(5, 3, {0, 2, 3, 6, 6, 6}, c3, v3);
  EXPECT_EQ(seen.size(), made);
}

TEST_F(ServiceTest, CacheHitServesSecondRequestBitwiseEqual) {
  const auto a = gen::make_laplacian_2d(16, 16);
  const auto x = test_input(a.rows());
  ServiceOptions opts;
  opts.workers = 1;
  MpkService svc(opts);

  AlignedVector<double> y1(static_cast<std::size_t>(a.rows()));
  AlignedVector<double> y2(static_cast<std::size_t>(a.rows()));
  const RequestResult r1 = svc.power(a, x, 3, y1);
  ASSERT_TRUE(r1.status.ok()) << r1.status.error().what();
  EXPECT_FALSE(r1.cache_hit);
  const RequestResult r2 = svc.power(a, x, 3, y2);
  ASSERT_TRUE(r2.status.ok()) << r2.status.error().what();
  EXPECT_TRUE(r2.cache_hit);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache.misses, 1u);
  EXPECT_EQ(st.cache.hits, 1u);
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 2u);

  const auto oracle = serial_oracle(a, x, 3, opts.plan);
  expect_bitwise_equal(y1, oracle);
  expect_bitwise_equal(y2, oracle);
}

TEST_F(ServiceTest, QueueFullRejectsWithTypedOverload) {
  const auto a = gen::make_laplacian_2d(8, 8);
  const auto x = test_input(a.rows());
  MpkService svc;
  fault::Injector::instance().arm(fault::Point::kQueueFull, /*fires=*/1);

  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  const RequestResult r = svc.power(a, x, 2, y);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kOverloaded);
  EXPECT_GE(svc.stats().rejected_overload, 1u);

  // The queue recovered: the next request is served normally.
  const RequestResult r2 = svc.power(a, x, 2, y);
  EXPECT_TRUE(r2.status.ok());
}

TEST_F(ServiceTest, DeadlineExpiryFailsTypedTimeout) {
  const auto a = gen::make_laplacian_2d(40, 40);
  const auto x = test_input(a.rows());
  ServiceOptions opts;
  opts.workers = 1;
  opts.watchdog_interval_seconds = 0.002;
  MpkService svc(opts);

  // Stall the sweep at a few color boundaries so the 20 ms deadline
  // expires mid-sweep; later checkpoints run clean so unwinding after
  // cancellation stays fast.
  fault::Injector::instance().arm(fault::Point::kSweepStall, /*fires=*/3,
                                  /*skip=*/0, /*stall_ms=*/120);
  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  RequestOptions ropts;
  ropts.deadline_seconds = 0.02;
  const RequestResult r = svc.power(a, x, 6, y, ropts);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kTimeout);
  EXPECT_GE(svc.stats().timeouts, 1u);
}

TEST_F(ServiceTest, StuckSweepIsForceCompletedAndPlanQuarantined) {
  const auto a = gen::make_laplacian_2d(40, 40);
  const auto x = test_input(a.rows());
  ServiceOptions opts;
  opts.workers = 1;
  opts.watchdog_interval_seconds = 0.002;
  opts.stuck_grace_seconds = 0.05;
  MpkService svc(opts);

  // One long stall freezes the heartbeat well past the grace period:
  // the watchdog must force-complete the ticket (the caller gets its
  // typed error long before the stall ends) and quarantine the plan.
  // fired() flips just before the sleep begins, so polling it is a
  // deterministic "the sweep is wedged right now" signal that holds
  // regardless of how slowly the plan build runs (e.g. under TSan).
  fault::Injector::instance().arm(fault::Point::kSweepStall, /*fires=*/1,
                                  /*skip=*/0, /*stall_ms=*/1500);
  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  const auto id = svc.submit(a, x, 6);
  const auto t_arm = std::chrono::steady_clock::now();
  while (fault::Injector::instance().fired(fault::Point::kSweepStall) < 1) {
    ASSERT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t_arm)
                  .count(),
              10.0)
        << "sweep never reached the stall point";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(svc.cancel(id));
  const auto t0 = std::chrono::steady_clock::now();
  const RequestResult r = svc.wait(id, y);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kCancelled);
  EXPECT_LT(waited, 1.2) << "force-completion must beat the stall";
  EXPECT_EQ(svc.stats().quarantines, 1u);

  // The quarantined plan is never served again: the next request for
  // the same matrix rebuilds from scratch and succeeds.
  fault::Injector::instance().reset();
  const RequestResult r2 = svc.power(a, x, 3, y);
  ASSERT_TRUE(r2.status.ok()) << r2.status.error().what();
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_EQ(svc.stats().cache.misses, 2u);
}

TEST_F(ServiceTest, ExplicitCancelFailsTypedCancelled) {
  const auto a = gen::make_laplacian_2d(40, 40);
  const auto x = test_input(a.rows());
  ServiceOptions opts;
  opts.workers = 1;
  MpkService svc(opts);

  fault::Injector::instance().arm(fault::Point::kSweepStall, /*fires=*/4,
                                  /*skip=*/0, /*stall_ms=*/80);
  const MpkService::RequestId id = svc.submit(a, x, 6);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(svc.cancel(id));

  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  const RequestResult r = svc.wait(id, y);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kCancelled);
  EXPECT_GE(svc.stats().cancelled, 1u);
}

// The ladder is scheduler-polymorphic (docs/SERVICE.md): on a level-
// scheduled point-to-point plan the rungs mean level engine ->
// per-stage barriers -> serial stage walk, and the natural-order
// serial sweep is the bitwise oracle.
TEST_F(ServiceTest, DegradationLadderFallsToSerialBitwiseEqual) {
  const auto a = gen::make_laplacian_2d(24, 24);
  const auto x = test_input(a.rows());
  ServiceOptions opts;
  opts.workers = 1;
  opts.plan.scheduler = Scheduler::kLevels;
  opts.plan.reorder = false;
  opts.plan.sweep.sync = SweepSync::kPointToPoint;  // enable the engine rung
  MpkService svc(opts);

  // Two injected scratch-allocation failures knock out the engine and
  // barrier rungs; the serial floor must still produce the exact
  // result.
  fault::Injector::instance().arm(fault::Point::kAlloc, /*fires=*/2);
  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  const RequestResult r = svc.power(a, x, 4, y);
  ASSERT_TRUE(r.status.ok()) << r.status.error().what();
  EXPECT_EQ(r.rung, Rung::kSerial);
  EXPECT_EQ(r.degrade_steps, 2);
  expect_bitwise_equal(y, serial_oracle(a, x, 4, opts.plan));

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.degrade_engine_to_barrier, 1u);
  EXPECT_EQ(st.degrade_barrier_to_serial, 1u);

  // The rung is sticky per cached plan: with no faults armed the next
  // request starts straight at the serial floor.
  const RequestResult r2 = svc.power(a, x, 4, y);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.rung, Rung::kSerial);
  EXPECT_EQ(r2.degrade_steps, 0);

  // A fresh (uncached) plan runs its engine rung and still matches the
  // natural-order serial oracle bitwise.
  const auto b = gen::make_laplacian_2d(23, 23);
  const auto xb = test_input(b.rows());
  AlignedVector<double> yb(static_cast<std::size_t>(b.rows()));
  const RequestResult rb = svc.power(b, xb, 5, yb);
  ASSERT_TRUE(rb.status.ok()) << rb.status.error().what();
  EXPECT_EQ(rb.rung, Rung::kEngine);
  EXPECT_EQ(rb.degrade_steps, 0);
  expect_bitwise_equal(yb, serial_oracle(b, xb, 5, opts.plan));
}

// An ABMC plan has no engine rung: the ladder starts at the barrier, so
// an injected failure there is blamed on the barrier rung, never on an
// engine the plan does not have.
TEST_F(ServiceTest, DegradationLadderStartsAtFirstSupportedRung) {
  const auto a = gen::make_laplacian_2d(24, 24);
  const auto x = test_input(a.rows());
  ServiceOptions opts;
  opts.workers = 1;
  MpkService svc(opts);

  fault::Injector::instance().arm(fault::Point::kAlloc, /*fires=*/1);
  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  const RequestResult r = svc.power(a, x, 4, y);
  ASSERT_TRUE(r.status.ok()) << r.status.error().what();
  EXPECT_EQ(r.rung, Rung::kSerial);
  EXPECT_EQ(r.degrade_steps, 1);
  expect_bitwise_equal(y, serial_oracle(a, x, 4, opts.plan));

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.degrade_engine_to_barrier, 0u);
  EXPECT_EQ(st.degrade_barrier_to_serial, 1u);
}

TEST_F(ServiceTest, ConcurrentMissesOnOneKeyShareOneEntry) {
  // Four threads miss on one key at once. Builds run outside the cache
  // lock, so several may build; the first insert wins and every caller
  // must come back holding that one entry and its one plan.
  const auto a = gen::make_laplacian_2d(16, 16);
  const auto x = test_input(a.rows());
  const PlanOptions po;
  const auto oracle = serial_oracle(a, x, 3, po);
  const std::uint64_t key = fingerprint(a);
  PlanCache cache(4);

  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::shared_ptr<PlanCache::Entry>> entries(kThreads);
  std::vector<AlignedVector<double>> ys(
      kThreads, AlignedVector<double>(static_cast<std::size_t>(a.rows())));
  std::vector<Status> sts(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      entries[t] = cache.acquire(key, [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return MpkPlan::build(a, po);
      });
      MpkPlan::Workspace ws;
      sts[t] = entries[t]->plan->try_power(x, 3, ys[t], ws);
    });
  }
  for (auto& th : pool) th.join();

  for (int t = 0; t < kThreads; ++t) {
    SCOPED_TRACE(t);
    ASSERT_NE(entries[t], nullptr);
    EXPECT_EQ(entries[t], entries[0]);
    EXPECT_EQ(entries[t]->plan, entries[0]->plan);
    ASSERT_TRUE(sts[t].ok()) << sts[t].error().what();
    expect_bitwise_equal(ys[t], oracle);
  }
  EXPECT_EQ(cache.size(), 1u);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, static_cast<std::uint64_t>(kThreads));
}

TEST_F(ServiceTest, EvictedEntryStaysUsableWhileHeld) {
  // A returned entry owns its plan: capacity eviction drops the cache's
  // reference, never the holder's, and the plan keeps serving.
  const auto a = gen::make_laplacian_2d(12, 12);
  const auto b = gen::make_laplacian_2d(13, 12);
  const auto x = test_input(a.rows());
  const PlanOptions po;
  PlanCache cache(1);
  auto held =
      cache.acquire(fingerprint(a), [&] { return MpkPlan::build(a, po); });
  const MpkPlan* plan_before = held->plan.get();
  cache.acquire(fingerprint(b), [&] { return MpkPlan::build(b, po); });
  ASSERT_EQ(cache.keys_lru_order(),
            (std::vector<std::uint64_t>{fingerprint(b)}));
  EXPECT_EQ(cache.stats().evictions, 1u);

  EXPECT_EQ(held->plan.get(), plan_before);
  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  MpkPlan::Workspace ws;
  const Status st = held->plan->try_power(x, 4, y, ws);
  ASSERT_TRUE(st.ok()) << st.error().what();
  expect_bitwise_equal(y, serial_oracle(a, x, 4, po));

  // Re-acquiring the evicted key is a fresh miss with a new entry.
  auto again =
      cache.acquire(fingerprint(a), [&] { return MpkPlan::build(a, po); });
  EXPECT_NE(again, held);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST_F(ServiceTest, QuarantinedEntryIsRebuiltAndHolderKeepsOldPlan) {
  const auto a = gen::make_laplacian_2d(12, 12);
  const std::uint64_t key = fingerprint(a);
  PlanCache cache(2);
  int builds = 0;
  const PlanCache::Builder build = [&] {
    ++builds;
    return MpkPlan::build(a);
  };
  auto first = cache.acquire(key, build);
  EXPECT_EQ(cache.acquire(key, build), first);
  EXPECT_EQ(builds, 1);

  EXPECT_TRUE(cache.quarantine(key));
  EXPECT_FALSE(cache.quarantine(fingerprint(gen::make_laplacian_2d(3, 3))));
  auto second = cache.acquire(key, build);
  EXPECT_EQ(builds, 2);
  EXPECT_NE(second, first);
  EXPECT_NE(second->plan, first->plan);
  EXPECT_FALSE(second->quarantined.load());
  EXPECT_TRUE(first->quarantined.load());
  ASSERT_NE(first->plan, nullptr);
  EXPECT_EQ(first->plan->rows(), a.rows());
  EXPECT_EQ(cache.size(), 1u);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST_F(ServiceTest, FailedBuildPropagatesTypedAndInsertsNothing) {
  const auto a = gen::make_laplacian_2d(8, 8);
  const std::uint64_t key = fingerprint(a);
  PlanCache cache(2);
  try {
    cache.acquire(key, []() -> MpkPlan {
      FBMPK_FAIL(ErrorCode::kResourceLimit, "builder refused");
    });
    FAIL() << "failed build returned an entry";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceLimit);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.keys_lru_order().empty());

  // The key is not poisoned: the next acquire builds and inserts.
  auto entry = cache.acquire(key, [&] { return MpkPlan::build(a); });
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->plan, nullptr);
  EXPECT_EQ(entry->key, key);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(ServiceTest, PrecisionCertificationFailureRebuildsAtFp64) {
  const auto a = gen::make_laplacian_2d(16, 16);
  const auto x = test_input(a.rows());
  ServiceOptions opts;
  opts.workers = 1;
  opts.rebuild_fp64_on_cert_failure = true;
  opts.plan.value_precision = ValuePrecision::kFp32;
  MpkService svc(opts);

  fault::Injector::instance().arm(fault::Point::kPrecisionCertify,
                                  /*fires=*/1);
  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  const RequestResult r = svc.power(a, x, 3, y);
  ASSERT_TRUE(r.status.ok()) << r.status.error().what();
  EXPECT_TRUE(r.precision_rebuilt);
  EXPECT_EQ(svc.stats().precision_rebuilds, 1u);

  // The fp64 rebuild serves full-precision results: bitwise equal to
  // a serial fp64 oracle.
  PlanOptions fp64 = opts.plan;
  fp64.value_precision = ValuePrecision::kFp64;
  expect_bitwise_equal(y, serial_oracle(a, x, 3, fp64));
}

TEST_F(ServiceTest, CertificationFailureWithoutOptInFailsTyped) {
  const auto a = gen::make_laplacian_2d(12, 12);
  const auto x = test_input(a.rows());
  ServiceOptions opts;
  opts.workers = 1;
  MpkService svc(opts);

  fault::Injector::instance().arm(fault::Point::kPrecisionCertify,
                                  /*fires=*/1);
  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  const RequestResult r = svc.power(a, x, 2, y);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kNumericalBreakdown);
}

TEST_F(ServiceTest, MismatchedVectorLengthIsRejectedTyped) {
  const auto a = gen::make_laplacian_2d(8, 8);
  AlignedVector<double> x(static_cast<std::size_t>(a.rows()) - 1, 1.0);
  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  MpkService svc;
  const RequestResult r = svc.power(a, x, 2, y);
  ASSERT_FALSE(r.status.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kInvalidMatrix);
}

// Multi-client hammering: every request must finish with a correct
// result or a typed error, across cache churn (capacity below the
// working set) and concurrent submissions. Runs under the TSan CI job.
TEST_F(ServiceTest, ServiceStressManyClientsTypedOutcomesOnly) {
  std::vector<CsrMatrix<double>> mats;
  mats.push_back(gen::make_laplacian_2d(12, 12));
  mats.push_back(gen::make_laplacian_2d(16, 12));
  mats.push_back(gen::make_laplacian_2d(20, 12));

  ServiceOptions opts;
  opts.workers = 3;
  opts.cache_capacity = 2;  // below the working set: forced churn
  opts.max_queue = 8;
  MpkService svc(opts);

  std::vector<AlignedVector<double>> oracles;
  std::vector<AlignedVector<double>> inputs;
  for (const auto& m : mats) {
    inputs.push_back(test_input(m.rows()));
    oracles.push_back(serial_oracle(m, inputs.back(), 3, opts.plan));
  }

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      test::Xorshift64 rng(1000 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t mi = rng.next() % mats.size();
        AlignedVector<double> y(
            static_cast<std::size_t>(mats[mi].rows()));
        const RequestResult r = svc.power(mats[mi], inputs[mi], 3, y);
        if (r.status.ok()) {
          if (std::memcmp(y.data(), oracles[mi].data(),
                          y.size() * sizeof(double)) != 0)
            failures.fetch_add(1);
        } else {
          const ErrorCode code = r.status.code();
          if (code != ErrorCode::kOverloaded &&
              code != ErrorCode::kTimeout && code != ErrorCode::kCancelled)
            failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, st.completed);
  EXPECT_EQ(st.submitted,
            static_cast<std::uint64_t>(kClients * kPerClient));
}

// --- request coalescing (docs/SERVICE.md) ---------------------------------

TEST_F(ServiceTest, BatchedRequestsCoalesceAndMatchOracle) {
  const auto a = gen::make_laplacian_2d(16, 16);
  const int k = 4;
  ServiceOptions opts;
  opts.workers = 1;  // one worker: every request funnels through one gather
  opts.max_batch = 6;
  opts.batch_window_us = 3e5;  // 0.3 s — plenty to gather all six
  MpkService svc(opts);

  constexpr int kReqs = 6;
  std::vector<AlignedVector<double>> xs;
  std::vector<MpkService::RequestId> ids;
  for (int i = 0; i < kReqs; ++i) {
    xs.push_back(test::random_vector(
        a.rows(), 1000 + static_cast<std::uint64_t>(i)));
    ids.push_back(svc.submit(a, xs.back(), k));
  }
  for (int i = 0; i < kReqs; ++i) {
    AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
    const RequestResult r = svc.wait(ids[i], y);
    ASSERT_TRUE(r.status.ok()) << r.status.error().what();
    // Per-request correctness is unchanged by sharing a sweep: each
    // lane is bitwise the serial B=1 result for its own vector.
    expect_bitwise_equal(y, serial_oracle(a, xs[i], k, opts.plan));
  }
  const ServiceStats st = svc.stats();
  EXPECT_GE(st.batches, 1u);
  EXPECT_GE(st.batch_coalesced, 2u);
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kReqs));
}

TEST_F(ServiceTest, BatchMemberDeadlineDoesNotPoisonSiblings) {
  const auto a = gen::make_laplacian_2d(16, 16);
  const int k = 3;
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.batch_window_us = 2.5e5;  // longer than the victim's deadline
  opts.watchdog_interval_seconds = 0.001;
  MpkService svc(opts);

  const auto x1 = test::random_vector(a.rows(), 11);
  const auto x2 = test::random_vector(a.rows(), 22);
  const auto x3 = test::random_vector(a.rows(), 33);
  // The victim's deadline expires inside the gather window, so it is
  // masked out of the batch with kTimeout while its siblings sweep.
  RequestOptions tight;
  tight.deadline_seconds = 0.02;
  const auto id1 = svc.submit(a, x1, k, tight);
  const auto id2 = svc.submit(a, x2, k);
  const auto id3 = svc.submit(a, x3, k);

  AlignedVector<double> y1(static_cast<std::size_t>(a.rows()));
  AlignedVector<double> y2(static_cast<std::size_t>(a.rows()));
  AlignedVector<double> y3(static_cast<std::size_t>(a.rows()));
  const RequestResult r1 = svc.wait(id1, y1);
  const RequestResult r2 = svc.wait(id2, y2);
  const RequestResult r3 = svc.wait(id3, y3);

  ASSERT_FALSE(r1.status.ok());
  EXPECT_EQ(r1.status.code(), ErrorCode::kTimeout);
  ASSERT_TRUE(r2.status.ok()) << r2.status.error().what();
  ASSERT_TRUE(r3.status.ok()) << r3.status.error().what();
  expect_bitwise_equal(y2, serial_oracle(a, x2, k, opts.plan));
  expect_bitwise_equal(y3, serial_oracle(a, x3, k, opts.plan));
  EXPECT_GE(svc.stats().timeouts, 1u);
}

TEST_F(ServiceTest, PreCancelledBatchMemberIsMaskedOut) {
  const auto a = gen::make_laplacian_2d(12, 12);
  const int k = 3;
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_batch = 4;
  opts.batch_window_us = 2e5;
  MpkService svc(opts);

  const auto x1 = test::random_vector(a.rows(), 101);
  const auto x2 = test::random_vector(a.rows(), 102);
  const auto x3 = test::random_vector(a.rows(), 103);
  const auto id1 = svc.submit(a, x1, k);
  const auto id2 = svc.submit(a, x2, k);
  const auto id3 = svc.submit(a, x3, k);
  EXPECT_TRUE(svc.cancel(id2));

  AlignedVector<double> y1(static_cast<std::size_t>(a.rows()));
  AlignedVector<double> y2(static_cast<std::size_t>(a.rows()));
  AlignedVector<double> y3(static_cast<std::size_t>(a.rows()));
  const RequestResult r1 = svc.wait(id1, y1);
  const RequestResult r2 = svc.wait(id2, y2);
  const RequestResult r3 = svc.wait(id3, y3);

  ASSERT_TRUE(r1.status.ok()) << r1.status.error().what();
  ASSERT_FALSE(r2.status.ok());
  EXPECT_EQ(r2.status.code(), ErrorCode::kCancelled);
  ASSERT_TRUE(r3.status.ok()) << r3.status.error().what();
  expect_bitwise_equal(y1, serial_oracle(a, x1, k, opts.plan));
  expect_bitwise_equal(y3, serial_oracle(a, x3, k, opts.plan));
}

TEST_F(ServiceTest, HandleAndOneShotSubmitShareOneCacheEntry) {
  const auto a = gen::make_laplacian_2d(16, 12);
  const MatrixHandle h(std::make_shared<const CsrMatrix<double>>(a));
  const auto x = test_input(a.rows());
  ServiceOptions opts;
  opts.workers = 1;
  MpkService svc(opts);

  AlignedVector<double> y1(static_cast<std::size_t>(a.rows()));
  AlignedVector<double> y2(static_cast<std::size_t>(a.rows()));
  const RequestResult r1 = svc.power(h, x, 3, y1);
  ASSERT_TRUE(r1.status.ok()) << r1.status.error().what();
  EXPECT_FALSE(r1.cache_hit);
  // A separate copy of the same matrix through the one-shot path.
  const RequestResult r2 = svc.power(a, x, 3, y2);
  ASSERT_TRUE(r2.status.ok()) << r2.status.error().what();
  EXPECT_TRUE(r2.cache_hit);

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache.misses, 1u);
  EXPECT_EQ(st.cache.hits, 1u);
  EXPECT_EQ(svc.cache().keys_lru_order(),
            (std::vector<std::uint64_t>{fingerprint(a)}));
  const auto oracle = serial_oracle(a, x, 3, opts.plan);
  expect_bitwise_equal(y1, oracle);
  expect_bitwise_equal(y2, oracle);
}

TEST_F(ServiceTest, DroppedHandleStaysAliveThroughCacheMiss) {
  // The one worker is wedged in a stalled sweep of `blocker` while the
  // caller submits `a` by handle and drops its only reference. The
  // queued request alone must keep `a` alive for its plan build (a
  // use-after-free here is what the ASan job would report).
  const auto blocker = gen::make_laplacian_2d(24, 24);
  const auto a = gen::make_laplacian_2d(20, 18);
  const auto xb = test_input(blocker.rows());
  const auto x = test_input(a.rows());
  const auto oracle = serial_oracle(a, x, 4, PlanOptions{});
  ServiceOptions opts;
  opts.workers = 1;
  MpkService svc(opts);

  fault::Injector::instance().arm(fault::Point::kSweepStall, /*fires=*/1,
                                  /*skip=*/0, /*stall_ms=*/200);
  const auto id_block = svc.submit(blocker, xb, 2);
  const auto t_arm = std::chrono::steady_clock::now();
  while (fault::Injector::instance().fired(fault::Point::kSweepStall) < 1) {
    ASSERT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t_arm)
                  .count(),
              10.0)
        << "sweep never reached the stall point";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  MpkService::RequestId id = 0;
  {
    MatrixHandle h(std::make_shared<const CsrMatrix<double>>(a));
    id = svc.submit(h, x, 4);
  }  // the caller's last reference is gone; the build has not run

  AlignedVector<double> yb(static_cast<std::size_t>(blocker.rows()));
  ASSERT_TRUE(svc.wait(id_block, yb).status.ok());
  AlignedVector<double> y(static_cast<std::size_t>(a.rows()));
  const RequestResult r = svc.wait(id, y);
  ASSERT_TRUE(r.status.ok()) << r.status.error().what();
  EXPECT_FALSE(r.cache_hit);
  expect_bitwise_equal(y, oracle);
}

}  // namespace
}  // namespace fbmpk::service
