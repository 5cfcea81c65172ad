// Tests for the ABMC block-count autotuner.
#include <gtest/gtest.h>

#include "core/autotune.hpp"
#include "gen/stencil.hpp"
#include "kernels/mpk_baseline.hpp"
#include "support/fault_inject.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

/// Exhaustive mode for tests that assert every candidate is measured.
constexpr OracleOptions kOracleOff{.enabled = false};

TEST(Autotune, SamplesEveryCandidateAndPicksMinimum) {
  const auto a = gen::make_laplacian_2d(30, 30);
  const index_t candidates[] = {8, 32, 128};
  const auto r = autotune_block_count(a, 3, candidates, 2, {}, kOracleOff);
  ASSERT_EQ(r.samples.size(), 3u);
  double best = 1e300;
  for (const auto& s : r.samples) {
    EXPECT_GT(s.seconds, 0.0);
    EXPECT_GE(s.num_colors, 1);
    best = std::min(best, s.seconds);
  }
  EXPECT_DOUBLE_EQ(r.best_seconds, best);
  bool found = false;
  for (const auto& s : r.samples)
    if (s.num_blocks == r.best_blocks) {
      found = true;
      EXPECT_DOUBLE_EQ(s.seconds, r.best_seconds);
    }
  EXPECT_TRUE(found);
}

TEST(Autotune, BuiltPlanUsesWinnerAndIsCorrect) {
  const auto a = test::random_matrix(200, 6.0, true, 3);
  auto plan = build_autotuned_plan(a, 4);
  EXPECT_GT(plan.options().abmc.num_blocks, 0);

  const auto x = test::random_vector(200, 4);
  AlignedVector<double> y(200), ref(200);
  plan.power(x, 4, y);
  MpkWorkspace<double> ws;
  mpk_power<double>(a, x, 4, ref, ws);
  test::expect_near_rel(y, ref, 1e-8);
}

TEST(Autotune, RejectsBadArguments) {
  const auto a = gen::make_laplacian_2d(5, 5);
  EXPECT_THROW(autotune_block_count(a, 0), Error);
  EXPECT_THROW(autotune_block_count(a, 3, {}, 1), Error);
  const index_t bad[] = {0};
  EXPECT_THROW(autotune_block_count(a, 3, bad, 1), Error);
}

TEST(Autotune, RespectsBaseOptions) {
  const auto a = test::random_matrix(100, 5.0, true, 5);
  PlanOptions base;
  base.variant = FbVariant::kSplit;
  base.parallel = false;
  base.reorder = true;
  auto plan = build_autotuned_plan(a, 3, base);
  EXPECT_EQ(plan.options().variant, FbVariant::kSplit);
  EXPECT_FALSE(plan.options().parallel);
}

// ---------------------------------------------------------------------------
// Kernel-config autotuning over value precisions, and the persisted
// tuned config (PR 4).
// ---------------------------------------------------------------------------

TEST(Autotune, KernelConfigSweepsPrecisionCandidates) {
  const auto a = gen::make_laplacian_2d(24, 24);
  const auto conservative =
      autotune_kernel_config(a, 3, /*reps=*/1, {}, /*allow_fast=*/false,
                             kOracleOff);
  // Without allow_fast: only the exact scalar plain/compressed fp64
  // candidates.
  ASSERT_EQ(conservative.samples.size(), 2u);
  for (const auto& s : conservative.samples) {
    EXPECT_EQ(s.backend, KernelBackend::kScalar);
    EXPECT_EQ(s.value_precision, ValuePrecision::kFp64);
  }

  const auto fast = autotune_kernel_config(a, 3, /*reps=*/1, {},
                                           /*allow_fast=*/true, kOracleOff);
  EXPECT_GE(fast.samples.size(), conservative.samples.size());
  bool saw_fp32 = false;
  for (const auto& s : fast.samples)
    if (s.value_precision == ValuePrecision::kFp32) {
      saw_fp32 = true;
      EXPECT_GT(s.packed_value_bytes, 0u);
    }
  EXPECT_TRUE(saw_fp32) << "allow_fast must add fp32 candidates";
}

TEST(Autotune, BuildAutotunedPlanRecordsTunedConfig) {
  const auto a = test::random_matrix(150, 6.0, true, 11);
  auto plan = build_autotuned_plan(a, 3, {}, /*allow_fast_kernels=*/true);
  const TunedConfig& cfg = plan.tuned_config();
  EXPECT_TRUE(cfg.valid);
  EXPECT_EQ(cfg.backend, plan.options().kernel_backend);
  EXPECT_EQ(cfg.index_compress, plan.options().index_compress);
  EXPECT_EQ(cfg.value_precision, plan.options().value_precision);
  EXPECT_EQ(cfg.tuned_threads, static_cast<index_t>(max_threads()));
  EXPECT_GT(cfg.best_seconds, 0.0);
  EXPECT_FALSE(cfg.stale);
}

TEST(Autotune, TunedConfigStalenessPredicate) {
  const auto threads = static_cast<index_t>(max_threads());

  TunedConfig cfg;  // invalid: never stale, nothing to be stale about
  EXPECT_FALSE(tuned_config_stale(cfg, threads));
  EXPECT_FALSE(tuned_config_stale(cfg, threads + 5));

  cfg.valid = true;
  cfg.backend = KernelBackend::kScalar;
  cfg.tuned_threads = threads;
  EXPECT_FALSE(tuned_config_stale(cfg, threads));
  EXPECT_TRUE(tuned_config_stale(cfg, threads + 1));

  // A backend this machine cannot run makes the config stale even at
  // the matching thread count; an available one does not.
  cfg.backend = KernelBackend::kAvx2;
  EXPECT_EQ(tuned_config_stale(cfg, threads),
            !backend_available(KernelBackend::kAvx2));
}

// ---------------------------------------------------------------------------
// Traffic-oracle pruning (PR 8, docs/AUTOTUNING.md).
// ---------------------------------------------------------------------------

TEST(AutotuneOracle, PrunesBlockCandidatesAndScoresAll) {
  const auto a = gen::make_laplacian_2d(40, 40);
  OracleOptions oracle;  // defaults: enabled, top_k = 2
  const auto r = autotune_block_count(a, 3, default_block_candidates(),
                                      /*reps=*/1, {}, oracle);
  EXPECT_TRUE(r.oracle_used);
  ASSERT_EQ(r.samples.size(), default_block_candidates().size());
  EXPECT_EQ(r.candidates_pruned,
            static_cast<index_t>(r.samples.size()) - oracle.top_k);
  EXPECT_LE(r.candidates_timed, static_cast<index_t>(oracle.top_k));
  EXPECT_GE(r.candidates_timed, 1);
  for (const auto& s : r.samples) {
    EXPECT_GE(s.predicted_bytes, 0.0) << "every candidate must be scored";
    if (s.pruned) {
      EXPECT_EQ(s.seconds, 0.0);
    } else {
      EXPECT_GT(s.seconds, 0.0);
    }
  }
  EXPECT_GE(r.oracle_rank_of_winner, 1);
  EXPECT_LE(r.oracle_rank_of_winner, r.candidates_timed);
  EXPECT_GT(r.best_predicted_bytes, 0.0);
  // The winner is never a pruned candidate.
  for (const auto& s : r.samples)
    if (s.num_blocks == r.best_blocks) {
      EXPECT_FALSE(s.pruned);
    }
}

TEST(AutotuneOracle, FallsBackToExhaustiveWithoutReorder) {
  const auto a = gen::make_laplacian_2d(20, 20);
  PlanOptions base;
  base.reorder = false;
  base.parallel = false;
  const index_t candidates[] = {8, 32, 128};
  const auto r = autotune_block_count(a, 2, candidates, /*reps=*/1, base);
  EXPECT_FALSE(r.oracle_used);
  EXPECT_EQ(r.candidates_pruned, 0);
  EXPECT_EQ(r.candidates_timed, 3);
  EXPECT_EQ(r.oracle_rank_of_winner, 0);
}

TEST(AutotuneOracle, PrunesKernelConfigCandidates) {
  // allow_fast adds the fp32 candidates (and the AVX2 ones where the
  // CPU has it): at least four, more than the oracle's top_k = 2.
  const auto a = gen::make_laplacian_2d(24, 24);
  OracleOptions oracle;
  const auto r = autotune_kernel_config(a, 3, /*reps=*/1, {},
                                        /*allow_fast=*/true, oracle);
  EXPECT_TRUE(r.oracle_used);
  ASSERT_GE(r.samples.size(), 4u);
  EXPECT_EQ(r.candidates_pruned,
            static_cast<index_t>(r.samples.size()) - oracle.top_k);
  EXPECT_LE(r.candidates_timed, oracle.top_k);
  for (const auto& s : r.samples) {
    EXPECT_GE(s.predicted_bytes, 0.0);
    if (s.pruned) {
      EXPECT_EQ(s.seconds, 0.0);
    }
  }
  // Compressed indices shrink the modeled stream, so a compressed
  // candidate must never predict more traffic than its plain twin at
  // the same precision.
  for (const auto& s : r.samples)
    for (const auto& t : r.samples)
      if (s.index_compress && !t.index_compress &&
          s.value_precision == t.value_precision) {
        EXPECT_LE(s.predicted_bytes, t.predicted_bytes);
      }
}

// The CI `autotune-oracle` job runs this test by name. The pruned
// sweep must time at most a third of an 8-rung ladder, and its pick —
// looked up in the *exhaustive* measurement table, so the check is not
// at the mercy of two independent noisy timings — must be close to the
// exhaustive winner. 30% slack here guards the mechanism on shared CI
// hosts; the tight 5% acceptance number is measured across the full
// suite by bench_autotune_oracle.
TEST(AutotuneOracle, PrunedPickAgreesWithExhaustive) {
  const auto a = gen::make_laplacian_2d(60, 60);
  const int k = 4;
  const index_t candidates[] = {16, 32, 64, 96, 128, 192, 256, 512};
  const auto exhaustive =
      autotune_block_count(a, k, candidates, /*reps=*/5, {}, kOracleOff);
  ASSERT_EQ(exhaustive.candidates_timed,
            static_cast<index_t>(std::size(candidates)));
  const auto pruned = autotune_block_count(a, k, candidates, /*reps=*/5, {},
                                           OracleOptions{});
  ASSERT_TRUE(pruned.oracle_used);
  EXPECT_LE(pruned.candidates_timed,
            static_cast<index_t>(std::size(candidates)) / 3);
  double pick_seconds = -1.0;
  for (const auto& s : exhaustive.samples)
    if (s.num_blocks == pruned.best_blocks) pick_seconds = s.seconds;
  ASSERT_GT(pick_seconds, 0.0) << "oracle picked an untimed candidate";
  EXPECT_LE(pick_seconds, 1.30 * exhaustive.best_seconds)
      << "pruned pick " << pruned.best_blocks << " blocks vs exhaustive "
      << exhaustive.best_blocks;
}

TEST(AutotuneOracle, AutotunedPlanCarriesOracleProvenance) {
  const auto a = gen::make_laplacian_2d(32, 32);
  auto plan = build_autotuned_plan(a, 3);
  const TunedConfig& cfg = plan.tuned_config();
  EXPECT_TRUE(cfg.valid);
  EXPECT_TRUE(cfg.oracle_used);
  EXPECT_GT(cfg.oracle_predicted_bytes, 0.0);
  EXPECT_GT(cfg.candidates_scored, 0);
  EXPECT_GT(cfg.candidates_timed, 0);
  EXPECT_LT(cfg.candidates_timed, cfg.candidates_scored);
  EXPECT_GE(cfg.oracle_rank_of_winner, 1);

  PlanOptions off;
  off.autotune_oracle = false;
  auto exhaustive = build_autotuned_plan(a, 3, off);
  EXPECT_FALSE(exhaustive.tuned_config().oracle_used);
  EXPECT_EQ(exhaustive.tuned_config().oracle_rank_of_winner, 0);
}

// ---------------------------------------------------------------------------
// Typed-error skip: a failing candidate build is recorded, not fatal.
// ---------------------------------------------------------------------------

TEST(AutotuneFaults, FailedCandidateIsRecordedAndSkipped) {
  const auto a = gen::make_laplacian_2d(20, 20);
  const index_t candidates[] = {8, 32, 128};
  fault::Injector::instance().reset();
  fault::Injector::instance().arm(fault::Point::kAutotuneBuild, /*fires=*/1);
  const auto r =
      autotune_block_count(a, 2, candidates, /*reps=*/1, {}, kOracleOff);
  fault::Injector::instance().reset();

  ASSERT_EQ(r.samples.size(), 3u);
  EXPECT_TRUE(r.samples[0].failed);
  EXPECT_EQ(r.samples[0].error, ErrorCode::kResourceLimit);
  EXPECT_EQ(r.samples[0].seconds, 0.0);
  EXPECT_EQ(r.candidates_timed, 2);
  EXPECT_FALSE(r.samples[1].failed);
  EXPECT_FALSE(r.samples[2].failed);
  EXPECT_NE(r.best_blocks, 8);  // winner drawn from the survivors
  EXPECT_GT(r.best_seconds, 0.0);
}

TEST(AutotuneFaults, ThrowsOnlyWhenEveryCandidateFails) {
  const auto a = gen::make_laplacian_2d(20, 20);
  const index_t candidates[] = {8, 32};
  fault::Injector::instance().reset();
  fault::Injector::instance().arm(fault::Point::kAutotuneBuild, /*fires=*/2);
  try {
    autotune_block_count(a, 2, candidates, /*reps=*/1, {}, kOracleOff);
    FAIL() << "expected a typed error when every candidate fails";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResourceLimit);
  }
  fault::Injector::instance().reset();
}

TEST(AutotuneFaults, KernelConfigSkipsFailedCandidate) {
  const auto a = gen::make_laplacian_2d(20, 20);
  fault::Injector::instance().reset();
  fault::Injector::instance().arm(fault::Point::kAutotuneBuild, /*fires=*/1);
  const auto r = autotune_kernel_config(a, 2, /*reps=*/1, {},
                                        /*allow_fast=*/false, kOracleOff);
  fault::Injector::instance().reset();

  ASSERT_GE(r.samples.size(), 2u);
  EXPECT_TRUE(r.samples[0].failed);
  EXPECT_EQ(r.samples[0].error, ErrorCode::kResourceLimit);
  EXPECT_EQ(r.candidates_timed,
            static_cast<index_t>(r.samples.size()) - 1);
  EXPECT_GT(r.best_seconds, 0.0);
  // The scalar/plain baseline failed, so the winner is a later one.
  EXPECT_FALSE(r.best_backend == KernelBackend::kScalar &&
               !r.best_index_compress &&
               r.best_value_precision == ValuePrecision::kFp64);
}

// ---------------------------------------------------------------------------
// Scheduler race (docs/AUTOTUNING.md §the-scheduler-race).
// ---------------------------------------------------------------------------

TEST(Autotune, SweepSyncRacesOnlyLevelPlans) {
  // ABMC plans run the barrier kernel only: nothing to build or time.
  // A level plan races both syncs.
  const auto a = test::random_matrix(200, 6.0, true, 17);
  const int dflt = max_threads();
  set_threads(2);
  const SweepSyncResult abmc = autotune_sweep_sync(a, 3, /*reps=*/1);
  PlanOptions levels;
  levels.scheduler = Scheduler::kLevels;
  const SweepSyncResult lv = autotune_sweep_sync(a, 3, /*reps=*/1, levels);
  set_threads(dflt);
  EXPECT_EQ(abmc.best, SweepSync::kBarrier);
  EXPECT_EQ(abmc.barrier_seconds, 0.0);
  EXPECT_EQ(abmc.point_to_point_seconds, 0.0);
  EXPECT_GT(lv.barrier_seconds, 0.0);
  EXPECT_GT(lv.point_to_point_seconds, 0.0);
}

TEST(AutotuneScheduler, StructuralShortcutsSkipTheRace) {
  const auto a = gen::make_laplacian_2d(20, 20);

  PlanOptions serial;
  serial.parallel = false;
  const SchedulerRaceResult sr = autotune_scheduler(a, 3, 1, serial);
  EXPECT_EQ(sr.best, Scheduler::kAbmc);
  EXPECT_FALSE(sr.measured);
  EXPECT_FALSE(sr.oracle_used);

  // Without the permutation ABMC is not a candidate at all.
  const int dflt = max_threads();
  set_threads(2);
  PlanOptions natural;
  natural.reorder = false;
  const SchedulerRaceResult nr = autotune_scheduler(a, 3, 1, natural);
  set_threads(dflt);
  EXPECT_EQ(nr.best, Scheduler::kLevels);
  EXPECT_FALSE(nr.measured);
}

TEST(AutotuneScheduler, RaceMeasuresBothAndScoresBoth) {
  const auto a = test::random_matrix(220, 7.0, true, 19);
  const int dflt = max_threads();
  set_threads(2);
  const SchedulerRaceResult r = autotune_scheduler(a, 4, /*reps=*/2);
  set_threads(dflt);

  // Default oracle keeps top_k = 2, so both contenders are timed and
  // both predictions recorded; the verdict follows the measurement.
  ASSERT_TRUE(r.measured);
  EXPECT_TRUE(r.oracle_used);
  EXPECT_GT(r.abmc_seconds, 0.0);
  EXPECT_GT(r.levels_seconds, 0.0);
  EXPECT_GT(r.abmc_predicted_bytes, 0.0);
  EXPECT_GT(r.levels_predicted_bytes, 0.0);
  EXPECT_EQ(r.best, r.levels_seconds < r.abmc_seconds ? Scheduler::kLevels
                                                      : Scheduler::kAbmc);
}

TEST(AutotuneScheduler, AutotunedPlanCarriesSchedulerProvenance) {
  const auto a = test::random_matrix(180, 6.0, true, 23);
  const int dflt = max_threads();
  set_threads(2);
  PlanOptions base;
  base.scheduler = Scheduler::kAuto;
  auto plan = build_autotuned_plan(a, 3, base, /*allow_fast_kernels=*/false);
  set_threads(dflt);

  // kAuto never survives the build; the raced pick is persisted with
  // the loser's time so a reloaded plan can explain itself.
  EXPECT_NE(plan.options().scheduler, Scheduler::kAuto);
  const TunedConfig& cfg = plan.tuned_config();
  ASSERT_TRUE(cfg.valid);
  EXPECT_EQ(cfg.scheduler, plan.options().scheduler);
  EXPECT_TRUE(cfg.scheduler_measured);
  EXPECT_GT(cfg.scheduler_alt_seconds, 0.0);
  // A levels verdict carries its shipping configuration: natural order.
  if (cfg.scheduler == Scheduler::kLevels) {
    EXPECT_FALSE(plan.options().reorder);
  }
}

TEST(AutotuneScheduler, NameRoundTrip) {
  for (const Scheduler s :
       {Scheduler::kAbmc, Scheduler::kLevels, Scheduler::kAuto})
    EXPECT_EQ(parse_scheduler(scheduler_name(s)), s);
  EXPECT_THROW(parse_scheduler("colorful"), Error);
}

}  // namespace
}  // namespace fbmpk
