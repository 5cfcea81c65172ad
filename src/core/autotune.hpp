// Empirical autotuning of the ABMC block count.
//
// The paper exposes the block count as a user knob ("a trade-off
// between performance and parallelism", §III-D) with a default of 512
// or 1024. Since the best value depends on the matrix, the thread
// count and the power k, this module measures a small candidate sweep
// on the actual kernel and returns the winner — a one-off cost in the
// same amortized-preprocessing budget as the reorder itself (§V-F).
//
// Model-guided pruning (docs/AUTOTUNING.md): timing every candidate is
// the dominant cost when plans are built on a serving cache miss, so
// both sweeps can first *score* every candidate with the sampled
// cache-simulator replay (perf/sweep_replay) and time only the top-K
// by predicted DRAM traffic. The full sample table is still returned —
// pruned candidates carry their prediction and `pruned = true`.
#pragma once

#include <span>
#include <vector>

#include "core/plan.hpp"

namespace fbmpk {

/// Knobs of the traffic-oracle pruning pass shared by both sweeps.
struct OracleOptions {
  /// Score candidates with the sampled replay and time only the top
  /// `top_k`. When false (or when the oracle cannot model the
  /// configuration — see docs/AUTOTUNING.md §fallback) every candidate
  /// is timed, as before.
  bool enabled = true;
  /// Survivors to time per sweep. 2 keeps a runner-up so a model
  /// mis-ranking of the top pick still gets caught by measurement.
  int top_k = 2;
  /// Row-sample budget forwarded to perf::ReplayConfig.
  index_t max_sample_rows = 4096;
};

/// One candidate of the block-count sweep. Exactly one of three shapes:
/// measured (`seconds` valid), pruned by the oracle (`pruned`, only
/// `predicted_bytes` valid), or failed (`failed`, `error` holds the
/// typed build error and the candidate is skipped, not fatal).
struct AutotuneSample {
  index_t num_blocks = 0;
  index_t num_colors = 0;
  double seconds = 0.0;       ///< median kernel time for A^k x
  double build_seconds = 0.0; ///< plan construction time
  double predicted_bytes = -1.0;  ///< oracle DRAM estimate (-1 = not scored)
  bool pruned = false;   ///< scored below the top-K; never timed
  bool failed = false;   ///< plan build threw; see `error`
  ErrorCode error = ErrorCode::kInternal;  ///< valid iff `failed`
};

struct AutotuneResult {
  index_t best_blocks = 0;
  double best_seconds = 0.0;
  std::vector<AutotuneSample> samples;  ///< in candidate order
  bool oracle_used = false;        ///< pruning pass actually ran
  index_t candidates_timed = 0;    ///< samples measured end-to-end
  index_t candidates_pruned = 0;   ///< samples skipped on prediction
  /// Winner's 1-based position in the oracle's predicted ranking of the
  /// *timed* survivors (1 = model's top pick won; 0 = oracle unused).
  index_t oracle_rank_of_winner = 0;
  double best_predicted_bytes = 0.0;  ///< winner's prediction (0 = unscored)
};

/// Default candidate ladder around the paper's 512/1024 defaults.
std::span<const index_t> default_block_candidates();

/// Barrier-vs-point-to-point measurement for one matrix.
struct SweepSyncResult {
  SweepSync best = SweepSync::kBarrier;
  double barrier_seconds = 0.0;
  double point_to_point_seconds = 0.0;
};

/// Measure y = A^k x under both sweep synchronization modes (same
/// options otherwise) and pick the faster. Only level-scheduled plans
/// have a point-to-point engine: for ABMC plans (which always run the
/// per-color barrier kernel), serial plans or a single-thread runtime
/// it returns kBarrier without building or timing a plan.
SweepSyncResult autotune_sweep_sync(const CsrMatrix<double>& a, int k,
                                    int reps = 3, PlanOptions base = {});

/// ABMC-vs-level-scheduler race for one matrix (Scheduler::kAuto's
/// measured resolution). Mirrors the oracle-then-time shape of the
/// other sweeps: both schedulers are first *scored* with the sampled
/// replay (perf/sweep_replay — the ABMC replay walks the recolored
/// (color, block) structure, the level replay walks dependency levels
/// over the natural order), then the top-K survivors are timed on real
/// plans and the fastest wins. With the default top_k >= 2 both are
/// always timed (`measured`); top_k == 1 trusts the model and times
/// only its pick.
struct SchedulerRaceResult {
  Scheduler best = Scheduler::kAbmc;
  /// Both schedulers were timed end-to-end (false when one was forced
  /// structurally — serial, or !reorder — or pruned by the oracle).
  bool measured = false;
  double abmc_seconds = 0.0;    ///< median A^k x time (0 = not timed)
  double levels_seconds = 0.0;  ///< median A^k x time (0 = not timed)
  bool oracle_used = false;
  double abmc_predicted_bytes = -1.0;    ///< -1 = not scored
  double levels_predicted_bytes = -1.0;  ///< -1 = not scored
};

/// Race the two parallel schedulers on y = A^k x. Serial plans resolve
/// to kAbmc without measurement; `!base.reorder` forces kLevels (ABMC
/// needs the permutation it is built around, the level scheduler is
/// exactly the no-reorder strategy). `base.scheduler` is ignored — the
/// caller is asking which one to set.
SchedulerRaceResult autotune_scheduler(const CsrMatrix<double>& a, int k,
                                       int reps = 3, PlanOptions base = {},
                                       const OracleOptions& oracle = {});

/// Measure each candidate block count on y = A^k x and pick the
/// fastest. `base` supplies every option except abmc.num_blocks. With
/// the oracle enabled (and `base.reorder` set, so the ABMC structure
/// the model replays actually exists) candidates are first ranked by
/// predicted DRAM traffic and only the top-K timed. Candidates whose
/// plan build throws a typed Error are recorded as failed and skipped;
/// the sweep only throws if *every* candidate fails.
AutotuneResult autotune_block_count(
    const CsrMatrix<double>& a, int k,
    std::span<const index_t> candidates = default_block_candidates(),
    int reps = 3, PlanOptions base = {}, const OracleOptions& oracle = {});

/// One row-kernel configuration candidate; same three shapes as
/// AutotuneSample (measured / pruned / failed).
struct KernelConfigSample {
  KernelBackend backend = KernelBackend::kScalar;
  bool index_compress = false;
  ValuePrecision value_precision = ValuePrecision::kFp64;
  double seconds = 0.0;            ///< median kernel time for A^k x
  std::size_t packed_index_bytes = 0;  ///< sidecar size (0 when plain)
  std::size_t packed_value_bytes = 0;  ///< value sidecar size (0 = fp64)
  double predicted_bytes = -1.0;  ///< oracle DRAM estimate (-1 = not scored)
  bool pruned = false;   ///< scored below the top-K; never timed
  bool failed = false;   ///< plan build threw; see `error`
  ErrorCode error = ErrorCode::kInternal;  ///< valid iff `failed`
};

struct KernelConfigResult {
  KernelBackend best_backend = KernelBackend::kScalar;
  bool best_index_compress = false;
  ValuePrecision best_value_precision = ValuePrecision::kFp64;
  double best_seconds = 0.0;
  std::vector<KernelConfigSample> samples;  ///< in candidate order
  bool oracle_used = false;
  index_t candidates_timed = 0;
  index_t candidates_pruned = 0;
  index_t oracle_rank_of_winner = 0;  ///< as in AutotuneResult
  double best_predicted_bytes = 0.0;
};

/// Measure y = A^k x across row-kernel configurations — the exact
/// scalar backend vs the AVX2 backend when available, each with plain
/// and band-compressed column indices, and fp64 vs fp32 value storage
/// — and pick the fastest. Vector (fast-mode) and fp32 candidates are
/// only tried when `allow_fast` is set: both trade the bitwise exact
/// result for a bounded error (docs/KERNELS.md), so the caller must opt
/// in. Configurations the plan builder rejects (the split variant) are
/// skipped, leaving the scalar/plain baseline; both schedulers dispatch
/// the full candidate set.
KernelConfigResult autotune_kernel_config(const CsrMatrix<double>& a, int k,
                                          int reps = 3, PlanOptions base = {},
                                          bool allow_fast = false,
                                          const OracleOptions& oracle = {});

/// Convenience: build a plan with the autotuned block count, for
/// parallel plans the autotuned sweep synchronization, and — only
/// when `allow_fast_kernels` opts in — the autotuned row-kernel
/// backend / index compression / value precision. When
/// `base.scheduler` is Scheduler::kAuto the ABMC-vs-levels race runs
/// first (autotune_scheduler) and the measured winner is built; the
/// pick, whether it was measured, and the loser's time are persisted
/// in TunedConfig (plan format v7). The winning
/// configuration is recorded on the plan (MpkPlan::tuned_config) and
/// persisted by save_plan, so a reloaded plan knows what was tuned and
/// whether the choice is stale on the loading machine.
/// `base.autotune_oracle` (default on) routes both sweeps through the
/// traffic-oracle pruning; the oracle's predicted-vs-measured ranking
/// is persisted in TunedConfig for staleness checks.
MpkPlan build_autotuned_plan(const CsrMatrix<double>& a, int k,
                             PlanOptions base = {},
                             bool allow_fast_kernels = false);

}  // namespace fbmpk
