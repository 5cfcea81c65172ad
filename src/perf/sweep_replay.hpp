// Sampled multi-core replay of the FBMPK access stream — the autotune
// oracle's traffic predictor (docs/AUTOTUNING.md).
//
// Replays the exact per-row access pattern of fbmpk_sweep_btb
// (kernels/fbmpk.hpp) over *virtual* address streams through a
// SharedCacheSim: per-thread private L1/L2 replayed partition-by-
// partition over the ABMC (thread, color) structure, one shared
// inclusive LLC. Because the streams are synthesized, the predictor
// can price configurations that were never built: a different block
// count (re-run abmc_order, replay), a compressed column sidecar
// (fractional col_index_bytes), reduced value precision
// (matrix_value_bytes), or a batched sweep (nvec lanes per vector
// element) — without materializing a permuted matrix, a split, or a
// plan.
//
// Sampling: replaying every row costs about as much as running the
// kernel once. Instead a bounded row sample is replayed — every S-th
// ABMC block, S chosen so ~max_sample_rows rows survive — against a
// cache hierarchy scaled to the *sampled* footprint, preserving the
// paper's matrix≈20×LLC regime (the same trick bench_fig09_memory
// uses). The result is scaled back up by the sampled nnz fraction, so
// a prediction costs milliseconds on cage14-class matrices.
#pragma once

#include <cstdint>

#include "perf/cache_sim.hpp"
#include "reorder/abmc.hpp"
#include "reorder/level_schedule.hpp"
#include "sparse/csr.hpp"

namespace fbmpk::perf {

/// One replay's knobs — the candidate configuration being priced.
struct ReplayConfig {
  int k = 4;          ///< power count of the modeled A^k x
  int threads = 1;    ///< cores modeled (private L1/L2 per core)
  /// Effective stored column-index width; fractional for a band-
  /// compressed sidecar (PackedTriangleIndex::bytes_per_nnz, or the
  /// estimate_packed_index_bytes_per_nnz sample below).
  double col_index_bytes = static_cast<double>(sizeof(index_t));
  /// Stored triangle/diagonal value width (precision_value_bytes).
  std::size_t matrix_value_bytes = sizeof(double);
  /// Batched right-hand sides: every vector element widens to nvec
  /// fp64 lanes while the matrix streams stay single-read.
  int nvec = 1;
  /// Row-sample budget; every S-th ABMC block is replayed with S
  /// chosen to stay near this bound. 0 replays everything.
  index_t max_sample_rows = 4096;
  /// Cache-hierarchy scale; 0 picks it from the sampled footprint so
  /// the sample sits in the same footprint-to-LLC regime as the full
  /// problem (clamped to [0.002, 1]).
  double cache_scale = 0.0;
};

/// Predicted DRAM traffic, scaled back to the full matrix.
struct ReplayPrediction {
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;
  double sample_fraction = 1.0;  ///< off-diagonal nnz fraction replayed
  index_t replayed_rows = 0;
  std::uint64_t replayed_nnz = 0;  ///< off-diagonal entries replayed
  double cache_scale = 1.0;        ///< hierarchy scale actually used
  double seconds = 0.0;            ///< wall time of the replay itself

  std::uint64_t dram_total_bytes() const {
    return dram_read_bytes + dram_write_bytes;
  }
};

/// Replay A^k x through the simulated hierarchy and predict its DRAM
/// traffic. `ord` supplies the permutation and the (color, block)
/// structure; nullptr models the natural order as one color of
/// contiguous blocks (a serial plan). Blocks of one color are
/// distributed round-robin across the simulated cores.
ReplayPrediction replay_fbmpk_traffic(const CsrMatrix<double>& a,
                                      const AbmcOrdering* ord,
                                      const ReplayConfig& cfg);

/// Level-scheduled replay (Scheduler::kLevels): the same stage walk,
/// but rows are visited in dependency-level order over the NATURAL
/// matrix order — `fwd` levels for the forward-shaped stages (head,
/// F, tail), `bwd` levels for the backward stages — with each level's
/// sampled rows dealt round-robin across the simulated cores. Prices
/// a level-order traversal of the unpermuted matrix (an approximation:
/// level plans store rows renumbered by thread ownership) against
/// ABMC's without building either plan; the
/// scheduler race (core/autotune.hpp, autotune_scheduler) ranks the
/// two predictions before timing.
ReplayPrediction replay_fbmpk_level_traffic(const CsrMatrix<double>& a,
                                            const LevelSchedule& fwd,
                                            const LevelSchedule& bwd,
                                            const ReplayConfig& cfg);

/// Cheap sampled estimate of PackedTriangleIndex::bytes_per_nnz for
/// the triangles of `a` under `ord`'s permutation, without building
/// the split or the sidecar: walks every sampled 64-row band, checks
/// whether its lower/upper column spans fit the u16 offset window, and
/// weights narrow (2 B) vs wide (sizeof(index_t)) bands by nnz, plus
/// the per-band metadata overhead. Used by the oracle to price
/// index_compress candidates.
double estimate_packed_index_bytes_per_nnz(const CsrMatrix<double>& a,
                                           const AbmcOrdering* ord,
                                           index_t max_sample_rows = 1 << 14);

}  // namespace fbmpk::perf
