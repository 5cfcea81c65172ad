// Model-guided autotuning: oracle-pruned vs exhaustive plan build
// (docs/AUTOTUNING.md).
//
// The serving core builds plans on cache misses, where the measured
// autotune sweep is the dominant p99 cost. The traffic oracle scores
// every block-count candidate with the sampled cache-simulator replay
// and times only the top-K, so the question this bench answers per
// suite matrix is twofold:
//
//   quality — is the pruned pick's *exhaustively measured* sweep time
//   within a few percent of the exhaustive winner's? (Both times come
//   from the same exhaustive measurement table, so the comparison is
//   not at the mercy of two independent noisy timings.)
//
//   latency — how much faster is the oracle-guided sweep wall-clock
//   than timing every rung of the ladder?
//
// An 8-rung block ladder (vs the 5-rung library default) is the
// regime the oracle exists for: the wider the search, the more an
// O(top-K) measurement pass saves. Results land in
// BENCH_autotune_oracle.json, four records per matrix:
//
//   autotune_exhaustive — seconds = exhaustive sweep wall-clock,
//                         bytes_moved = candidates timed (all 8)
//   autotune_oracle     — seconds = pruned sweep wall-clock,
//                         bytes_moved = candidates timed (top-K),
//                         modeled_bytes = the pick's predicted DRAM
//   exhaustive_pick     — seconds = exhaustive winner's kernel time
//   oracle_pick         — seconds = the pruned pick's kernel time,
//                         looked up in the exhaustive table
//
// so pick quality is oracle_pick/exhaustive_pick and build-latency
// reduction is autotune_exhaustive/autotune_oracle, both derivable
// from the JSON alone (the CI autotune-oracle job checks them).
#include "bench_common.hpp"

#include <array>

#include "core/autotune.hpp"
#include "support/timer.hpp"

using namespace fbmpk;

int main(int argc, char** argv) {
  auto opts = perf::BenchOptions::parse(argc, argv);
  bench::print_banner("model-guided autotune — oracle-pruned vs exhaustive",
                      opts);

  const int k = opts.powers.empty() ? 4 : opts.powers.front();
  const std::array<index_t, 8> ladder = {64,  128, 256,  384,
                                         512, 768, 1024, 2048};
  OracleOptions oracle;  // defaults: enabled, top_k = 2
  constexpr OracleOptions kExhaustive{.enabled = false};

  perf::Table table({"matrix", "exh_ms", "oracle_ms", "speedup", "timed",
                     "exh_pick", "oracle_pick", "quality", "build_ms"});
  bench::JsonReport report("autotune_oracle");

  int within5 = 0, cases = 0;
  std::vector<double> speedups;
  for (const auto& name : bench::selected_names(opts)) {
    const auto sm = gen::make_suite_matrix(name, opts.scale);
    const auto& a = sm.matrix;
    const int threads = opts.threads > 0 ? opts.threads : max_threads();

    Timer te;
    const AutotuneResult exh =
        autotune_block_count(a, k, ladder, opts.reps, {}, kExhaustive);
    const double exh_wall = te.seconds();

    Timer to;
    const AutotuneResult pruned =
        autotune_block_count(a, k, ladder, opts.reps, {}, oracle);
    const double oracle_wall = to.seconds();

    // The pruned pick's time in the exhaustive table: the honest
    // "what did the pruned search cost in pick quality" number.
    double pick_seconds = -1.0;
    for (const auto& s : exh.samples)
      if (s.num_blocks == pruned.best_blocks) pick_seconds = s.seconds;
    FBMPK_CHECK_MSG(pick_seconds > 0.0,
                    "oracle pick " << pruned.best_blocks
                                   << " missing from exhaustive table");

    // Mean plan-build time of one candidate, over the exhaustive sweep.
    double build_seconds = 0.0;
    for (const auto& s : exh.samples) build_seconds += s.build_seconds;
    build_seconds /= static_cast<double>(exh.samples.size());

    const double speedup = exh_wall / oracle_wall;
    const double quality = pick_seconds / exh.best_seconds;
    speedups.push_back(speedup);
    ++cases;
    if (quality <= 1.05) ++within5;

    table.add_row({name, perf::Table::fmt(exh_wall * 1e3),
                   perf::Table::fmt(oracle_wall * 1e3),
                   perf::Table::fmt_ratio(speedup),
                   std::to_string(pruned.candidates_timed) + "/" +
                       std::to_string(ladder.size()),
                   perf::Table::fmt(exh.best_seconds * 1e3),
                   perf::Table::fmt(pick_seconds * 1e3),
                   perf::Table::fmt_ratio(quality),
                   perf::Table::fmt(build_seconds * 1e3)});

    report.add({name, "autotune_exhaustive", k, threads, exh_wall, 0.0,
                static_cast<std::size_t>(exh.candidates_timed)});
    report.add({name, "autotune_oracle", k, threads, oracle_wall, 0.0,
                static_cast<std::size_t>(pruned.candidates_timed),
                pruned.best_predicted_bytes, -1.0, "cache_sim"});
    report.add({name, "exhaustive_pick", k, threads, exh.best_seconds, 0.0,
                static_cast<std::size_t>(exh.best_blocks)});
    report.add({name, "oracle_pick", k, threads, pick_seconds, 0.0,
                static_cast<std::size_t>(pruned.best_blocks)});
  }
  table.print();

  std::sort(speedups.begin(), speedups.end());
  const double median_speedup =
      speedups.empty() ? 0.0 : speedups[speedups.size() / 2];
  std::printf("\npick within 5%% of exhaustive winner: %d/%d matrices\n",
              within5, cases);
  std::printf("median plan-build speedup: %.2fx (acceptance: >= 3x)\n",
              median_speedup);
  report.write();
  return 0;
}
