// Figure 7 reproduction: FBMPK speedup over the standard MPK baseline
// with power k = 5 across the 14-matrix suite.
//
// Paper result: average speedups of 1.50x / 1.54x / 1.47x / 1.73x on
// FT-2000+ / ThunderX2 / KP920 / Xeon, max 2.32x. Our substrate is one
// CPU core, so the measured column reflects the serial memory-traffic
// effect; the model columns use the platform cost model (DESIGN.md §4).
#include "bench_common.hpp"
#include "perf/cost_model.hpp"
#include "reorder/permutation.hpp"

using namespace fbmpk;

int main(int argc, char** argv) {
  const auto opts = perf::BenchOptions::parse(argc, argv);
  bench::print_banner("Figure 7 — overall speedup, k=5", opts);
  if (opts.threads > 0) set_threads(opts.threads);
  const int k = opts.powers.empty() ? 5 : opts.powers.front();

  perf::Table table({"matrix", "rows", "nnz", "baseline_ms", "fbmpk_ms",
                     "speedup", "par_baseline_ms", "abmc_ms", "abmc_path",
                     "model:FT2000+", "model:Xeon"});
  RunningStats speedups, abmc_speedups, model_ft, model_xeon;

  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const auto x = bench::bench_vector(m.matrix.rows());
    // Primary measurement: the serial FB+BtB pipeline — the memory-
    // traffic effect a single core can express. The ABMC-scheduled
    // parallel path is also timed (at this host's thread count) for
    // transparency; its coloring permutation only pays off multi-core.
    // Each ratio divides by a baseline timed at the same thread count:
    // `speedup` by the serial baseline, `abmc_path` by the row-parallel
    // one.
    const auto plan_serial = bench::build_plan(
        m.matrix, opts, FbVariant::kBtb, /*parallel=*/false,
        /*reorder=*/false);
    const auto plan = bench::build_plan(m.matrix, opts);
    MpkPlan::Workspace ws, ws2;

    const double base_s =
        bench::time_baseline_mpk(m.matrix, x, k, opts, SpmvExec::kUnrolled);
    const double base_par_s = bench::time_baseline_mpk(m.matrix, x, k, opts);
    const double fb_s = bench::time_plan_power(plan_serial, ws, x, k, opts);
    const double abmc_s = bench::time_plan_power(plan, ws2, x, k, opts);
    const double speedup = base_s / fb_s;
    speedups.add(speedup);
    abmc_speedups.add(base_par_s / abmc_s);

    // Platform-model predictions at full core counts.
    const auto permuted = permute_symmetric(m.matrix, plan.permutation());
    const auto shape = perf::WorkloadShape::of(permuted, plan.schedule());
    auto model_speedup = [&](const char* platform) {
      const auto p = perf::platform_by_name(platform);
      return perf::predict_standard_mpk_seconds(p, shape, k, p.cores) /
             perf::predict_fbmpk_seconds(p, shape, k, p.cores);
    };
    const double ft = model_speedup("FT2000+");
    const double xeon = model_speedup("Xeon");
    model_ft.add(ft);
    model_xeon.add(xeon);

    table.add_row({m.name, std::to_string(m.matrix.rows()),
                   std::to_string(m.matrix.nnz()),
                   perf::Table::fmt(base_s * 1e3),
                   perf::Table::fmt(fb_s * 1e3),
                   perf::Table::fmt_ratio(speedup),
                   perf::Table::fmt(base_par_s * 1e3),
                   perf::Table::fmt(abmc_s * 1e3),
                   perf::Table::fmt_ratio(base_par_s / abmc_s),
                   perf::Table::fmt_ratio(ft),
                   perf::Table::fmt_ratio(xeon)});
  }

  table.print();
  std::printf(
      "\ngeomean speedup: measured %.2fx (abmc path %.2fx) | model FT2000+ "
      "%.2fx | model Xeon %.2fx\n",
      speedups.geomean(), abmc_speedups.geomean(), model_ft.geomean(),
      model_xeon.geomean());
  std::printf("paper (k=5 averages): FT2000+ 1.50x, ThunderX2 1.54x, "
              "KP920 1.47x, Xeon 1.73x; max 2.32x\n");
  return 0;
}
