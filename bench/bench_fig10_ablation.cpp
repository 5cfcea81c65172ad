// Figure 10 reproduction: contribution of the two FBMPK optimizations at
// k = 5 — the forward-backward pipeline alone (FB, split iterate
// storage) versus FB plus back-to-back interleaved vectors (FB+BtB).
//
// Paper result (FT-2000+): FB alone averages 1.41x over the baseline,
// FB+BtB 1.50x; the BtB gain is modest on Xeon.
#include "bench_common.hpp"

using namespace fbmpk;

int main(int argc, char** argv) {
  const auto opts = perf::BenchOptions::parse(argc, argv);
  bench::print_banner("Figure 10 — FB vs FB+BtB ablation, k=5", opts);
  if (opts.threads > 0) set_threads(opts.threads);
  const int k = opts.powers.empty() ? 5 : opts.powers.front();

  perf::Table table(
      {"matrix", "baseline_ms", "FB_ms", "FB+BtB_ms", "FB", "FB+BtB"});
  RunningStats fb_speedups, btb_speedups;

  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const auto x = bench::bench_vector(m.matrix.rows());

    // Serial pipelines on the original ordering isolate the storage-
    // layout effect; the only difference between them is BtB.
    const auto plan_fb =
        bench::build_plan(m.matrix, opts, FbVariant::kSplit,
                          /*parallel=*/false, /*reorder=*/false);
    const auto plan_btb =
        bench::build_plan(m.matrix, opts, FbVariant::kBtb,
                          /*parallel=*/false, /*reorder=*/false);
    MpkPlan::Workspace w1, w2;

    // Serial baseline: both plans above run serial.
    const double base_s =
        bench::time_baseline_mpk(m.matrix, x, k, opts, SpmvExec::kUnrolled);
    const double fb_s = bench::time_plan_power(plan_fb, w1, x, k, opts);
    const double btb_s = bench::time_plan_power(plan_btb, w2, x, k, opts);
    fb_speedups.add(base_s / fb_s);
    btb_speedups.add(base_s / btb_s);

    table.add_row({m.name, perf::Table::fmt(base_s * 1e3),
                   perf::Table::fmt(fb_s * 1e3),
                   perf::Table::fmt(btb_s * 1e3),
                   perf::Table::fmt_ratio(base_s / fb_s),
                   perf::Table::fmt_ratio(base_s / btb_s)});
  }

  table.print();
  std::printf("\ngeomean: FB %.2fx, FB+BtB %.2fx (paper FT2000+: 1.41x vs "
              "1.50x)\n",
              fb_speedups.geomean(), btb_speedups.geomean());
  return 0;
}
