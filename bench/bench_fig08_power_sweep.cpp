// Figure 8 reproduction: FBMPK speedup over the standard MPK baseline
// as the power k sweeps 3..9, per matrix.
//
// Paper result: speedups grow with k (average 1.29-1.42x at k=3 up to
// 1.64-1.85x at k=9) because the share of matrix reads FBMPK saves is
// (k-1)/2k of the baseline's k sweeps.
#include "bench_common.hpp"

using namespace fbmpk;

int main(int argc, char** argv) {
  auto opts = perf::BenchOptions::parse(argc, argv);
  if (opts.powers.empty()) opts.powers = {3, 4, 5, 6, 7, 8, 9};
  bench::print_banner("Figure 8 — speedup vs power k", opts);
  if (opts.threads > 0) set_threads(opts.threads);

  std::vector<std::string> headers{"matrix"};
  for (int k : opts.powers) headers.push_back("k=" + std::to_string(k));
  perf::Table table(headers);

  std::vector<RunningStats> per_k(opts.powers.size());
  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const auto x = bench::bench_vector(m.matrix.rows());
    const auto plan = bench::build_plan(m.matrix, opts, FbVariant::kBtb,
                                        /*parallel=*/false,
                                        /*reorder=*/false);
    MpkPlan::Workspace ws;

    std::vector<std::string> row{m.name};
    for (std::size_t i = 0; i < opts.powers.size(); ++i) {
      const int k = opts.powers[i];
      // Serial baseline: the plan above runs serial.
      const double base_s =
          bench::time_baseline_mpk(m.matrix, x, k, opts, SpmvExec::kUnrolled);
      const double fb_s = bench::time_plan_power(plan, ws, x, k, opts);
      const double speedup = base_s / fb_s;
      per_k[i].add(speedup);
      row.push_back(perf::Table::fmt_ratio(speedup));
    }
    table.add_row(std::move(row));
  }

  std::vector<std::string> avg{"geomean"};
  for (auto& s : per_k) avg.push_back(perf::Table::fmt_ratio(s.geomean()));
  table.add_row(std::move(avg));
  table.print();
  std::printf("\npaper trend: averages rise from ~1.3x at k=3 to ~1.7x at "
              "k=9 as saved matrix sweeps accumulate\n");
  return 0;
}
