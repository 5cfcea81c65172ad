// Figure 11 reproduction: one-off ABMC preprocessing cost, normalized to
// single-thread SpMV invocations of the same matrix.
//
// Paper result: on average the reorder costs ~36 SpMVs (range roughly
// 15-70), amortized away because the plan is reused across many MPK
// calls. We additionally ablate the blocking strategy (BFS "algebraic"
// aggregation vs contiguous chunking) and the coloring order — design
// choices DESIGN.md §7 calls out.
#include "bench_common.hpp"
#include "kernels/spmv.hpp"
#include "reorder/abmc.hpp"

using namespace fbmpk;

int main(int argc, char** argv) {
  const auto opts = perf::BenchOptions::parse(argc, argv);
  bench::print_banner("Figure 11 — ABMC preprocessing overhead", opts);

  perf::Table table({"matrix", "spmv_ms", "abmc_ms", "#spmv_equiv",
                     "bfs_ms", "colors(contig)", "colors(bfs)",
                     "colors(LF)"});
  RunningStats equivalents;

  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const index_t n = m.matrix.rows();
    const auto x = bench::bench_vector(n);
    AlignedVector<double> y(static_cast<std::size_t>(n));

    const double spmv_s =
        perf::time_runs(
            [&] { spmv<double>(m.matrix, x, y, SpmvExec::kUnrolled); },
            opts.reps, opts.warmup)
            .geomean();

    // The headline is the plan's default ordering (contiguous blocking,
    // quotient read from the pattern); BFS blocking also builds and
    // walks the row-level graph.
    AbmcOptions contig;
    contig.num_blocks = opts.num_blocks;
    Timer t_contig;
    const auto o_contig = abmc_order(m.matrix, contig);
    const double abmc_s = t_contig.seconds();

    AbmcOptions bfs = contig;
    bfs.blocking = BlockingStrategy::kBfs;
    Timer t_bfs;
    const auto o_bfs = abmc_order(m.matrix, bfs);
    const double bfs_s = t_bfs.seconds();

    AbmcOptions lf = contig;
    lf.coloring = ColoringOrder::kLargestDegreeFirst;
    const auto o_lf = abmc_order(m.matrix, lf);

    const double equiv = abmc_s / spmv_s;
    equivalents.add(equiv);
    table.add_row({m.name, perf::Table::fmt(spmv_s * 1e3),
                   perf::Table::fmt(abmc_s * 1e3),
                   perf::Table::fmt(equiv, 1),
                   perf::Table::fmt(bfs_s * 1e3),
                   std::to_string(o_contig.num_colors),
                   std::to_string(o_bfs.num_colors),
                   std::to_string(o_lf.num_colors)});
  }

  table.print();
  std::printf("\naverage preprocessing cost: %.1f single-thread SpMV "
              "invocations (paper average: 36; one-off, amortized over "
              "reuse)\n",
              equivalents.mean());
  return 0;
}
