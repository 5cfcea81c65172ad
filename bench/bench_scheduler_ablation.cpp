// Scheduler ablation (DESIGN.md §7 + paper §VII): ABMC coloring versus
// level scheduling for parallel FBMPK, k = 5.
//
// ABMC pays a recoloring permutation (locality risk, preprocessing
// cost) to get a handful of barriers per sweep; level scheduling keeps
// each row's arithmetic but needs one sync point per stage of
// aggregated dependency levels — a team barrier, or per-thread epoch
// waits in the blocked level engine. Level plans store their rows
// renumbered by thread ownership. This bench reports the structural
// trade-off (colors vs levels vs stages, i.e. sync points per
// forward+backward pair) and the measured kernel times on this host,
// across four rungs:
//   abmc          ABMC permutation + per-color barriers
//   levels_barrier blocked stages, one barrier per stage
//   levels_engine  blocked stages + p2p epoch sync
//   serial         natural order, single thread (the bitwise oracle)
//
// Results land in BENCH_scheduler_ablation.json (schema v3).
#include "bench_common.hpp"
#include "kernels/fbmpk_level.hpp"
#include "perf/cost_model.hpp"
#include "reorder/nnz_partition.hpp"
#include "sparse/split.hpp"

using namespace fbmpk;

int main(int argc, char** argv) {
  const auto opts = perf::BenchOptions::parse(argc, argv);
  bench::print_banner("Ablation — ABMC vs level scheduling, k=5", opts);
  if (opts.threads > 0) set_threads(opts.threads);
  const int threads = opts.threads > 0 ? opts.threads : max_threads();
  const int k = opts.powers.empty() ? 5 : opts.powers.front();

  perf::Table table({"matrix", "colors", "levels(fwd)", "stages(fwd)",
                     "abmc_ms", "lvl_bar_ms", "lvl_eng_ms", "serial_ms"});
  const index_t part_threads = opts.threads > 0 ? opts.threads : 4;
  perf::Table imbalance({"matrix", "threads", "static:worst", "static:mean",
                         "lpt:worst", "lpt:mean"});
  bench::JsonReport report("scheduler_ablation");

  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const auto x = bench::bench_vector(m.matrix.rows());
    const auto shape = perf::MatrixShape::of(m.matrix);

    PlanOptions abmc_opts;
    abmc_opts.abmc.num_blocks = opts.num_blocks;
    auto abmc_plan = MpkPlan::build(m.matrix, abmc_opts);

    PlanOptions lvl_opts;
    lvl_opts.reorder = false;
    lvl_opts.scheduler = Scheduler::kLevels;
    auto lvl_plan = MpkPlan::build(m.matrix, lvl_opts);

    PlanOptions eng_opts = lvl_opts;
    eng_opts.sweep.sync = SweepSync::kPointToPoint;
    auto eng_plan = MpkPlan::build(m.matrix, eng_opts);

    PlanOptions ser_opts;
    ser_opts.reorder = false;
    ser_opts.parallel = false;
    auto ser_plan = MpkPlan::build(m.matrix, ser_opts);

    MpkPlan::Workspace w1, w2, w3, w4;
    const double abmc_s = bench::time_plan_power(abmc_plan, w1, x, k, opts);
    const double lvl_s = bench::time_plan_power(lvl_plan, w2, x, k, opts);
    const double eng_s = bench::time_plan_power(eng_plan, w3, x, k, opts);
    const double ser_s = bench::time_plan_power(ser_plan, w4, x, k, opts);

    const index_t colors = abmc_plan.stats().num_colors;
    const index_t lv_f = lvl_plan.stats().num_levels_forward;
    const index_t st_f = eng_plan.level_sweep_schedule().fwd.num_stages;
    table.add_row({m.name, std::to_string(colors), std::to_string(lv_f),
                   std::to_string(st_f), perf::Table::fmt(abmc_s * 1e3),
                   perf::Table::fmt(lvl_s * 1e3),
                   perf::Table::fmt(eng_s * 1e3),
                   perf::Table::fmt(ser_s * 1e3)});

    // One schema-v3 record per rung, so regression checks can diff the
    // scheduler gap without scraping stdout. All four rungs evaluate
    // the same A^k x, so the traffic model's compulsory-byte estimate
    // is shared.
    const double sweeps = perf::fbmpk_sweep_count(k);
    const std::size_t bytes = perf::fbmpk_traffic(shape, k).total();
    const double modeled = static_cast<double>(bytes);
    report.add({m.name, "abmc", k, threads, abmc_s,
                bench::JsonReport::gflops_of(shape, sweeps, abmc_s), bytes,
                modeled});
    report.add({m.name, "levels_barrier", k, threads, lvl_s,
                bench::JsonReport::gflops_of(shape, sweeps, lvl_s), bytes,
                modeled});
    report.add({m.name, "levels_engine", k, threads, eng_s,
                bench::JsonReport::gflops_of(shape, sweeps, eng_s), bytes,
                modeled});
    report.add({m.name, "serial", k, 1, ser_s,
                bench::JsonReport::gflops_of(shape, sweeps, ser_s), bytes,
                modeled});

    // Per-color thread imbalance (max/mean nnz per thread): what an
    // nnz-LPT partition of each color would buy over the barrier
    // kernel's omp-static split.
    const auto& split = abmc_plan.split();
    const auto weights = block_nnz_weights(
        abmc_plan.schedule(), split.lower.row_ptr(), split.upper.row_ptr());
    const auto stat = perf::partition_imbalance(
        abmc_plan.schedule(), weights, part_threads,
        PartitionStrategy::kBlockStatic);
    const auto lpt = perf::partition_imbalance(
        abmc_plan.schedule(), weights, part_threads,
        PartitionStrategy::kNnzLpt);
    imbalance.add_row({m.name, std::to_string(part_threads),
                       perf::Table::fmt(stat.worst),
                       perf::Table::fmt(stat.mean),
                       perf::Table::fmt(lpt.worst),
                       perf::Table::fmt(lpt.mean)});
  }

  table.print();
  std::printf("\nper-color load imbalance (max/mean nnz per thread; 1.0 = "
              "perfect):\n");
  imbalance.print();
  report.write();
  std::printf(
      "\nlevel scheduling needs no recoloring, but its stages cost far "
      "more sync than\nABMC's per-color barriers — the reason the paper "
      "chose multi-coloring (§III-D).\nThe blocked level engine "
      "(levels_engine) narrows that gap: threads wait on\nactual "
      "predecessors via epoch counters, so levels become competitive on "
      "matrices\nwhere ABMC's color count explodes (see "
      "docs/PARALLELISM.md for the decision table).\n");
  return 0;
}
