// Mixed-precision value storage: fp64 vs fp32 value streams through
// the identical serial FBMPK pipeline.
//
// All configurations share one backend (the dispatched auto choice)
// and band-compressed column indices, so the only variable is the
// stored value stream: 8 B/nnz doubles or 4 B/nnz floats.
// Accumulation is always fp64 (docs/KERNELS.md bounds the
// value-rounding error). bytes_moved uses the
// precision-aware traffic model, so the fp32 rows show both the
// measured speedup and the modelled traffic reduction it comes from.
//
// Results land in BENCH_mixed_precision.json.
#include "bench_common.hpp"

#include "kernels/dispatch.hpp"
#include "sparse/packed_tri.hpp"

using namespace fbmpk;

int main(int argc, char** argv) {
  auto opts = perf::BenchOptions::parse(argc, argv);
  bench::print_banner("mixed-precision values — fp64 vs fp32", opts);
  set_threads(1);  // isolate the value stream, not the schedule

  const KernelBackend backend = resolve_backend(KernelBackend::kAuto);
  std::printf("backend=%s indices=compressed accumulation=fp64\n\n",
              backend_name(backend));

  const std::vector<int> powers =
      opts.powers.empty() ? std::vector<int>{4, 16} : opts.powers;
  const ValuePrecision precisions[] = {ValuePrecision::kFp64,
                                       ValuePrecision::kFp32};

  perf::Table table(
      {"matrix", "k", "values", "ms", "vs_fp64", "value_MB"});
  bench::JsonReport report("mixed_precision");

  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const auto x = bench::bench_vector(m.matrix.rows());
    const auto shape = perf::MatrixShape::of(m.matrix);

    for (const int k : powers) {
      double fp64_s = 0.0;
      for (const ValuePrecision prec : precisions) {
        PlanOptions popts;
        popts.parallel = false;  // serial: value-stream time only
        popts.kernel_backend = backend;
        popts.index_compress = true;
        popts.value_precision = prec;
        auto plan = MpkPlan::build(m.matrix, popts);

        MpkPlan::Workspace ws;
        const double s = bench::time_plan_power(plan, ws, x, k, opts);
        if (prec == ValuePrecision::kFp64) fp64_s = s;

        const std::size_t value_bytes =
            prec == ValuePrecision::kFp64
                ? static_cast<std::size_t>(shape.nnz) * sizeof(double)
                : plan.stats().packed_value_bytes;
        table.add_row({m.name, std::to_string(k), precision_name(prec),
                       perf::Table::fmt(s * 1e3),
                       perf::Table::fmt_ratio(fp64_s / s),
                       perf::Table::fmt(static_cast<double>(value_bytes) /
                                        (1024.0 * 1024.0))});

        const double sweeps = perf::fbmpk_sweep_count(k);
        const double idx_bytes = plan.packed_index().bytes_per_nnz();
        const std::size_t bytes =
            perf::fbmpk_traffic_mixed(shape, k, idx_bytes, prec).total();
        report.add({m.name, std::string("values_") + precision_name(prec),
                    k, 1, s,
                    bench::JsonReport::gflops_of(shape, sweeps, s), bytes});
      }
    }
  }

  table.print();
  report.write();
  std::printf(
      "\nsingle-thread serial pipeline, one backend, compressed indices; "
      "only the stored\nvalue stream changes. fp32 halves value traffic "
      "(4 B/nnz).\n");
  return 0;
}
