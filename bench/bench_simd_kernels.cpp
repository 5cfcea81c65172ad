// Row-kernel backend comparison: exact scalar vs the dispatched AVX2
// backend and the band-compressed column sidecar, single thread,
// k in {4, 8, 16}.
//
// All configurations run the identical serial FBMPK pipeline; the only
// difference is the per-row dot kernel (kernels/dispatch.hpp) and the
// column-index stream (sparse/packed_tri.hpp). "scalar" is the exact
// reference; the AVX2 backend reassociates within a row dot
// (docs/KERNELS.md bounds the error). bytes_moved uses the traffic
// model with the measured sidecar bytes/nnz for compressed runs.
//
// Results land in BENCH_simd_kernels.json.
#include "bench_common.hpp"

#include "kernels/dispatch.hpp"

using namespace fbmpk;

namespace {

struct Config {
  std::string label;
  KernelBackend backend;
  bool compress;
};

}  // namespace

int main(int argc, char** argv) {
  auto opts = perf::BenchOptions::parse(argc, argv);
  bench::print_banner("row kernels — scalar vs SIMD vs compressed", opts);
  set_threads(1);  // isolate the per-row kernel, not the schedule

  std::vector<Config> configs{{"scalar", KernelBackend::kScalar, false},
                              {"scalar_packed", KernelBackend::kScalar, true}};
  if (backend_available(KernelBackend::kAvx2)) {
    configs.push_back({"avx2", KernelBackend::kAvx2, false});
    configs.push_back({"avx2_packed", KernelBackend::kAvx2, true});
  }

  const std::vector<int> powers =
      opts.powers.empty() ? std::vector<int>{4, 8, 16} : opts.powers;

  perf::Table table({"matrix", "k", "kernel", "ms", "vs_scalar"});
  bench::JsonReport report("simd_kernels");

  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const auto x = bench::bench_vector(m.matrix.rows());
    const auto shape = perf::MatrixShape::of(m.matrix);

    for (const int k : powers) {
      double scalar_s = 0.0;
      for (const Config& c : configs) {
        PlanOptions popts;
        popts.parallel = false;  // serial: kernel time, no schedule noise
        popts.kernel_backend = c.backend;
        popts.index_compress = c.compress;
        auto plan = MpkPlan::build(m.matrix, popts);

        MpkPlan::Workspace ws;
        const double s = bench::time_plan_power(plan, ws, x, k, opts);
        if (c.backend == KernelBackend::kScalar && !c.compress) scalar_s = s;

        table.add_row({m.name, std::to_string(k), c.label,
                       perf::Table::fmt(s * 1e3),
                       perf::Table::fmt_ratio(scalar_s / s)});

        const double sweeps = perf::fbmpk_sweep_count(k);
        const double idx_bytes =
            c.compress ? plan.packed_index().bytes_per_nnz()
                       : static_cast<double>(sizeof(index_t));
        const std::size_t bytes =
            perf::fbmpk_traffic_compressed(shape, k, idx_bytes).total();
        report.add({m.name, c.label, k, 1, s,
                    bench::JsonReport::gflops_of(shape, sweeps, s), bytes});
      }
    }
  }

  table.print();
  report.write();
  std::printf(
      "\nsingle-thread serial pipeline; scalar is the exact reference, "
      "avx2\nreassociates within one row dot, *_packed reads "
      "u16 band offsets where a band's\ncolumn range fits (full-width "
      "fallback otherwise).\n");
  return 0;
}
