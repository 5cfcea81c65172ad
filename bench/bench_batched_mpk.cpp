// Batched right-hand sides: one multi-vector sweep over the
// xy[2·B·n] interleaved layout vs B independent single-vector runs
// (PR 7).
//
// Both sides share one serial plan in exact mode — the scalar backend
// (the library and serving default; the batched lanes are bitwise
// identical to exactly this path), band-compressed column indices,
// fp64 values — so the only variable is the batching: the singles
// stream the triangles once per vector while try_power_batch streams
// them once per chunk and pays only the extra vector lanes. This is
// the comparison the request coalescer lives by: what one batched
// rung saves over draining the same queue one exact-mode request at a
// time. The traffic model with nvec quantifies the amortization; the
// aggregate-throughput ratio reports what the machine delivered.
//
// Results land in BENCH_batched_mpk.json: per (matrix, B) a
// "singles_bN" record (B sequential try_power calls, total seconds)
// and a "batched_bN" record (one try_power_batch call), both with
// gflops over the whole batch.
#include "bench_common.hpp"

#include "kernels/dispatch.hpp"
#include "support/rng.hpp"

using namespace fbmpk;

namespace {

/// Median seconds of B sequential single-vector runs (total, not per
/// vector): the unbatched server loop this PR replaces.
double time_singles(const MpkPlan& plan, MpkPlan::Workspace& ws,
                    const std::vector<AlignedVector<double>>& xs,
                    std::vector<AlignedVector<double>>& ys, int nvec, int k,
                    const perf::BenchOptions& o) {
  return bench::robust_seconds(perf::time_runs(
      [&] {
        for (int b = 0; b < nvec; ++b)
          plan.power(xs[static_cast<std::size_t>(b)], k,
                     ys[static_cast<std::size_t>(b)], ws);
      },
      o.reps, o.warmup));
}

/// Median seconds of one batched call over the same nvec vectors.
double time_batched(const MpkPlan& plan, const double* const* xp,
                    double* const* yp, int nvec, int k,
                    const perf::BenchOptions& o) {
  return bench::robust_seconds(perf::time_runs(
      [&] {
        const Status st =
            plan.try_power_batch(xp, static_cast<index_t>(nvec), k, yp);
        st.value();  // rethrow: a bench case must not fail
      },
      o.reps, o.warmup));
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = perf::BenchOptions::parse(argc, argv);
  bench::print_banner("batched right-hand sides — B-vector sweeps vs B runs",
                      opts);
  set_threads(1);  // serial pipeline: isolate the memory streams

  // Exact mode on both sides: the scalar backend is the default the
  // service runs, and it is the accumulation order every batched lane
  // reproduces bitwise.
  const KernelBackend backend = KernelBackend::kScalar;
  std::printf("backend=%s indices=compressed values=fp64 path=serial\n\n",
              backend_name(backend));

  const int kPower = opts.powers.empty() ? 8 : opts.powers.front();
  const std::vector<int> widths = {1, 2, 4, 8};
  const int max_width = widths.back();

  perf::Table table({"matrix", "B", "singles_ms", "batched_ms", "speedup",
                     "model_ratio"});
  bench::JsonReport report("batched_mpk");

  // Aggregate throughput at B = 8 across the suite: the acceptance bar
  // is >= 1.5x vs eight independent single-vector sweeps.
  double agg_singles_b8 = 0.0;
  double agg_batched_b8 = 0.0;

  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const auto shape = perf::MatrixShape::of(m.matrix);
    const auto n = static_cast<std::size_t>(m.matrix.rows());

    PlanOptions popts;
    popts.parallel = false;
    popts.kernel_backend = backend;
    popts.index_compress = true;
    auto plan = MpkPlan::build(m.matrix, popts);
    MpkPlan::Workspace ws;

    // Distinct deterministic right-hand sides, one per lane.
    std::vector<AlignedVector<double>> xs, ys;
    std::vector<const double*> xp;
    std::vector<double*> yp;
    for (int b = 0; b < max_width; ++b) {
      Rng rng(0xba7c4 + static_cast<std::uint64_t>(b));
      AlignedVector<double> x(n);
      for (auto& e : x) e = rng.next_double(-1.0, 1.0);
      xs.push_back(std::move(x));
      ys.emplace_back(n);
      xp.push_back(xs.back().data());
      yp.push_back(ys.back().data());
    }

    const double sweeps = perf::fbmpk_sweep_count(kPower);
    const double idx_bytes = plan.packed_index().bytes_per_nnz();
    const auto model_bytes = [&](int nvec) {
      return perf::fbmpk_traffic_mixed(shape, kPower, idx_bytes,
                                       ValuePrecision::kFp64, nvec);
    };

    for (const int nvec : widths) {
      const double s_singles =
          time_singles(plan, ws, xs, ys, nvec, kPower, opts);
      const double s_batched =
          time_batched(plan, xp.data(), yp.data(), nvec, kPower, opts);

      // Modeled traffic ratio: nvec single runs stream the matrix nvec
      // times; the batch streams it once (vector lanes cost the same).
      const auto batched_traffic = model_bytes(nvec);
      const std::size_t singles_traffic =
          static_cast<std::size_t>(nvec) * model_bytes(1).total();
      const double model_ratio =
          static_cast<double>(singles_traffic) /
          static_cast<double>(batched_traffic.total());

      table.add_row({m.name, std::to_string(nvec),
                     perf::Table::fmt(s_singles * 1e3),
                     perf::Table::fmt(s_batched * 1e3),
                     perf::Table::fmt_ratio(s_singles / s_batched),
                     perf::Table::fmt_ratio(model_ratio)});

      const double batch_sweeps = sweeps * nvec;  // gflops over all lanes
      report.add({m.name, "singles_b" + std::to_string(nvec), kPower, 1,
                  s_singles,
                  bench::JsonReport::gflops_of(shape, batch_sweeps, s_singles),
                  singles_traffic});
      report.add({m.name, "batched_b" + std::to_string(nvec), kPower, 1,
                  s_batched,
                  bench::JsonReport::gflops_of(shape, batch_sweeps, s_batched),
                  batched_traffic.total()});

      if (nvec == 8) {
        agg_singles_b8 += s_singles;
        agg_batched_b8 += s_batched;
      }
    }
  }

  table.print();
  report.write();

  const double agg = agg_singles_b8 / agg_batched_b8;
  std::printf(
      "\naggregate B=8 throughput vs 8 independent runs: %.2fx "
      "(target >= 1.5x)\n",
      agg);
  std::printf(
      "one batched sweep streams the triangles once per chunk; the "
      "singles stream\nthem once per vector. model_ratio is the "
      "traffic-model bound on the speedup.\n");
  return 0;
}
