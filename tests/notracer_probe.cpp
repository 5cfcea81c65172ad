// Release-build probe for the NullTracer zero-cost guarantee.
//
// This TU instantiates the serial sweeps (BtB + split) and the parallel
// barrier sweep with their default NullTracer, exactly as release users
// do. The ctest check_notracer.cmake script then runs `nm` over the
// resulting object: the NullTracer read/write hooks are
// [[gnu::always_inline]] empty constexpr bodies, so no defined or
// undefined symbol for them may survive in optimized code. A surviving
// symbol means the hooks became real calls — the tracer would tax every
// nonzero of every release sweep.
//
// The same object also polices the telemetry kill switch: this TU
// force-disables the instrumentation macros (FBMPK_TELEMETRY_FORCE_OFF,
// mirroring what an FBMPK_TELEMETRY=OFF build does globally) and
// instantiates the ABMC barrier sweep and the point-to-point level
// engine. check_notracer.cmake then
// asserts no fbmpk::telemetry symbol survives — proof that the spans,
// recorders and counters compile to nothing on the hot paths.
//
// The entry points take runtime arguments and have external linkage so
// the optimizer cannot fold the kernels away entirely.
#define FBMPK_TELEMETRY_FORCE_OFF 1

#include <span>

#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_level_engine.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "sparse/split.hpp"

namespace fbmpk::probe {

void run_serial_btb(const TriangularSplit<double>& s,
                    std::span<const double> x, int k, std::span<double> y,
                    FbWorkspace<double>& ws) {
  fbmpk_power(s, x, k, y, ws, FbVariant::kBtb);
}

void run_serial_split(const TriangularSplit<double>& s,
                      std::span<const double> x, int k, std::span<double> y,
                      FbWorkspace<double>& ws) {
  fbmpk_power(s, x, k, y, ws, FbVariant::kSplit);
}

void run_parallel(const TriangularSplit<double>& s, const AbmcOrdering& o,
                  std::span<const double> x, int k, std::span<double> y,
                  FbWorkspace<double>& ws) {
  fbmpk_parallel_power(s, o, x, k, y, ws);
}

bool run_engine(const TriangularSplit<double>& s,
                const LevelSweepSchedule& sched, std::span<const double> x,
                int k, SweepWorkspace<double>& ws, std::span<double> y) {
  double* yp = y.data();
  return fbmpk_level_engine_try_sweep_rows<double, double>(
      s, sched, ScalarRows<double>(s), x, k, ws, /*pin_threads=*/false,
      [&](int p, index_t i, double v) {
        if (p == k) yp[i] = v;
      });
}

}  // namespace fbmpk::probe
