#!/usr/bin/env python3
"""End-to-end benchmark of the FBMPK library.

Run from the repository root:

    python3 perfbench/run.py --workload power_dram --seed 1 --seconds 15 --trace 0

It builds the library and fbmpk_perfbench from this checkout's sources
into $CARGO_TARGET_DIR (default .bench_build), runs one workload from
perfbench/workloads.json, checks every output bitwise, prints a run
header and every metric with its unit and sample count, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 reports the
per-layer metrics and writes the run's spans as a Chrome-trace file.
The exit code is non-zero when the build or the run fails or any
output is wrong.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import perfstats as ps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# A fixed mmap threshold stops glibc from raising it after each freed
# plan, so freed plans go back to the OS and peak_rss_mb tracks live
# memory rather than how the heap happened to fragment.
MALLOC_TUNABLES = "glibc.malloc.mmap_threshold=1048576"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then (re)build fbmpk_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "fbmpk_perfbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1, deadline - time.monotonic()))
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return build_dir / "fbmpk_perfbench"


def team_size(spec, params, nproc):
    if spec == "nproc":
        return nproc
    if spec == "(nproc-1)/workers":
        return max(1, (nproc - 1) // int(params["workers"]))
    raise ValueError(f"unknown team spec {spec!r}")


def run_binary(binary, args, defs, out, trace_out):
    wl = defs["workloads"][args.workload]
    params = wl["params"]
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(team_size(wl["team"], params,
                                           os.cpu_count() or 1))
    env["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={out}", f"--trace-out={trace_out}"]
    cmd += [f"--{k}={v}" for k, v in params.items()]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"fbmpk_perfbench exited {done.returncode}")
    with open(out) as f:
        return json.load(f), params


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class Report:
    """Collects metrics with their units and sample notes."""

    def __init__(self, units):
        self.units = units
        self.values = {}
        self.notes = {}

    def put(self, name, value, note=""):
        self.values[name] = float(value)
        self.notes[name] = note

    def timing(self, name, samples, q):
        """Percentile q of `samples`, noting the count and the highest
        percentile the sample supports (ten samples beyond it)."""
        n = len(samples)
        tail = ps.highest_supported(n)
        note = f"n={n}, {ps.beyond(q, n)} beyond"
        note += f", highest supported p{tail:g}" if tail else \
            ", no percentile has 10 beyond"
        self.put(name, ps.percentile(samples, q), note)

    def lines(self, names, aliases=None):
        for name in names:
            v = self.values[name]
            shown = f"{v:.6g}" if math.isfinite(v) else "inf"
            label = f"{name} ({aliases[name]})" if aliases and \
                name in aliases else name
            yield (f"  {label:34s} {shown:>12s} {self.units[name]:7s} "
                   f"{self.notes[name]}")

    def json_metrics(self, names):
        # JSON has no infinity: a failed request at the percentile shows
        # as 1e9 ms, and the run is marked incorrect anyway.
        return {n: {"value": self.values[n] if math.isfinite(self.values[n])
                    else 1e9, "unit": self.units[n]} for n in names}


def end_to_end(rep, raw, workload):
    """power_*: latency is one power() call, throughput is calls per
    second. serve_mix: latency runs from each request's due time in the
    open phase, throughput is the closed phase's completions."""
    rep.put("setup_s", statistics.median(raw["setup_s"]),
            f"median of {len(raw['setup_s'])} set-ups")
    if workload == "serve_mix":
        latency = ps.latencies_ms(raw["untraced"]["open"]["requests"])
        closed = raw["untraced"]["closed"]
        reqs = closed["requests"]
        rate = ps.completed_per_second(reqs, closed["start"], closed["end"])
        note = f"{len(reqs)} requests, {closed['outstanding']} outstanding"
    else:
        calls = raw["calls"]
        latency = ps.call_ms(calls)
        rate = ps.completed_per_second(calls, calls[0]["send"],
                                       calls[-1]["done"])
        note = f"{len(calls)} calls"
    rep.timing("latency_ms_p50", latency, 50)
    rep.timing("latency_ms_p90", latency, 90)
    rep.put("throughput_per_s", rate, note)
    rep.put("peak_rss_mb", raw["peak_rss_mb"],
            "" if raw["host"]["rss_reset"] else
            "peak mark not reset: includes the bandwidth probe")


def checked_records(raw, workload):
    """Every call and request whose output the run checked."""
    if workload == "serve_mix":
        recs = [r for p in raw["setup_phases"] for r in p["requests"]]
        for tag in ("untraced", "traced"):
            if tag in raw:
                p = raw[tag]
                recs += p["open"]["requests"] + p["closed"]["requests"]
        return recs
    recs = raw["calls"] + raw.get("calls_traced", [])
    if "probe" in raw:
        recs += raw["probe"]["requests"]
    return recs


def per_layer(rep, raw, workload):
    layers = raw["layers"]
    host = raw["host"]
    for name, v in layers.items():
        note = "modeled, measured_bytes=null (no PMU)" \
            if name == "kernels.modeled_mb" else ""
        rep.put(name, v, note)
    power = layers["kernels.power_ms"]
    bound = layers["kernels.modeled_mb"] / host["stream_gbs"]
    rep.put("kernels.bound_ms", bound, "modeled bytes / host.stream_gbs")
    rep.put("kernels.fraction_of_bound", bound / power,
            "against kernels.power_ms")
    rep.put("kernels.fb_speedup", layers["kernels.mpk_baseline_ms"] / power,
            "parallel standard MPK over parallel FBMPK")
    rep.put("kernels.parallel_speedup", layers["kernels.serial_ms"] / power)
    rep.put("kernels.batch8_gain", 8 * layers["kernels.batch1_ms"] /
            layers["kernels.batch8_ms"])

    # Service numbers: serve_mix's traced phases, or the closed-loop
    # probe the power_* workloads run on their own matrix.
    if workload == "serve_mix":
        headline, closed = raw["traced"]["open"], raw["traced"]["closed"]
        phases = [headline, closed]
    else:
        headline = raw["probe"]
        phases = [headline]
    reqs = headline["requests"]
    submit = [(r["submitted"] - r["send"]) * 1e3 for r in reqs]
    rep.timing("service.submit_ms_p50", submit, 50)
    rep.timing("service.submit_ms_p99", submit, 99)
    w = headline["window"]
    note = f"window() over this phase's {w['slices']:.0f} slices"
    for name, key in (("service.inside_ms_p50", "p50_ms"),
                      ("service.inside_ms_p99", "p99_ms"),
                      ("service.queue_depth_mean", "queue_depth_mean"),
                      ("service.queue_depth_max", "queue_depth_max"),
                      ("service.batch_width_mean", "batch_width_mean")):
        rep.put(name, w[key], note)
    stats = {k: sum(p["stats"][k] for p in phases)
             for k in phases[0]["stats"]}
    all_reqs = [r for p in phases for r in p["requests"]]
    rep.put("service.coalesced_ratio",
            stats["batch_coalesced"] / max(1, stats["completed"]))
    lookups = stats["cache_hits"] + stats["cache_misses"]
    rep.put("service.cache_hit_ratio", stats["cache_hits"] / max(1, lookups),
            f"{lookups} lookups")
    rep.put("service.cache_misses", stats["cache_misses"])
    rep.put("service.cache_evictions", stats["cache_evictions"])
    rep.put("service.rung_serial", sum(1 for r in all_reqs if r["rung"] == 2))
    rep.put("service.degrade_steps", sum(r["degrade"] for r in all_reqs))
    rep.put("service.rejected", stats["rejected"])
    rep.put("service.timeouts", stats["timeouts"])
    rep.timing("gen.lag_ms_p99", ps.lateness_ms(reqs), 99)
    rep.put("gen.offered_rps",
            len(reqs) / (headline["end"] - headline["start"]))

    rep.put("host.stream_gbs", host["stream_gbs"],
            f"triad arrays {host['stream_array_mb']:.0f} MiB each")
    rep.put("host.llc_mb", host["llc_mb"])
    rep.put("host.l2_mb", host["l2_mb"], "per core")
    rep.put("host.nproc", host["nproc"])

    if workload == "serve_mix":
        base = ps.latencies_ms(raw["untraced"]["open"]["requests"])
        traced = ps.latencies_ms(headline["requests"])
    else:
        base = ps.call_ms(raw["calls"])
        traced = ps.call_ms(raw["calls_traced"])
    rep.put("trace.overhead_ms",
            ps.percentile(traced, 50) - ps.percentile(base, 50),
            "traced minus untraced p50, same process")
    rep.put("trace.spans", raw["spans"])


def print_header(args, raw, params, wl_defs):
    h = raw["host"]
    print(f"fbmpk perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"host: nproc={h['nproc']} L2={h['l2_mb']:g} MiB/core "
          f"LLC={h['llc_mb']:g} MiB stream={h['stream_gbs']:.2f} GB/s "
          f"(triad arrays 3 x {h['stream_array_mb']:.0f} MiB, "
          f"{h['stream_array_mb'] / h['llc_mb']:.1f}x LLC each) "
          f"build={h['build_type']} "
          f"FBMPK_TELEMETRY={'ON' if h['telemetry'] else 'OFF'} "
          f"team={h['team']} GLIBC_TUNABLES={MALLOC_TUNABLES}")
    print(f"load: {wl_defs['load']}")
    print("params: " + " ".join(f"{k}={v}" for k, v in params.items()))
    for p in raw["plans"]:
        llc_share = p["storage_mb"] * 1e6 / (h["llc_mb"] * 2**20)
        print(f"plan {p['matrix']}: rows={p['rows']:.0f} nnz={p['nnz']:.0f} "
              f"L+U+d={p['storage_mb']:.1f} MB ({llc_share:.2f}x LLC) "
              f"scheduler={p['scheduler']} "
              f"sync={p['sync']} parallel={p['parallel']} "
              f"reorder={p['reorder']} blocks={p['blocks']:.0f} "
              f"colors={p['colors']:.0f} levels_fwd={p['levels_fwd']:.0f} "
              f"stages_fwd={p['stages_fwd']:.0f} team={p['team']:.0f} "
              f"backend={p['backend']} precision={p['precision']} "
              f"index_compress={p['index_compress']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    with open(HERE / "workloads.json") as f:
        defs = json.load(f)
    if args.workload not in defs["workloads"]:
        log(f"unknown workload {args.workload!r}; known: "
            f"{', '.join(defs['workloads'])}")
        return 2
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
        runs = build_dir / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        trace_out = runs / f"{stem}.trace.json"
        raw, params = run_binary(binary, args, defs, runs / f"{stem}.json",
                                 trace_out)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1

    units = {m["name"]: m["unit"]
             for group in ("end_to_end", "per_layer") for m in bench[group]}
    rep = Report(units)
    print_header(args, raw, params, defs["workloads"][args.workload])
    end_to_end(rep, raw, args.workload)
    attempted, failed, breakdown = ps.fail_counts(
        checked_records(raw, args.workload))
    rep.put("fail_ratio", failed / attempted,
            f"{failed}/{attempted} " +
            " ".join(f"{k}={v}" for k, v in breakdown.items()))
    print("end-to-end" + (" (this traced process's untraced phase)"
                          if args.trace else "") + ":")
    e2e = [m["name"] for m in bench["end_to_end"]]
    aliases = defs["workloads"][args.workload]["stands_for"]
    for line in rep.lines(e2e + ["fail_ratio"], aliases):
        print(line)
    if args.trace:
        per_layer(rep, raw, args.workload)
        names = [m["name"] for m in bench["per_layer"]]
        print("per-layer:")
        for line in rep.lines(names):
            print(line)
        print(f"trace: {trace_out} ({raw['spans']:.0f} spans)")
    else:
        names = e2e
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": rep.json_metrics(names)}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
