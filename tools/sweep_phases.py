#!/usr/bin/env python3
"""Head / forward / backward sweep time of one power() call, per build.

Each build is an fbmpk_cli configured with -DFBMPK_TELEMETRY=ON. For
every scale, run, thread count and build, in that order (so builds
alternate), the script runs

    fbmpk_cli power --plan=<pwtk plan> --k=K --telemetry=<trace>

and sums the trace's per-stage "head", "fwd", "bwd" and "tail" spans.
It writes a schema-v3 BENCH json: one record per (build, scale,
threads, phase) with the median over runs, every run, and the spread.

    python3 tools/sweep_phases.py --cli parent=old/fbmpk_cli \\
        --cli change=build-tel/examples/fbmpk_cli --runs 5 \\
        --workdir /tmp/phases --out BENCH_sweep_phases.json

The plan of each scale is built once, by the first --cli, into
--workdir (a pwtk plan at scale 18 is about 680 MB).
"""

import argparse
import json
import os
import statistics
import subprocess
from pathlib import Path

PHASES = ("head", "fwd", "bwd", "tail")


def phase_ms(trace):
    sums = dict.fromkeys(PHASES, 0.0)
    for e in json.loads(trace.read_text())["traceEvents"]:
        if e.get("name") in sums:
            sums[e["name"]] += e["dur"] / 1e3
    return sums


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cli", action="append", required=True,
                    help="label=path of a telemetry-ON fbmpk_cli")
    ap.add_argument("--scales", default="1,18")
    ap.add_argument("--threads", default="1,4")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--k", type=int, default=16)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    clis = dict(c.split("=", 1) for c in args.cli)
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    trace = work / "trace.json"

    samples = {}
    for scale in args.scales.split(","):
        plan = work / f"pwtk_{scale}.plan"
        if not plan.exists():
            subprocess.run([next(iter(clis.values())), "plan",
                            f"--matrix=suite:pwtk:{scale}", f"--out={plan}"],
                           check=True, stdout=subprocess.DEVNULL)
        for _ in range(args.runs):
            for threads in args.threads.split(","):
                for label, cli in clis.items():
                    env = dict(os.environ, OMP_NUM_THREADS=threads)
                    subprocess.run([cli, "power", f"--plan={plan}",
                                    f"--k={args.k}", f"--telemetry={trace}"],
                                   check=True, stdout=subprocess.DEVNULL,
                                   env=env)
                    sums = phase_ms(trace)
                    for phase, ms in sums.items():
                        key = (label, float(scale), int(threads), phase)
                        samples.setdefault(key, []).append(ms / 1e3)
                    print(label, f"scale={scale}", f"threads={threads}",
                          {p: round(ms, 1) for p, ms in sums.items()},
                          flush=True)

    records = []
    for (label, scale, threads, phase), runs in samples.items():
        if max(runs) == 0.0:
            continue  # no tail at even k
        med = statistics.median(runs)
        records.append({
            "matrix": f"pwtk:{scale:g}", "kernel": f"{label}:{phase}",
            "k": args.k, "threads": threads, "seconds": med,
            "gflops": None, "bytes_moved": None, "modeled_bytes": None,
            "measured_bytes": None, "traffic_deviation_pct": None,
            "measured_source": "", "runs_seconds": runs,
            "spread_pct": 100.0 * (max(runs) - min(runs)) / med
            if med > 0 else 0.0})
    note = ("ABMC plan (512 blocks), one fbmpk_cli power call per run; "
            "seconds is the summed duration of the phase's telemetry "
            "spans (all pairs for fwd/bwd), median over runs; "
            "spread_pct (max-min)/median. Builds alternate within a run.")
    Path(args.out).write_text(json.dumps(
        {"schema_version": 3, "runs": args.runs, "note": note,
         "records": records}, indent=1) + "\n")


if __name__ == "__main__":
    main()
