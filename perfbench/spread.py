#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --workload serve_mix --seeds 1-10

Runs perfbench/run.py once per seed, one after another, and prints for
each metric its values, median, and spread: the distance between the
first and third quartile as a share of the median. A metric is steady
when its spread is below a third of its bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import perfstats as ps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="range like 1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="defaults to run_seconds in BENCHMARK.json")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"),
               f"--workload={args.workload}", f"--seed={seed}",
               f"--seconds={seconds:g}", "--trace=0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: run failed ({done.returncode})\n"
                  f"{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"\n{args.workload}, {len(values['setup_s'])} seeds, "
          f"{seconds:g} s runs")
    worst = 0.0
    for name, vs in values.items():
        s = ps.spread(vs)
        share = s / bounds[name]
        worst = max(worst, share)
        print(f"  {name:16s} median {statistics.median(vs):11.5g}  "
              f"spread {s:7.4f}  bound {bounds[name]:.2f}  "
              f"spread/bound {share:5.2f}"
              f"{'' if share < 1 / 3 else '  <-- above a third'}")
    print(f"worst spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
