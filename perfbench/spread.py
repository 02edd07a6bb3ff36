#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload clique-par --seeds 1-5 [--seconds 30] [--trace 0]

For each metric it prints the median over the runs and the distance
between the first and third quartiles as a share of that median, the
figure BENCHMARK.json's bounds are judged against.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    values = {}
    for seed in seeds(a.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}", file=sys.stderr)
            return 1
        verdict = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(verdict["metrics"].items())), flush=True)
        for k, v in verdict["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{k:40s} median={med:<12.6g} iqr/median={share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
