"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (interquartile range over median).

    python3 perfbench/spread.py --workloads telescoper cli-cold --runs 10 \
        --seconds 15 [--trace 1] [--first-seed 1]

Runs are made one at a time, each in a fresh process, from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls, shares = [], set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(perf_counter() - start)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        fail_shares = {f / a for f, a in shares}
        print(f"## {workload}: {args.runs} runs of {args.seconds} s, wall per run "
              f"{min(walls):.1f}-{max(walls):.1f} s, failed share {sorted(fail_shares)}")
        print(f"{'metric':40s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:40s} {q1:12.4f} {med:12.4f} {q3:12.4f} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
