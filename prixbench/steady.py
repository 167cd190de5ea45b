"""Steadiness check: run workloads repeatedly, report spread vs bound.

Usage (from the repository root)::

    python3 prixbench/steady.py [--workloads ingest serve] [--runs 10]
                                [--first-seed 1] [--seconds N]

Runs ``prixbench/run.py`` once per seed (``first-seed`` .. ``first-seed
+ runs - 1``) for each workload, then prints, per end-to-end metric, the
median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the spread ``(q3 - q1) / median`` next to the metric's bound in
``BENCHMARK.json``, plus each run's failed share.  A spread at or over a
third of its bound is marked ``WIDE``; ``setup_s`` is only reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0):
    """One benchmark run; returns its result object."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, q1, q3, (q3 - q1) / middle


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="prixbench/steady.py")
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        shares = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            shares.append(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds),
                flush=True)
        print(f"\n{workload}: failed share per run {sorted(set(shares))}")
        print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            middle, q1, q3, width = spread(values[name])
            flag = ""
            if name != "setup_s":
                worst = max(worst, width / bound)
                flag = "WIDE" if width >= bound / 3 else "ok"
            print(f"{name:28s} {middle:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{width:8.3f} {bound:6.2f} {flag}")
        print()
    print(f"widest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
