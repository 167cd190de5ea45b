"""Per-layer report: one untraced and one traced run of a workload.

Usage (from the repository root)::

    python3 prixbench/report.py --workload query-broad [--seed 1]
                                [--seconds N]

Prints every per-layer figure of the traced run (self seconds and work
counts per round; see README for the layer map) and the tracing
overhead: each end-to-end metric traced against untraced, same seed.
The traced run's spans and totals stay in
``.prixbench/traces/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from steady import ROOT, load_spec, run_once


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="prixbench/report.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    args = parser.parse_args(argv)
    plain = run_once(args.workload, args.seed, args.seconds, trace=0)
    traced = run_once(args.workload, args.seed, args.seconds, trace=1)
    path = os.path.join(ROOT, ".prixbench", "traces",
                        f"{args.workload}-seed{args.seed}.json")
    with open(path, encoding="utf-8") as handle:
        detail = json.load(handle)

    print(f"{args.workload}, seed {args.seed}: per-layer (per round)")
    layer_seconds = 0.0
    for name, metric in traced["metrics"].items():
        if metric["value"]:
            print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
        if metric["unit"] == "s" and name.split(".")[0] in (
                "xmlkit", "prufer", "trie", "storage", "query", "prix"):
            layer_seconds += metric["value"]
    print(f"  {'(sum of layer self seconds)':34s} {layer_seconds:14.6g} s")
    print("\ntracing overhead (traced vs untraced end-to-end):")
    for name, metric in plain["metrics"].items():
        before = metric["value"]
        after = detail["end_to_end_traced"][name]
        change = (after - before) / before * 100.0 if before else 0.0
        print(f"  {name:28s} {before:12.5g} -> {after:12.5g} "
              f"{metric['unit']:6s} ({change:+.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
