"""prixbench entry point: run one workload and print its figures.

Usage (from the repository root)::

    python3 prixbench/run.py --workload query-selective --seed 1 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  Lines before
it name each figure with its unit for a human reader.  A traced run
also writes its spans, span totals and per-layer table to
``.prixbench/traces/`` (the serve workload's server spans beside them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: End-to-end metrics every workload prints: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "index_bytes_per_xml_byte": "ratio",
    "cold_pages_per_query": "pages",
}

WORKLOADS = ("ingest", "query-selective", "query-broad")


def _import_program():
    """Put the checkout's ``src`` on the path; fail clearly without it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"prixbench: no PRIX sources at {src}; run from a full "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def run_workload(name, seed, seconds, tracer=None, plant=False):
    """Run one workload; return ``(end_to_end, per_layer, checks,
    detail)``."""
    if name == "ingest":
        import workload_ingest
        return workload_ingest.run(seed, seconds, tracer, plant)
    import workload_query
    kind = name.split("-", 1)[1]
    return workload_query.run(kind, seed, seconds, tracer, plant)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="prixbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="self-test: drop one match from one answer "
                             "per round before the check")
    args = parser.parse_args(argv)
    _import_program()
    import common

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    end_to_end, per_layer, checks, detail = run_workload(
        args.workload, args.seed, args.seconds, tracer,
        args.plant_wrong_answer)
    checks.report()
    if args.trace:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in common.PER_LAYER.items()}
        tracer.write(common.trace_path(args.workload, args.seed), extra={
            "workload": args.workload, "seed": args.seed,
            "end_to_end_traced": end_to_end, "per_layer": per_layer,
            "detail": detail})
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for key, value in sorted(detail.items()):
        if not isinstance(value, (list, dict)):
            print(f"{args.workload}: {key} = {value}")
    for name, metric in metrics.items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
