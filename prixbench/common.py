"""Shared measurement helpers: percentiles, process figures, metrics."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys

#: Where runs keep their index files and traces (inside the checkout).
WORK_ROOT = ".prixbench"

#: Per-layer metrics: name -> unit.  Every workload prints all of them
#: (0 where the workload does not reach the layer).  Times are per-layer
#: *self* seconds and counts are per round of the workload's operations,
#: so one run's figures do not depend on how many rounds fit in it.
PER_LAYER = {
    "xmlkit.parse_s": "s",
    "prufer.sequence_s": "s",
    "prufer.reconstruct_s": "s",
    "trie.insert_s": "s",
    "trie.label_s": "s",
    "trie.nodes": "count",
    "trie.underflows": "count",
    "storage.bulk_load_s": "s",
    "storage.save_s": "s",
    "storage.btree_update_s": "s",
    "storage.physical_writes": "count",
    "storage.wal_bytes": "bytes",
    "storage.wal_fsyncs": "count",
    "storage.range_scan_s": "s",
    "storage.range_scans": "count",
    "storage.evictions": "count",
    "storage.hit_ratio": "ratio",
    "storage.record_read_s": "s",
    "storage.records_read": "count",
    "storage.decode_s": "s",
    "storage.latch_acquires": "count",
    "storage.logical_reads": "count",
    "storage.physical_reads": "count",
    "query.parse_s": "s",
    "prix.plan_s": "s",
    "prix.arrangements": "count",
    "prix.document_path_queries": "count",
    "prix.filter_s": "s",
    "prix.range_queries": "count",
    "prix.trie_nodes_visited": "count",
    "prix.maxgap_pruned": "count",
    "prix.filter_candidates": "count",
    "prix.refine_s": "s",
    "prix.candidates_refined": "count",
    "prix.candidates_accepted": "count",
    "prix.refine_yield": "ratio",
    "prix.query_self_s": "s",
    "prix.insert_s": "s",
    "prix.delete_s": "s",
    "prix.rebuilds": "count",
    "prix.rebuild_s": "s",
    "shard.build_wall_s": "s",
    "shard.worker_busy_s": "s",
    "shard.parallel_efficiency": "ratio",
    "shard.served_p50_ms": "ms",
    "shard.scatter_queries": "count",
    "serve.monolith_p50_ms": "ms",
    "serve.server_mean_ms": "ms",
    "serve.transport_mean_ms": "ms",
    "serve.client_retries": "count",
    "serve.generator_lag_ms": "ms",
    "serve.rejected": "count",
    "serve.degraded": "count",
    "serve.server_cpu_s": "s",
    "serve.closed_loop_qps": "1/s",
    "ingest.build_docs_per_s": "docs/s",
    "ingest.sharded_build_docs_per_s": "docs/s",
    "ingest.update_docs_per_s": "docs/s",
}

#: Per-layer time metric -> tracer span name (self seconds).
SPAN_TIMES = {
    "xmlkit.parse_s": "xmlkit.parse",
    "prufer.sequence_s": "prufer.sequence",
    "prufer.reconstruct_s": "prufer.reconstruct",
    "trie.insert_s": "trie.insert",
    "trie.label_s": "trie.label",
    "storage.bulk_load_s": "storage.bulk_load",
    "storage.save_s": "storage.save",
    "storage.btree_update_s": "storage.btree_update",
    "storage.range_scan_s": "storage.range_scan",
    "storage.record_read_s": "storage.record_read",
    "storage.decode_s": "storage.decode",
    "query.parse_s": "query.parse",
    "prix.plan_s": "prix.plan",
    "prix.filter_s": "prix.filter",
    "prix.refine_s": "prix.refine",
    "prix.query_self_s": "prix.query",
    "prix.insert_s": "prix.insert",
    "prix.delete_s": "prix.delete",
    "prix.rebuild_s": "prix.rebuild",
}

#: Per-layer call counts -> tracer span name.
SPAN_CALLS = {
    "storage.range_scans": "storage.range_scan",
    "storage.records_read": "storage.record_read",
    "prix.rebuilds": "prix.rebuild",
}


def percentile(values, p):
    """Linear-interpolated ``p``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def steady_percentile(samples_by_op, p, pick=statistics.median):
    """``p``-th percentile over every operation, each operation's latency
    being ``pick`` of its repetitions across rounds (the median, or
    ``min`` for the fastest repetition).

    Rounds repeat the same operations, so a burst of host contention
    (this kind of VM loses the CPU for seconds at a time) shows up in a
    few repetitions and the per-operation figure drops it, while the
    percentile still weighs every operation by how often it ran.
    """
    pooled = []
    for samples in samples_by_op.values():
        pooled.extend([pick(samples)] * len(samples))
    return percentile(pooled, p)


def steady_rate(work_per_round, samples_by_op, pick=statistics.median):
    """One round's work over the sum of every operation's ``pick`` time."""
    return work_per_round / sum(pick(samples)
                                for samples in samples_by_op.values())


def median_rate(ops_per_round, seconds_per_round):
    """Median over rounds of each round's operations per second."""
    return statistics.median(ops / seconds for ops, seconds
                             in zip(ops_per_round, seconds_per_round))


def tail_percentile(min_samples):
    """The highest of 99.9/99/95/90/75 with at least ten of
    ``min_samples`` beyond it (a run's guaranteed sample count)."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if min_samples * (100.0 - p) / 100.0 >= 10:
            return p
    raise ValueError(f"{min_samples} samples cannot carry a tail")


def self_peak_rss_mib():
    """Peak resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def proc_peak_rss_mib(pid):
    """Peak resident set (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_seconds(pid):
    """User plus system CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def trace_path(workload, seed, suffix=""):
    """Where a traced run writes its spans."""
    return os.path.join(WORK_ROOT, "traces",
                        f"{workload}-seed{seed}{suffix}.json")


def make_workdir(tag):
    """A fresh run directory under :data:`WORK_ROOT`."""
    path = os.path.join(WORK_ROOT, f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def file_bytes(path):
    """Bytes of a file or of every file under a directory."""
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


def remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)


class Checks:
    """Attempted/failed operation counts plus the first failures.

    ``plant=True`` is the self-test: the first answer checked in every
    round loses one match before the comparison, which must then fail.
    """

    def __init__(self, plant=False):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.plant = plant

    def answer(self, got, want, message, first_in_round=False):
        """One operation whose answer set must equal the oracle's."""
        if got is None:
            self.op(False, f"{message}: approximate answer")
            return
        if self.plant and first_in_round and got:
            got = set(got)
            got.pop()
        self.op(got == want, f"{message}: {len(got)} matches, oracle "
                             f"{len(want)}")

    def op(self, ok, message=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    def report(self):
        for message in self.messages:
            print(f"prixbench: FAILED {message}", file=sys.stderr)


def layer_metrics(totals, counts, rounds, latch_acquires=0):
    """Assemble every per-layer metric (per round) from tracer totals
    (``name -> [calls, inclusive_s, self_s]``) and workload counts."""
    out = {}
    for name in PER_LAYER:
        value = 0.0
        if name in SPAN_TIMES:
            row = totals.get(SPAN_TIMES[name])
            value = row[2] / rounds if row else 0.0
        elif name in SPAN_CALLS:
            row = totals.get(SPAN_CALLS[name])
            value = row[0] / rounds if row else 0.0
        elif name == "storage.latch_acquires":
            value = latch_acquires / rounds
        elif name in counts:
            value = counts[name]
        out[name] = value
    return out


def median(values):
    return statistics.median(values)
