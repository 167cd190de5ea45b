"""``query-selective`` and ``query-broad``: one warm caller, direct.

Set-up parses the corpora's XML, builds and saves one file-backed index
per corpus, and reopens each read-only the way ``prix serve`` mounts it
(``backend="mmap"``); it runs three times and ``setup_s`` is the median.
One untimed warm-up round follows.  After the timed rounds,
``query-selective`` also serves its mix over HTTP (``workload_serve``),
which feeds only the ``serve.*``/``shard.*`` per-layer figures and the
answer checks.  A round is
every query of the class once, in one fixed cyclic order that starts
where the seed picks (the same order every round, so each round's work
is identical); rounds repeat
until the run's seconds are up and at least ``min_rounds`` ran.  The
latencies and throughput take each query's fastest repetition
(selective) or its median repetition (broad); see :data:`CLASSES`.
Every answer is compared with the oracle outside the timed call.
"""

from __future__ import annotations

import os
import random
import statistics
import time

import common
import inputs
from repro.prix.index import IndexOptions, PrixIndex
from repro.xmlkit import parser as xml_parser

#: Per class: buffer-pool frames, strategy, minimum rounds, and how a
#: query's repetitions make its one timing.  The selective pool holds
#: every index whole; the broad pool is smaller than each index, so the
#: trie scans evict.
#:
#: Host contention only ever adds time, so the fastest of many
#: repetitions is the steadiest figure of a query's own cost: over one
#: 300-second run cut into 10-second windows, the selective round's
#: summed fastest times spread 0.07 between quartiles against 0.11 for
#: its medians, and two sets of ten 10-second runs had spread 0.28 and
#: 0.15 on median throughput.  The fastest of a few repetitions is not:
#: the broad class's ~9 repetitions of 20-450 ms queries in a 20-second
#: run spread 0.24 on summed fastest times and 0.14 on summed medians
#: over six runs, so broad keeps the median.
CLASSES = {
    "selective": {"pool_pages": 4096, "strategy": "auto", "min_rounds": 30,
                  "pick": min},
    "broad": {"pool_pages": 96, "strategy": "trie", "min_rounds": 6,
              "pick": statistics.median},
}

SETUP_REPEATS = 3


def class_queries(corpora, kind):
    if kind == "selective":
        return inputs.table3_queries(corpora) + inputs.sampled_queries(
            corpora, "selective")
    return inputs.sampled_queries(corpora, "broad")


def build_indexes(corpora, directory):
    """Parse, build and save one index per corpus; return the paths."""
    paths = {}
    for name, corpus in corpora.items():
        documents = [xml_parser.parse_document(text, doc_id)
                     for doc_id, text in corpus.texts]
        path = os.path.join(directory, f"{name}.idx")
        index = PrixIndex.build(documents, IndexOptions(
            path=path, page_size=inputs.PAGE_SIZE))
        index.save()
        index.close()
        paths[name] = path
    return paths


def open_indexes(paths, pool_pages):
    return {name: PrixIndex.open(path, pool_pages=pool_pages,
                                 backend="mmap")
            for name, path in paths.items()}


def run(kind, seed, seconds, tracer=None, plant=False):
    config = CLASSES[kind]
    pick = config["pick"]
    corpora = inputs.load_corpora()
    queries = class_queries(corpora, kind)
    checks = common.Checks(plant)
    for message in (inputs.needle_failures(queries, corpora)
                    if kind == "selective" else []):
        checks.op(False, f"needle {message}")
    strategy = config["strategy"]
    workdir = common.make_workdir(f"query-{kind}")
    if tracer is not None:
        tracer.install()

    # One fixed cyclic order of the class; the seed picks where in it
    # every round starts.  Each query then follows the same query, in
    # the warm-up round and in every timed round, whatever the seed, so
    # the pages it finds left in a small pool do not vary with the seed.
    # A shuffle per seed moved the broad class's summed per-query time
    # by 15% between seeds within one process.
    cycle = list(range(len(queries)))
    random.Random(inputs.SAMPLING_SEED).shuffle(cycle)
    start = random.Random(seed).randrange(len(cycle))
    order = cycle[start:] + cycle[:start]

    def warm_pass(indexes):
        for position in order:
            query = queries[position]
            indexes[query.corpus].query_with_stats(query.xpath,
                                                   strategy=strategy)

    setups = []
    indexes = None
    for repeat in range(SETUP_REPEATS):
        if indexes is not None:
            for index in indexes.values():
                index.close()
        directory = os.path.join(workdir, f"setup{repeat}")
        os.makedirs(directory)
        started = time.perf_counter()
        paths = build_indexes(corpora, directory)
        indexes = open_indexes(paths, config["pool_pages"])
        setups.append(time.perf_counter() - started)
    warm_pass(indexes)
    index_bytes = sum(common.file_bytes(path) for path in paths.values())
    xml_bytes = sum(corpus.xml_bytes for corpus in corpora.values())

    counts = dict.fromkeys(
        ("prix.arrangements", "prix.document_path_queries",
         "prix.range_queries", "prix.trie_nodes_visited",
         "prix.maxgap_pruned", "prix.filter_candidates",
         "prix.candidates_refined", "prix.candidates_accepted"), 0)
    io_before = {name: index.io_stats.snapshot()
                 for name, index in indexes.items()}
    if tracer is not None:
        tracer.reset()
    latencies = {position: [] for position in order}
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < config["min_rounds"] or time.perf_counter() < deadline:
        for position in order:
            query = queries[position]
            index = indexes[query.corpus]
            if tracer is not None:
                tracer.request_id = f"{rounds}:{query.qid}"
            started = time.perf_counter()
            matches, stats = index.query_with_stats(query.xpath,
                                                    strategy=strategy)
            elapsed = time.perf_counter() - started
            latencies[position].append(elapsed)
            checks.answer(
                None if matches.approximate else inputs.answer_of(matches),
                query.answer, f"{query.qid} {query.xpath}",
                first_in_round=position == order[0])
            counts["prix.arrangements"] += stats.arrangements
            counts["prix.document_path_queries"] += (
                stats.strategy == "document")
            counts["prix.range_queries"] += stats.filter.range_queries
            counts["prix.trie_nodes_visited"] += stats.filter.nodes_visited
            counts["prix.maxgap_pruned"] += stats.filter.pruned_by_maxgap
            counts["prix.filter_candidates"] += stats.filter.candidates
            counts["prix.candidates_refined"] += stats.candidates_refined
            counts["prix.candidates_accepted"] += stats.candidates_accepted
        rounds += 1
    totals = dict(tracer.totals) if tracer is not None else {}
    latches = tracer.latch_acquires if tracer is not None else 0
    if tracer is not None:
        tracer.uninstall()
    io = {"logical_reads": 0, "physical_reads": 0, "evictions": 0,
          "physical_writes": 0}
    for name, index in indexes.items():
        delta = index.io_stats.delta(io_before[name])
        for field in io:
            io[field] += getattr(delta, field)

    # Untimed cold pass: the paper's "Disk IO pages" per query.
    cold_pages = 0
    for query in queries:
        matches, stats = indexes[query.corpus].query_with_stats(
            query.xpath, strategy=strategy, cold=True)
        cold_pages += stats.physical_reads
        checks.answer(inputs.answer_of(matches), query.answer,
                      f"cold {query.qid}")
    for index in indexes.values():
        index.close()
    served = {}
    if kind == "selective":
        import workload_serve
        served = workload_serve.serve_phase(corpora, queries, seed, workdir,
                                            checks, tracer)

    per_round = {name: value / rounds for name, value in counts.items()}
    per_round.update(served)
    refined = counts["prix.candidates_refined"]
    per_round["prix.refine_yield"] = (
        counts["prix.candidates_accepted"] / refined if refined else 0.0)
    for field, value in io.items():
        per_round[f"storage.{field}"] = value / rounds
    per_round["storage.hit_ratio"] = (
        1.0 - io["physical_reads"] / io["logical_reads"]
        if io["logical_reads"] else 0.0)
    tail_p = common.tail_percentile(len(queries) * config["min_rounds"])
    end_to_end = {
        "setup_s": common.median(setups),
        "peak_rss_mib": common.self_peak_rss_mib(),
        "ops_per_s": common.steady_rate(len(queries), latencies, pick),
        "p50_ms": common.steady_percentile(latencies, 50, pick) * 1000.0,
        "tail_ms": common.steady_percentile(latencies, tail_p, pick)
        * 1000.0,
        "index_bytes_per_xml_byte": index_bytes / xml_bytes,
        "cold_pages_per_query": cold_pages / len(queries),
    }
    detail = {"rounds": rounds, "queries_per_round": len(queries),
              "latency_samples": rounds * len(queries),
              "tail_percentile": tail_p, "setups_s": setups,
              "index_bytes": index_bytes, "xml_bytes": xml_bytes}
    per_layer = common.layer_metrics(totals, per_round, rounds, latches)
    common.remove_tree(workdir)
    return end_to_end, per_layer, checks, detail

