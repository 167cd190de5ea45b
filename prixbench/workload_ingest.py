"""``ingest``: parse, build, save, shard, and durable updates.

One round, every step timed on its own:

1. for each corpus: parse its XML with xmlkit, build a file-backed
   index, save and close it (``ingest.build_docs_per_s``);
2. build the dblp corpus as a 2-shard set with 2 worker processes
   (``ingest.sharded_build_docs_per_s``);
3. ``BATCHES`` committed update batches against a durable,
   dynamic-labeled dblp index of ``BASE_DOCS`` documents: each batch
   parses and inserts ``INSERTS`` held-out documents, deletes
   ``DELETES`` indexed ones, and commits with ``save()``
   (``ingest.update_docs_per_s``; ``p50_ms``/``tail_ms`` are batch
   latencies).  Under today's labeler every insert into an rp+ep index
   raises ``RebuildRequiredError``; the batch takes the documented
   recovery, ``rebuilt()`` into a fresh durable file, before its deletes
   and commit.

``setup_s`` is the build of the durable base index each round starts
its batches from (median over rounds).  The other timings take each
step's median over rounds.  Checks, all untimed: each built
index answers the Table 3 queries of its corpus like the oracle and
``export_documents()`` returns the input documents; the shard set
answers like the oracle; after every batch the update index answers the
dblp queries like the oracle over the documents indexed at that moment.
"""

from __future__ import annotations

import contextlib
import os
import random
import time

import common
import inputs
from repro.prix.incremental import RebuildRequiredError
from repro.prix.index import IndexOptions, PrixIndex
from repro.shard import builder as shard_builder
from repro.shard.sharded import ShardedIndex
from repro.xmlkit import parser as xml_parser

BASE_DOCS = 100
BATCHES = 10
INSERTS = 2
DELETES = 2
SHARDS = 2
SHARD_WORKERS = 2
MIN_ROUNDS = 4


def _parse(texts):
    return [xml_parser.parse_document(text, doc_id) for doc_id, text in texts]


def _update_options(path):
    return IndexOptions(path=path, page_size=inputs.PAGE_SIZE,
                        labeler="dynamic", durable=True)


def _remove_index_files(path):
    for suffix in ("", ".wal", ".sum"):
        if os.path.exists(path + suffix):
            os.unlink(path + suffix)


class _Oracle:
    """Oracle answers over a changing document set, cached per tree."""

    def __init__(self, trees):
        self.trees = {tree.doc_id: tree for tree in trees}
        self.cache = {}

    def answer(self, query, doc_ids):
        out = set()
        for doc_id in doc_ids:
            key = (query.qid, doc_id)
            if key not in self.cache:
                self.cache[key] = inputs.oracle_answer(
                    [self.trees[doc_id]], query.pattern)
            out |= self.cache[key]
        return frozenset(out)


def run(seed, seconds, tracer=None, plant=False):
    corpora = inputs.load_corpora()
    table3 = inputs.table3_queries(corpora)
    checks = common.Checks(plant)
    for message in inputs.needle_failures(table3, corpora):
        checks.op(False, f"needle {message}")
    dblp = corpora["dblp"]
    update_queries = [q for q in table3 if q.corpus == "dblp"] + [
        q for q in inputs.sampled_queries(corpora, "selective")
        if q.corpus == "dblp"]
    oracle = _Oracle(dblp.trees)
    workdir = common.make_workdir("ingest")
    xml_bytes = sum(corpus.xml_bytes for corpus in corpora.values())
    if tracer is not None:
        tracer.install()
        tracer.reset()

    build_s = shard_s = update_s = 0.0
    build_docs = shard_docs = update_docs = 0
    batch_latencies = {batch: [] for batch in range(BATCHES)}
    #: Every timed step of a round -> its seconds, one sample per round
    #: (the batches share their lists with ``batch_latencies``).
    steps = {("batch", batch): samples
             for batch, samples in batch_latencies.items()}
    round_docs = 0
    setups = []
    counts = {"trie.nodes": 0, "trie.underflows": 0,
              "storage.physical_writes": 0, "storage.wal_bytes": 0,
              "storage.wal_fsyncs": 0, "storage.logical_reads": 0,
              "storage.physical_reads": 0, "storage.evictions": 0,
              "shard.build_wall_s": 0.0, "shard.worker_busy_s": 0.0}
    index_bytes = 0
    cold_pages = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    untraced = tracer.paused if tracer is not None else contextlib.nullcontext
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rng = random.Random(seed)   # every round makes the same choices
        docs_before = build_docs + shard_docs + update_docs
        directory = os.path.join(workdir, f"round{rounds}")
        os.makedirs(directory)
        index_bytes = 0
        cold_pages = []

        # 1. parse + build + save, per corpus.
        for name, corpus in corpora.items():
            path = os.path.join(directory, f"{name}.idx")
            started = time.perf_counter()
            documents = _parse(corpus.texts)
            index = PrixIndex.build(documents, IndexOptions(
                path=path, page_size=inputs.PAGE_SIZE))
            index.save()
            elapsed = time.perf_counter() - started
            _count_io(counts, index)
            for variant in index.variants():
                counts["trie.nodes"] += index.trie_stats(variant).node_count
            with untraced():
                ok = _check_built(index, corpus, table3, cold_pages)
            started = time.perf_counter()
            index.close()
            elapsed += time.perf_counter() - started
            build_s += elapsed
            steps.setdefault(("build", name), []).append(elapsed)
            build_docs += len(corpus.texts)
            index_bytes += common.file_bytes(path)
            checks.op(ok, f"build {name}: answers or export differ")

        # 2. the 2-shard, 2-worker build of dblp.
        shard_dir = os.path.join(directory, "dblp-shards")
        documents = _parse(dblp.texts)
        started = time.perf_counter()
        report = shard_builder.build_shards(
            documents, shard_dir, shards=SHARDS, workers=SHARD_WORKERS,
            options=IndexOptions(page_size=inputs.PAGE_SIZE))
        elapsed = time.perf_counter() - started
        shard_s += elapsed
        steps.setdefault(("shard",), []).append(elapsed)
        shard_docs += report.doc_count
        counts["shard.build_wall_s"] += report.elapsed_seconds
        counts["shard.worker_busy_s"] += sum(
            row.build_seconds for row in report.shards)
        with untraced(), ShardedIndex.open(shard_dir) as sharded:
            ok = all(inputs.answer_of(sharded.query(q.xpath)) == q.answer
                     for q in table3 if q.corpus == "dblp")
        checks.op(ok, "shard build: answers differ from the oracle")

        # 3. committed update batches on a durable dynamic index.
        held_out = [pair for pair in dblp.texts if pair[0] > BASE_DOCS]
        rng.shuffle(held_out)
        generation = 0
        path = os.path.join(directory, f"update{generation}.idx")
        started = time.perf_counter()
        index = PrixIndex.build(_parse(dblp.texts[:BASE_DOCS]),
                                _update_options(path))
        setups.append(time.perf_counter() - started)
        base_io = index.io_stats.snapshot()
        indexed = list(range(1, BASE_DOCS + 1))
        for batch in range(BATCHES):
            inserts = [held_out.pop() for _ in range(INSERTS)]
            deletes = rng.sample(indexed, DELETES)
            started = time.perf_counter()
            underflow = False
            for document in _parse(inserts):
                try:
                    index.insert_document(document)
                except RebuildRequiredError:
                    underflow = True
            if underflow:
                _count_io(counts, index, base_io)
                _count_underflows(counts, index)
                generation += 1
                old_path = path
                path = os.path.join(directory, f"update{generation}.idx")
                rebuilt = index.rebuilt(_update_options(path))
                index.close()
                _remove_index_files(old_path)
                index = rebuilt
                base_io = index.io_stats.snapshot()
            for doc_id in deletes:
                index.delete_document(doc_id)
            index.save()
            elapsed = time.perf_counter() - started
            update_s += elapsed
            batch_latencies[batch].append(elapsed)
            update_docs += INSERTS + DELETES
            indexed = sorted(set(indexed) - set(deletes)
                             | {doc_id for doc_id, _ in inserts})
            with untraced():
                for number, query in enumerate(update_queries):
                    checks.answer(
                        inputs.answer_of(index.query(query.xpath)),
                        oracle.answer(query, indexed),
                        f"batch {batch} {query.qid}",
                        first_in_round=batch == 0 and number == 0)
        with untraced():
            exported = {doc.doc_id: doc
                        for doc in index.export_documents()}
        checks.op(sorted(exported) == indexed and all(
            inputs.same_tree(exported[doc_id], oracle.trees[doc_id])
            for doc_id in indexed), "update index export differs")
        _count_io(counts, index, base_io)
        _count_underflows(counts, index)
        index.close()
        common.remove_tree(directory)
        round_docs = build_docs + shard_docs + update_docs - docs_before
        rounds += 1

    totals = dict(tracer.totals) if tracer is not None else {}
    latches = tracer.latch_acquires if tracer is not None else 0
    if tracer is not None:
        tracer.uninstall()
    common.remove_tree(workdir)

    per_round = {name: value / rounds for name, value in counts.items()}
    per_round["storage.hit_ratio"] = (
        1.0 - counts["storage.physical_reads"]
        / counts["storage.logical_reads"]
        if counts["storage.logical_reads"] else 0.0)
    per_round["shard.parallel_efficiency"] = (
        counts["shard.worker_busy_s"]
        / (counts["shard.build_wall_s"] * SHARD_WORKERS))
    per_round["ingest.build_docs_per_s"] = build_docs / build_s
    per_round["ingest.sharded_build_docs_per_s"] = shard_docs / shard_s
    per_round["ingest.update_docs_per_s"] = update_docs / update_s
    tail_p = common.tail_percentile(BATCHES * MIN_ROUNDS)
    end_to_end = {
        "setup_s": common.median(setups),
        "peak_rss_mib": common.self_peak_rss_mib(),
        "ops_per_s": common.steady_rate(round_docs, steps),
        "p50_ms": common.steady_percentile(batch_latencies, 50) * 1000.0,
        "tail_ms": common.steady_percentile(batch_latencies, tail_p)
        * 1000.0,
        "index_bytes_per_xml_byte": index_bytes / xml_bytes,
        "cold_pages_per_query": sum(cold_pages) / len(cold_pages),
    }
    detail = {"rounds": rounds, "batches_per_round": BATCHES,
              "latency_samples": rounds * BATCHES,
              "tail_percentile": tail_p, "setups_s": setups,
              "index_bytes": index_bytes, "xml_bytes": xml_bytes,
              "build_docs_per_s": per_round["ingest.build_docs_per_s"],
              "sharded_build_docs_per_s":
                  per_round["ingest.sharded_build_docs_per_s"],
              "update_docs_per_s": per_round["ingest.update_docs_per_s"]}
    per_layer = common.layer_metrics(totals, per_round, rounds, latches)
    return end_to_end, per_layer, checks, detail


def _count_io(counts, index, since=None):
    stats = index.io_stats.snapshot()
    if since is not None:
        stats = stats.delta(since)
    counts["storage.physical_writes"] += stats.physical_writes
    counts["storage.wal_bytes"] += stats.wal_bytes
    counts["storage.wal_fsyncs"] += stats.wal_fsyncs
    counts["storage.logical_reads"] += stats.logical_reads
    counts["storage.physical_reads"] += stats.physical_reads
    counts["storage.evictions"] += stats.evictions


def _count_underflows(counts, index):
    counts["trie.underflows"] += sum(
        index.trie_stats(variant).underflows for variant in index.variants())


def _check_built(index, corpus, table3, cold_pages):
    """Untimed: Table 3 answers (cold, for the page counts) and the
    Prufer round trip of every document."""
    ok = True
    for query in table3:
        if query.corpus != corpus.name:
            continue
        matches, stats = index.query_with_stats(query.xpath, cold=True)
        cold_pages.append(stats.physical_reads)
        ok = ok and inputs.answer_of(matches) == query.answer
    exported = index.export_documents()
    trees = corpus.trees
    return ok and len(exported) == len(trees) and all(
        a.doc_id == b.doc_id and inputs.same_tree(a, b)
        for a, b in zip(exported, trees))
