"""The serving phase of ``query-selective``: the same mix over HTTP.

The three corpora are indexed as one collection (doc ids offset per
corpus), once as a monolithic index (mount ``default``) and once as a
2-shard directory (mount ``sharded``), and served by one ``prix serve``
process.  A round sends every selective query to both mounts through
the shipped :class:`PrixServeClient`.

- Open loop: one caller sends a round at ``OPEN_RATE`` requests/s in a
  fixed schedule whose phase the seed picks; latency is timed from when
  each request was due, so a slow answer delays, and is charged to, the
  ones behind it.
- Closed loop: ``CLOSED_CONNECTIONS`` callers split each round between
  them.

The two alternate in ``CYCLES`` cycles (one open round, ``CLOSED_ROUNDS``
closed rounds).  The phase feeds the ``serve.*`` and ``shard.*``
per-layer metrics and the answer checks, never the workload's
end-to-end metrics: served latency on this 2-CPU VM swung by a quarter
between runs, far more than the direct figures.  Every served answer
must be byte-identical, after canonical serialization, to the direct
index's answer, which must equal the oracle's; none may be approximate.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import common
import inputs
from repro.prix.index import IndexOptions, PrixIndex
from repro.serve import client as client_module
from repro.serve import protocol
from repro.shard import builder as shard_builder
from repro.xmlkit import parser as xml_parser

OPEN_RATE = 40.0
CLOSED_CONNECTIONS = 2
CLOSED_ROUNDS = 3     # closed-loop rounds per cycle
CYCLES = 3            # each cycle: one open-loop round, then CLOSED_ROUNDS
POOL_PAGES = 4096
MOUNTS = ("default", "sharded")
SERVER_WAIT_S = 60.0


def canonical(body):
    """The semantic part of a ``/query`` body, canonically serialized."""
    matches = sorted(body["matches"],
                     key=lambda m: (m["doc"], m["images"]))
    return protocol.dumps({"approximate": body["approximate"],
                           "doc_ids": body["doc_ids"],
                           "match_count": body["match_count"],
                           "matches": matches})


def _collection(corpora):
    """Doc-id offsets per corpus and the renumbered XML texts."""
    offsets, texts, offset = {}, [], 0
    for name in inputs.CORPORA:
        offsets[name] = offset
        texts.extend((offset + doc_id, text)
                     for doc_id, text in corpora[name].texts)
        offset += len(corpora[name].texts)
    return offsets, texts


class Server:
    """One ``prix serve`` process (or the tracing launcher)."""

    def __init__(self, mono, shards, trace_out=None):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        serve_args = [mono, "--mount", f"sharded={shards}", "--port", "0",
                      "--pool-pages", str(POOL_PAGES)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.serve"] + serve_args
        else:
            command = [sys.executable,
                       os.path.join(root, "prixbench", "serve_launcher.py"),
                       trace_out] + serve_args
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"prix serve did not start: {line!r}")
        self.url = line.strip().rsplit(" ", 1)[1]

    @property
    def pid(self):
        return self.process.pid

    def reset_trace(self):
        self.process.send_signal(signal.SIGUSR1)
        line = self.process.stdout.readline()
        if "trace reset" not in line:
            raise RuntimeError(f"launcher did not reset: {line!r}")

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=SERVER_WAIT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def serve_phase(corpora, queries, seed, workdir, checks, tracer=None):
    """Serve ``queries`` and check every answer; return the ``serve.*``
    and ``shard.*`` per-layer figures."""
    offsets, texts = _collection(corpora)
    expected = {
        query.qid: frozenset().union(*(
            inputs.oracle_answer(corpora[name].trees, query.pattern,
                                 offsets[name])
            for name in inputs.CORPORA))
        for query in queries}
    mono = os.path.join(workdir, "collection.idx")
    shards = os.path.join(workdir, "collection-shards")
    documents = [xml_parser.parse_document(text, doc_id)
                 for doc_id, text in texts]
    index = PrixIndex.build(documents, IndexOptions(
        path=mono, page_size=inputs.PAGE_SIZE))
    index.save()
    index.close()
    shard_builder.build_shards(
        documents, shards, shards=2, workers=1,
        options=IndexOptions(page_size=inputs.PAGE_SIZE))

    reference = {}
    with PrixIndex.open(mono, pool_pages=POOL_PAGES,
                        backend="mmap") as direct:
        for query in queries:
            matches, stats = direct.query_with_stats(query.xpath)
            checks.answer(inputs.answer_of(matches), expected[query.qid],
                          f"direct {query.qid} on the collection")
            reference[query.qid] = canonical(protocol.result_payload(
                protocol.QueryRequest(xpath=query.xpath), matches, stats, 1))

    schedule = [(query, mount) for query in queries for mount in MOUNTS]
    random.Random(seed).shuffle(schedule)
    retries = []

    def counting_sleep(delay):
        retries.append(delay)
        time.sleep(delay)

    opener = tracer.wrap(_urlopen, "serve.http") if tracer else None
    trace_out = (os.path.abspath(common.trace_path(
        "query-selective", seed, "-server")) if tracer else None)
    server = Server(mono, shards, trace_out)
    try:
        def new_client(number):
            return client_module.PrixServeClient(
                server.url, seed=seed * 31 + number, sleep=counting_sleep,
                opener=opener)

        warm = new_client(0)
        for query, mount in schedule:
            warm.query(query.xpath, index=mount)
        if tracer is not None:
            server.reset_trace()
        result = _measure(server, schedule, seed, new_client, tracer)
    finally:
        server.stop()

    for (query, mount, position), body in result["bodies"]:
        if body.get("approximate"):
            checks.op(False, f"served {query.qid} on {mount}: approximate")
            continue
        if checks.plant and position == 0 and body["matches"]:
            body["matches"] = body["matches"][1:]
        checks.op(canonical(body) == reference[query.qid],
                  f"served {query.qid} on {mount} differs from direct")

    rounds = result["rounds"]
    figures = dict(result["counts"])
    by_mount = {mount: {key: samples
                        for key, samples in result["open"].items()
                        if key[1] == mount} for mount in MOUNTS}
    figures["serve.monolith_p50_ms"] = common.steady_percentile(
        by_mount["default"], 50) * 1000.0
    figures["shard.served_p50_ms"] = common.steady_percentile(
        by_mount["sharded"], 50) * 1000.0
    figures["serve.client_retries"] = len(retries) / rounds
    for name in ("serve.rejected", "serve.degraded",
                 "shard.scatter_queries", "serve.server_cpu_s"):
        figures[name] = figures[name] / rounds
    return figures


def _urlopen(request, timeout):
    """The client's transport, as an opener the tracer can wrap."""
    return urllib.request.urlopen(request, timeout=timeout)  # noqa: S310


def _scrape(client):
    body = client.metrics()
    query = body["endpoints"].get("/query", {})
    storage = body["storage"]
    return {
        "requests": query.get("requests", 0),
        "latency_s": query.get("latency_seconds_total", 0.0),
        "rejected": query.get("rejected", 0),
        "degraded": query.get("degraded", 0),
        "scatter": storage["sharded"]["scatter"]["queries"],
    }


def _measure(server, schedule, seed, new_client, tracer):
    """``CYCLES`` cycles of one open-loop round and ``CLOSED_ROUNDS``
    closed-loop rounds.  Interleaving spreads both loops over the phase,
    so a few seconds of host contention touch a few rounds of each."""
    scraper = new_client(99)
    before = _scrape(scraper)
    cpu_before = common.proc_cpu_seconds(server.pid)
    bodies, lags, client_times, closed_seconds = [], [], [], []
    open_samples = {}
    lock = threading.Lock()

    def note(query, mount, position, body, elapsed):
        with lock:
            client_times.append(elapsed)
            bodies.append(((query, mount, position), body))

    interval = 1.0 / OPEN_RATE
    phase = random.Random(seed).random() * interval
    open_client = new_client(1)
    closed_clients = [new_client(10 + n) for n in range(CLOSED_CONNECTIONS)]
    for cycle in range(CYCLES):
        # Open loop: one round on a fixed schedule.
        first_due = time.perf_counter() + phase
        for position, (query, mount) in enumerate(schedule):
            due = first_due + position * interval
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            if tracer is not None:
                tracer.request_id = f"open-{cycle}-{position}"
            body = open_client.query(query.xpath, index=mount)
            done = time.perf_counter()
            lags.append(sent - due)
            open_samples.setdefault((query.qid, mount), []).append(
                done - due)
            note(query, mount, position, body, done - sent)
        # Closed loop: the connections split each round.
        closed_seconds.extend(_closed_rounds(
            schedule, closed_clients, note))

    cpu = common.proc_cpu_seconds(server.pid) - cpu_before
    after = _scrape(scraper)
    requests = after["requests"] - before["requests"]
    server_mean = (after["latency_s"] - before["latency_s"]) / requests
    counts = {
        "serve.server_mean_ms": server_mean * 1000.0,
        "serve.transport_mean_ms": (sum(client_times) / len(client_times)
                                    - server_mean) * 1000.0,
        "serve.generator_lag_ms": sum(lags) / len(lags) * 1000.0,
        "serve.rejected": after["rejected"] - before["rejected"],
        "serve.degraded": after["degraded"] - before["degraded"],
        "shard.scatter_queries": after["scatter"] - before["scatter"],
        "serve.server_cpu_s": cpu,
        "serve.closed_loop_qps": common.median_rate(
            [len(schedule)] * len(closed_seconds), closed_seconds),
    }
    return {"bodies": bodies, "open": open_samples, "counts": counts,
            "rounds": CYCLES * (1 + CLOSED_ROUNDS)}


def _closed_rounds(schedule, clients, note):
    """``CLOSED_ROUNDS`` rounds, one caller thread per client, each
    taking every ``len(clients)``-th request; returns round durations."""
    barrier = threading.Barrier(len(clients))
    ends = []
    errors = []

    def caller(number, client):
        for _ in range(CLOSED_ROUNDS):
            try:
                for position in range(number, len(schedule), len(clients)):
                    query, mount = schedule[position]
                    sent = time.perf_counter()
                    body = client.query(query.xpath, index=mount)
                    note(query, mount, position, body,
                         time.perf_counter() - sent)
            except Exception as error:  # noqa: BLE001 - re-raised below
                errors.append(error)
            if barrier.wait() == 0:
                ends.append(time.perf_counter())

    started = time.perf_counter()
    threads = [threading.Thread(target=caller, args=(number, client))
               for number, client in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [end - begin for begin, end in zip([started] + ends, ends)]
