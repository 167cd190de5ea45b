"""Timing wrappers around the PRIX layers' public entry points.

The traced run (``--trace 1``) installs :class:`Tracer` wrappers at the
names the calling modules look the functions up under, so the engine
runs unchanged but every call is timed as a span.  A span's *self* time
is its duration minus the time covered by its traced children; per-layer
seconds are self times, so the layers of one call chain add up to the
chain's wall time without double counting.

Spans (name, start, end, parent, request id) are kept in memory -- the
first :data:`SPAN_CAP` of them, later ones only in the totals -- and
written as JSON when the run ends.  Untraced runs never import this
module's wrappers, so they pay nothing for it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import threading
import time

from repro.storage import latch as latch_module

#: Raw spans kept per process (totals keep counting past the cap).
SPAN_CAP = 20000

#: (dotted owner, attribute, span name).  Functions are patched in the
#: module that calls them; methods on their class.
WRAP_POINTS = (
    ("repro.xmlkit.parser", "parse_document", "xmlkit.parse"),
    ("repro.prix.index", "regular_sequence", "prufer.sequence"),
    ("repro.prix.index", "extended_sequence", "prufer.sequence"),
    ("repro.prix.index", "reconstruct_document", "prufer.reconstruct"),
    ("repro.trie.trie:SequenceTrie", "insert", "trie.insert"),
    ("repro.trie.labeling:BulkDFSLabeler", "label", "trie.label"),
    ("repro.trie.labeling:DynamicLabeler", "label", "trie.label"),
    ("repro.storage.bptree:BPlusTree", "bulk_load", "storage.bulk_load"),
    ("repro.storage.bptree:BPlusTree", "insert", "storage.btree_update"),
    ("repro.storage.bptree:BPlusTree", "delete", "storage.btree_update"),
    ("repro.storage.bptree:BPlusTree", "range_scan", "storage.range_scan"),
    ("repro.storage.records:RecordStore", "read", "storage.record_read"),
    ("repro.prix.index", "decode_varints", "storage.decode"),
    ("repro.prix.index:PrixIndex", "save", "storage.save"),
    ("repro.prix.index", "parse_xpath", "query.parse"),
    ("repro.shard.sharded", "parse_xpath", "query.parse"),
    ("repro.prix.matcher", "build_plan", "prix.plan"),
    ("repro.prix.matcher", "find_subsequences", "prix.filter"),
    ("repro.prix.matcher", "refine", "prix.refine"),
    ("repro.prix.index", "run_query", "prix.query"),
    ("repro.prix.index:PrixIndex", "insert_document", "prix.insert"),
    ("repro.prix.index:PrixIndex", "delete_document", "prix.delete"),
    ("repro.prix.index:PrixIndex", "rebuilt", "prix.rebuild"),
    ("repro.shard.builder", "build_shards", "shard.build"),
)


class _Record:
    __slots__ = ("name", "start", "end", "inclusive", "children",
                 "parent", "index", "request", "running_since")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.request = request
        self.start = time.perf_counter()
        self.end = None
        self.inclusive = 0.0
        self.children = 0.0
        self.index = -1
        self.running_since = None


class Tracer:
    """Span recorder with per-name call counts and self/inclusive time."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.active = True
        self.reset()

    @contextlib.contextmanager
    def paused(self):
        """Let calls through untimed (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # ---------------------------------------------------------- recording

    def reset(self):
        """Drop every span and total (e.g. after warm-up)."""
        with self._lock:
            self.totals = {}       # name -> [calls, inclusive_s, self_s]
            self.spans = []
            self.dropped = 0
            self.latch_acquires = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self):
        return getattr(self._local, "request", None)

    @request_id.setter
    def request_id(self, value):
        self._local.request = value

    def _begin(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = _Record(name, parent, self.request_id)
        with self._lock:
            if len(self.spans) < SPAN_CAP:
                record.index = len(self.spans)
                self.spans.append(record)
            else:
                self.dropped += 1
        self._resume(record)
        return record

    def _resume(self, record):
        record.running_since = time.perf_counter()
        self._stack().append(record)

    def _pause(self, record):
        now = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        elapsed = now - record.running_since
        record.running_since = None
        record.inclusive += elapsed
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children += elapsed

    def _end(self, record):
        if record.running_since is not None:
            self._pause(record)
        record.end = time.perf_counter()
        with self._lock:
            row = self.totals.setdefault(record.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += record.inclusive
            row[2] += max(0.0, record.inclusive - record.children)

    def wrap(self, original, name):
        """A wrapper that records ``original``'s calls as ``name`` spans.

        Generator functions are timed per resume, so a range scan's
        consumer is not charged to the scan.
        """
        tracer = self
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from original(*args, **kwargs)
                    return
                record = tracer._begin(name)
                try:
                    iterator = original(*args, **kwargs)
                    while True:
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        tracer._pause(record)
                        yield item
                        tracer._resume(record)
                finally:
                    tracer._end(record)
            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            record = tracer._begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._end(record)
        return wrapper

    # ---------------------------------------------------------- install

    def install(self, points=WRAP_POINTS):
        """Patch every wrap point; also count latch acquisitions."""
        import importlib
        for owner_path, attr, name in points:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                raw = inspect.getattr_static(owner, attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, name))
                elif isinstance(raw, staticmethod):
                    patched = staticmethod(self.wrap(raw.__func__, name))
                else:
                    patched = self.wrap(raw, name)
            else:
                raw = getattr(owner, attr)
                patched = self.wrap(raw, name)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

        count_lock = threading.Lock()

        def on_acquire(_latch):
            with count_lock:
                self.latch_acquires += 1

        latch_module.install_hooks(on_acquire, lambda _latch: None)

    def uninstall(self):
        """Restore every patched name and drop the latch hook."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        latch_module.clear_hooks()

    # ---------------------------------------------------------- output

    def calls(self, name):
        row = self.totals.get(name)
        return row[0] if row else 0

    def write(self, path, extra=None):
        """Write spans and totals as JSON (at the end of a run)."""
        with self._lock:
            spans = [[record.name, record.start, record.end,
                      record.parent.index if record.parent else -1,
                      record.request]
                     for record in self.spans if record.end is not None]
            body = {"spans": spans, "dropped_spans": self.dropped,
                    "totals": {name: {"calls": row[0],
                                      "inclusive_s": row[1],
                                      "self_s": row[2]}
                               for name, row in sorted(self.totals.items())},
                    "latch_acquires": self.latch_acquires}
        if extra:
            body.update(extra)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(body, handle)


def read_totals(path):
    """Totals from a file :meth:`Tracer.write` made (e.g. the server's),
    as ``(name -> [calls, inclusive_s, self_s], latch_acquires)``."""
    with open(path, encoding="utf-8") as handle:
        body = json.load(handle)
    totals = {name: [row["calls"], row["inclusive_s"], row["self_s"]]
              for name, row in body["totals"].items()}
    return totals, body["latch_acquires"]


def merge_totals(into, totals):
    """Add one totals mapping into another."""
    for name, row in totals.items():
        mine = into.setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            mine[i] += row[i]
