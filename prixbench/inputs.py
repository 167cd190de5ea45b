"""Benchmark inputs: corpora as XML text, query classes, and the oracle.

Everything here is computed apart from the PRIX engine.  The corpora
come from the repo's seeded generators and are handed to the program
as serialized XML; query answers come from the exhaustive matcher in
``repro.baselines.naive`` run over the generator's own trees, never over
anything the engine produced.

The corpora and the query pool are fixed (generator default seeds, one
sampling seed): sampled twig costs are heavy-tailed, so re-sampling per
run seed made per-run medians swing by half (see README).  ``--seed``
instead drives every order and choice inside a run: the query order of
each round, which documents the update batches insert and delete, and
the open-loop schedule's phase.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro.baselines.naive import naive_matches
from repro.bench.generator import sample_twig
from repro.bench.workloads import QUERIES
from repro.datasets import get_corpus
from repro.query.twig import Axis
from repro.xmlkit.serializer import serialize

#: Corpus order; doc ids are the generators' (1..n per corpus).
CORPORA = ("dblp", "swissprot", "treebank")

#: Documents per corpus.  "small" is the dataset registry's small scale;
#: "tiny" (``PRIXBENCH_SCALE=tiny``) is for the benchmark's own tests.
#: Its swissprot size is 60, not the registry's 40: at 40 one of the two
#: planted Q6 entries draws only author-less references, so the Q6
#: needle count falls short of its parameter.
SCALES = {
    "small": {"dblp": 600, "swissprot": 150, "treebank": 250},
    "tiny": {"dblp": 120, "swissprot": 60, "treebank": 60},
}
SCALE = os.environ.get("PRIXBENCH_SCALE", "small")

#: Page size of every index the benchmark builds (the paper-harness
#: choice, repro.bench.harness.BENCH_PAGE_SIZE).
PAGE_SIZE = 1024

#: Seed of the one-off twig sampling that fixes the query pool.
SAMPLING_SEED = 20040301

#: Selective class: sampled twigs whose oracle answer spans at most this
#: many documents.
SELECTIVE_MAX_DOCS = 5
SELECTIVE_PER_CORPUS = 10

#: Broad class: value-free, child-axis twigs with at least three nodes
#: whose oracle answer spans at least this share of the corpus.
BROAD_MIN_SHARE = 0.2
BROAD_PER_CORPUS = 6

#: Table 3 needle counts that equal a generator parameter exactly:
#: qid -> (parameter, "matches" or "docs").
NEEDLES = {
    "Q1": ("q1_matches", "matches"),
    "Q3": ("q3_matches", "matches"),
    "Q4": ("q4_matches", "matches"),
    "Q5": ("q5_matches", "matches"),
    "Q6": ("piroplasmida_full", "docs"),
    "Q7": ("q7_positions", "docs"),
    "Q8": ("q8_matches", "matches"),
    "Q9": ("q9_matches", "matches"),
}


@dataclass
class Query:
    """One benchmark query with its precomputed oracle answer."""

    qid: str
    corpus: str
    xpath: str
    pattern: object          # TwigPattern the oracle evaluates
    answer: frozenset        # {(doc_id, canonical)}

    @property
    def doc_count(self):
        return len({doc_id for doc_id, _ in self.answer})


@dataclass
class Corpus:
    """One corpus: generator trees (oracle side) and XML texts (input)."""

    name: str
    trees: list              # generator Documents, doc ids 1..n
    texts: list              # [(doc_id, xml_text)]
    params: dict

    @property
    def xml_bytes(self):
        return sum(len(text.encode("utf-8")) for _, text in self.texts)


def load_corpora(scale=SCALE):
    """The three corpora at ``scale`` (a key of :data:`SCALES`)."""
    out = {}
    for name in CORPORA:
        corpus = get_corpus(name, SCALES[scale][name])
        texts = [(doc.doc_id, serialize(doc)) for doc in corpus.documents]
        out[name] = Corpus(name, corpus.documents, texts, corpus.params)
    return out


#: id(tree) -> (tree, {(tag, is_value)}).  Holding the tree keeps its id
#: from being reused by another object while the entry exists.
_LABELS = {}


def _labels(tree):
    entry = _LABELS.get(id(tree))
    if entry is None:
        entry = _LABELS[id(tree)] = (tree, {
            (node.tag, node.is_value) for node in tree.root.iter_subtree()})
    return entry[1]


def oracle_answer(trees, pattern, offset=0):
    """``{(doc_id + offset, canonical)}`` over ``trees``, exhaustively.

    A tree lacking one of the pattern's non-wildcard labels cannot hold
    a match, so the exhaustive matcher only runs where all are present.
    """
    needed = {(node.label, node.is_value)
              for node in pattern.root.iter_subtree() if not node.is_star}
    return frozenset((tree.doc_id + offset, embedding) for tree in trees
                     if needed <= _labels(tree)
                     for embedding in naive_matches(tree, pattern))


def answer_of(matches):
    """The engine's answer in the oracle's form."""
    return frozenset((match.doc_id, match.canonical) for match in matches)


def to_xpath(pattern):
    """Render a sampled :class:`TwigPattern` in the XPath subset."""
    root = pattern.root
    lead = "/" if pattern.absolute else "//"
    return lead + _step(root)


def _quote(text):
    return f"'{text}'" if '"' in text else f'"{text}"'


def _step(node):
    parts = [node.label]
    for child in node.children:
        if child.is_value:
            parts.append(f"[text()={_quote(child.label)}]")
        else:
            sep = "//" if child.axis == Axis.DESCENDANT else "/"
            parts.append(f"[.{sep}{_step(child)}]")
    return "".join(parts)


def table3_queries(corpora):
    """The nine Table 3 queries with oracle answers."""
    from repro.query.xpath import parse_xpath
    out = []
    for spec in QUERIES:
        pattern = parse_xpath(spec.xpath)
        answer = oracle_answer(corpora[spec.corpus].trees, pattern)
        out.append(Query(spec.qid, spec.corpus, spec.xpath, pattern, answer))
    return out


def needle_failures(queries, corpora):
    """Table 3 queries whose planted needle count is off."""
    bad = []
    for query in queries:
        if query.qid not in NEEDLES:
            continue
        param, unit = NEEDLES[query.qid]
        want = corpora[query.corpus].params[param]
        got = len(query.answer) if unit == "matches" else query.doc_count
        if got != want:
            bad.append(f"{query.qid}: {got} {unit}, generator planted {want}")
    return bad


def sampled_queries(corpora, kind):
    """The fixed selective or broad sampled-twig class."""
    rng = random.Random(f"{SAMPLING_SEED}-{kind}")
    out = []
    for name in CORPORA:
        trees = corpora[name].trees
        wanted = (SELECTIVE_PER_CORPUS if kind == "selective"
                  else BROAD_PER_CORPUS)
        seen = set()
        picked = 0
        while picked < wanted:
            if kind == "selective":
                pattern = sample_twig(trees, rng)
            else:
                pattern = sample_twig(trees, rng, value_p=0.0,
                                      descendant_p=0.0)
                if len(pattern.nodes()) < 3:
                    continue
            xpath = to_xpath(pattern)
            if xpath in seen:
                continue
            answer = oracle_answer(trees, pattern)
            docs = len({doc_id for doc_id, _ in answer})
            if kind == "selective" and docs > SELECTIVE_MAX_DOCS:
                continue
            if kind == "broad" and docs < BROAD_MIN_SHARE * len(trees):
                continue
            seen.add(xpath)
            picked += 1
            out.append(Query(f"{kind[0]}{name[0]}{picked:02d}", name, xpath,
                             pattern, answer))
    return out


def same_tree(a, b):
    """Structural equality of two documents, independent of xmlkit."""
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if (x.tag != y.tag or x.is_value != y.is_value
                or len(x.children) != len(y.children)):
            return False
        stack.extend(zip(x.children, y.children))
    return True
