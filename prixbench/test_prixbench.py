"""The benchmark's own tests.

Run from the repository root with ``python -m pytest prixbench -q``.
The smoke tests run every workload at ``PRIXBENCH_SCALE=tiny`` for a
fraction of a second each; they take about a minute in total.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import common  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT):
    env = dict(os.environ, PRIXBENCH_SCALE="tiny")
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "prixbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_end_to_end_metric(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in expected.items():
        assert f"{workload}: {name} = " in done.stdout and unit in done.stdout


def test_traced_run_prints_every_per_layer_metric():
    done = bench("--workload", "query-broad", "--seed", "3", "--seconds",
                 "0.2", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(done)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["prix.document_path_queries"] == 0
    assert metrics["prix.range_queries"] > 0
    assert metrics["storage.evictions"] > 0


def test_planted_wrong_answer_is_caught():
    done = bench("--workload", "query-selective", "--seed", "3",
                 "--seconds", "0.2", "--plant-wrong-answer")
    assert done.returncode == 1
    result = last_json(done)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED" in done.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "prixbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    done = bench("--workload", "ingest", "--seed", "1", "--seconds", "1",
                 cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert time.monotonic() - started < 60


def test_sampled_twigs_round_trip_through_xpath():
    from repro.query.xpath import parse_xpath
    corpora = inputs.load_corpora("tiny")
    for query in inputs.sampled_queries(corpora, "selective")[:12]:
        parsed = parse_xpath(query.xpath)
        trees = corpora[query.corpus].trees
        assert inputs.oracle_answer(trees, parsed) == query.answer


def test_tail_percentile_keeps_ten_samples_beyond():
    assert common.tail_percentile(1000) == 99.0
    assert common.tail_percentile(234) == 95.0
    assert common.tail_percentile(108) == 90.0
    assert common.tail_percentile(40) == 75.0
    with pytest.raises(ValueError):
        common.tail_percentile(20)


def test_steady_figures_take_one_figure_per_operation():
    samples = {"a": [3.0, 1.0, 2.0], "b": [10.0, 30.0, 20.0]}
    assert common.steady_percentile(samples, 50) == 11.0
    assert common.steady_percentile(samples, 50, pick=min) == 5.5
    assert common.steady_rate(2, samples) == 2 / 22.0
    assert common.steady_rate(2, samples, pick=min) == 2 / 11.0


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        traced_inner()

    traced_inner = tracer.wrap(inner, "inner")
    tracer.wrap(outer, "outer")()
    calls, inclusive, own = tracer.totals["outer"]
    assert calls == 1
    assert inclusive >= 0.04
    assert 0.015 <= own < inclusive - 0.015
    assert tracer.calls("inner") == 1


def test_generator_spans_do_not_charge_the_consumer():
    tracer = Tracer()

    def produce():
        yield 1
        yield 2

    for _ in tracer.wrap(produce, "scan")():
        time.sleep(0.02)
    assert tracer.calls("scan") == 1
    assert tracer.totals["scan"][1] < 0.01
