"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run one traced pass pair per workload (about a minute in all) and check
the bypass predictions of ``tracer.PREDICTIONS``, the goldens, that the
metric names agree with ``BENCHMARK.json``, and that a child stopped for
probes still writes its whole answer.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

ROOT = workloads.HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_digest_ignores_only_the_version():
    a = b'{"r": 1}\n{"command": "scan", "version": "0.1.0"}\n'
    b = b'{"r": 1}\n{"command": "scan", "version": "unknown"}\n'
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a) != workloads.digest(a.replace(b'"r": 1', b'"r": 2'))


def test_per_layer_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [(k, u, b) for k, (u, b) in tracer.METRICS.items()]


def test_end_to_end_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END


def test_stopped_child_keeps_its_whole_output():
    # Several MB of JSON, written while the child is stopped every PROBE_EVERY.
    query = workloads.load_goldens()["cli-query"]["strata"][-1]["queries"][0]
    run.OUT.mkdir(exist_ok=True)
    with open(os.devnull, "wb") as stderr:
        child = run.run_child(query["argv"], run.child_env(), stderr, query["sha256"], 1)
    assert child.ok
    assert 0 < child.probe < child.wall


def test_cli_query_rounds_draw_one_query_per_stratum():
    goldens = workloads.load_goldens()
    strata = goldens["cli-query"]["strata"]
    stratum_of = {tuple(q["argv"]): k for k, s in enumerate(strata) for q in s["queries"]}
    first, again = (workloads.rounds("cli-query", 7, goldens) for _ in range(2))
    for _ in range(5):
        batch = next(first)
        assert [inv.argv for inv in batch] == [inv.argv for inv in next(again)]
        assert sorted(stratum_of[tuple(inv.argv)] for inv in batch) == list(range(len(strata)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_confirms_bypass_predictions(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / "tracer.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--spans", str(tmp_path / "spans.jsonl.gz")],
        capture_output=True, text=True, check=True, timeout=170)
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert res["predictions"] == {"exercised_without_spans": [], "bypassed_with_spans": []}
    assert set(res["metrics"]) == set(tracer.METRICS)
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "triple-s5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
