"""Self-tests of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, layers, run, stats, tracing

ROOT = Path(__file__).resolve().parents[2]


# -- statistics ---------------------------------------------------------------

def test_quartiles_use_the_exclusive_method():
    s = stats.summarize([5, 1, 4, 2, 3])
    assert (s["median"], s["q1"], s["q3"]) == (3, 1.5, 4.5)
    assert stats.spread(s) == pytest.approx(1.0)
    one = stats.summarize([7.0])
    assert (one["q1"], one["median"], one["q3"]) == (7.0, 7.0, 7.0)
    assert stats.spread(one) == 0.0


def test_percentiles():
    values = list(range(1, 11))
    assert stats.percentile(values, 50) == 5.5
    assert stats.percentile(values, 90) == pytest.approx(9.9)
    assert stats.percentile([0.25], 90) == 0.25


# -- spans ------------------------------------------------------------------------

def _span(pid, sid, parent, start, end, name="x"):
    return {"pid": pid, "id": sid, "parent": parent, "start": start,
            "end": end, "name": name}


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(1, 0, None, 0.0, 10.0),
             _span(1, 1, 0, 1.0, 4.0),
             _span(1, 2, 0, 3.0, 6.0),       # overlaps its sibling
             _span(1, 3, 1, 2.0, 3.0),       # grandchild
             _span(2, 1, None, 0.0, 1.0)]    # same id, other process
    selfs = stats.self_times(spans)
    assert selfs[(1, 0)] == pytest.approx(5.0)
    assert selfs[(1, 1)] == pytest.approx(2.0)
    assert selfs[(1, 3)] == pytest.approx(1.0)
    assert selfs[(2, 1)] == pytest.approx(1.0)


def test_recorder_nests_and_flushes_at_the_outermost_span(tmp_path):
    rec = tracing.Recorder(str(tmp_path))

    def leaf():
        return 1

    def gen():
        yield leaf_w()
        yield leaf_w()

    leaf_w = tracing.wrap(rec, leaf, "leaf", lambda a, r: {"r": r})
    outer = tracing.wrap(rec, lambda: list(gen_w()), "outer")
    gen_w = tracing.wrap_generator(rec, gen, "gen")
    assert outer() == [1, 1]
    spans = layers.load_spans(tmp_path)
    by_id = {s["id"]: s for s in spans}
    names = sorted(s["name"] for s in spans)
    assert names == ["gen", "gen", "gen", "leaf", "leaf", "outer"]
    for s in spans:
        if s["name"] == "leaf":
            assert by_id[s["parent"]]["name"] == "gen"
            assert s["attrs"] == {"r": 1}
        elif s["name"] == "gen":
            assert by_id[s["parent"]]["name"] == "outer"


def test_wrapped_functions_still_pickle(tmp_path, monkeypatch):
    from repro.harness import executor
    from repro.service import scheduler
    rec = tracing.Recorder(str(tmp_path))
    for module, attr in ((executor, "_worker"), (executor, "_gang_worker"),
                         (scheduler, "run_batch")):
        wrapped = tracing.wrap(rec, getattr(module, attr), "task")
        monkeypatch.setattr(module, attr, wrapped)
        assert pickle.loads(pickle.dumps(wrapped)) is wrapped


# -- hashing ----------------------------------------------------------------------

RECORD = {"key": "Base64|a+b|10|0|first", "config": "Base64",
          "benchmarks": ["a", "b"], "length": 10, "seed": 0,
          "cycles": 40, "ipc": 0.5,
          "threads": [{"benchmark": "a", "retired": 10, "cpi": 4.0},
                      {"benchmark": "b", "retired": 10, "cpi": 4.0}],
          "events": {"x": 1}, "elapsed_s": 0.25}


def test_hashes_are_stable_and_ignore_timing():
    points = {"k": stats.point_summary(RECORD)}
    assert stats.results_hash(points) == \
        "bd5b9af18155e1a96e9cae02e7e33325594e2776eee16e4ae496f899a0e0b79f"
    retimed = dict(RECORD, elapsed_s=9.0, key="other")
    assert stats.record_digest(retimed) == stats.record_digest(RECORD)
    changed = dict(RECORD, events={"x": 2})
    assert stats.record_digest(changed) != stats.record_digest(RECORD)
    two = {"k": points["k"], "j": stats.point_summary(changed)}
    assert stats.results_hash(two) == \
        stats.results_hash(dict(reversed(list(two.items()))))
    assert stats.mismatched(two, {"k": points["k"]}) == ["j"]


# -- compare.py ---------------------------------------------------------------------

def test_compare_verdicts():
    base = stats.summarize([10.0, 10.1, 10.2, 9.9])
    slower = stats.summarize([12.0, 12.1, 12.2, 11.9])
    noisy = stats.summarize([8.0, 12.0, 10.0, 14.0])
    assert compare.judge(base, base, 0.1, "lower")["verdict"] == "ok"
    assert compare.judge(base, slower, 0.1, "lower")["verdict"] == \
        "REGRESSED"
    assert compare.judge(slower, base, 0.1, "lower")["verdict"] == "better"
    assert compare.judge(base, slower, 0.1, "higher")["verdict"] == "better"
    assert compare.judge(base, noisy, 0.1, "lower")["verdict"] == \
        "unresolved"
    assert compare.judge(base, slower, 0.1, "lower")["wins"] == 0.0


# -- BENCHMARK.json -------------------------------------------------------------------

def test_benchmark_json_matches_the_result_line():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == run.E2E_RESULT
    assert [m["name"] for m in doc["per_layer"]] == run.LAYER_RESULT
    for m in doc["end_to_end"]:
        assert m["unit"] == layers.END_TO_END[m["name"]]
    for m in doc["per_layer"]:
        assert m["unit"] == layers.PER_LAYER[m["name"]]
    assert [w["name"] for w in doc["workloads"]] == list(layers.WORKLOADS)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


# -- runs ---------------------------------------------------------------------------

def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_run_of_all_workloads(tmp_path):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--mixes", "2",
         "--length", "300", "--reps", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert line["correct"] and line["failed"] == 0
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == set(layers.WORKLOADS)
    for w, wd in doc["workloads"].items():
        assert set(wd["end_to_end"]) == set(layers.END_TO_END)
        assert set(wd["per_layer"]) == set(layers.PER_LAYER)
        assert wd["checks"]["reps_agree"] == "ok"
        assert line["metrics"][w].keys() == set(run.LAYER_RESULT)
    assert doc["workloads"]["grid.serve"]["checks"]["equals_local"] == "ok"
    for key in ("nproc", "cpu_model", "python", "git_head", "seed",
                "reps", "scale"):
        assert key in doc["provenance"]


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "grid.local",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
