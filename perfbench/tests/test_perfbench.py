"""Tests of the benchmark itself, at tiny shapes that run in seconds."""
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def tiny(name):
    """The workload at tiny shapes, under its own name so that no pinned
    reference applies."""
    w = bench.WORKLOADS[name]
    return replace(w, name=f"{name}-tiny", records=1000, table_rows=2000 if w.table_rows else 0, dim=16,
                   hidden=8, batch=64, epochs=2, messages=128, score_batch=32, setups=2)


@pytest.fixture(scope="module")
def tiny_runs():
    return {(name, trace): bench.run(tiny(name), 3, 0.5, trace)
            for name in bench.WORKLOADS for trace in (False, True)}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_checks(tiny_runs, name, trace):
    detail, result = tiny_runs[(name, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert detail["fail_rate"] == 0.0
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_named_metric_has_unit_and_sample_count(tiny_runs, name, trace, section):
    detail, result = tiny_runs[(name, trace)]
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(named)
    for metric, unit in named.items():
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert np.isfinite(entry["value"])
        assert isinstance(detail["samples"][metric], int) and detail["samples"][metric] >= 1


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_unbounded_tail_latency_is_reported(tiny_runs, name):
    entry = tiny_runs[(name, False)][0]["unbounded"]["predict_p95_ms"]
    assert entry["unit"] == "ms" and entry["samples"] >= 1 and np.isfinite(entry["value"])


def test_environment_is_recorded(tiny_runs):
    env = tiny_runs[("train-toy", False)][0]["environment"]
    assert {"nproc", "python", "numpy", "openblas", "blas_threads", "git_commit"} <= set(env)


def test_corrupted_reload_is_counted_not_fatal(monkeypatch):
    real = bench.load_checkpoint

    def corrupted(path):
        ckpt = real(path)
        name = sorted(ckpt.arrays)[0]
        ckpt.arrays[name].reshape(-1)[0] += 1.0
        return ckpt

    monkeypatch.setattr(bench, "load_checkpoint", corrupted)
    w = tiny("train-toy")
    detail, result = bench.run(w, 3, 0.3, False)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "reloaded arrays differ" in detail["failures"][0]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_failing_request_is_counted_not_fatal(monkeypatch):
    real = bench.forward_batch
    calls = {"n": 0}

    def flaky(model, ids, mode, *args, **kwargs):
        if mode == "infer" and len(ids) == 1:
            calls["n"] += 1
            if calls["n"] == 3:
                raise FloatingPointError("injected")
        return real(model, ids, mode, *args, **kwargs)

    monkeypatch.setattr(bench, "forward_batch", flaky)
    detail, result = bench.run(tiny("train-toy"), 3, 0.3, False)
    assert result["failed"] == 1 and result["correct"] is False
    assert "injected" in detail["failures"][0]


def test_pinned_reference_mismatch_is_counted(monkeypatch):
    w = tiny("train-toy")
    reference = bench.load_reference()
    reference["seeds"] = {w.name: {"3": {"final_train_loss": 1.0, "test_macro_f1": 0.5}}}
    monkeypatch.setattr(bench, "load_reference", lambda: reference)
    detail, result = bench.run(w, 3, 0.3, False)
    assert result["failed"] == 1
    assert "pinned reference" in detail["failures"][0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "train-toy", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
