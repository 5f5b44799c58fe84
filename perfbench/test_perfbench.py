"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# op lists


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    a = json.dumps(workloads.build_ops(workload, 7))
    assert a == json.dumps(workloads.build_ops(workload, 7))
    assert a != json.dumps(workloads.build_ops(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_ops_come_from_the_catalogue(workload, seed):
    ref = checks.load_reference()
    enums = {(op["n"], op["m"]) for part in workloads.structure_catalogue().values()
             for op in part if op["kind"] == "enum"}
    for op in workloads.build_ops(workload, seed):
        if op["kind"] == "word":
            assert 1 <= op["z"] <= 10**18
        elif op["kind"] == "enum":
            assert (op["n"], op["m"]) in enums
        elif op["kind"] == "fit":
            assert op["src"] >= 0
        elif op["argv"][0] == "candidates":
            lo, hi = (int(x) for x in op["argv"][-1].split(".."))
            assert workloads.CAND_K_LO <= lo <= hi <= workloads.CAND_K_HI
        elif op["argv"][0] == "ring":
            assert op["argv"][1].split("=", 1)[1] in workloads.RINGS
            assert op["lcm_k"] <= 3000
        else:
            assert checks.ref_key(op["argv"]) in ref["ops"], op["argv"]


def test_structure_seed_changes_order_not_the_multiset():
    def multiset(seed):
        return sorted(json.dumps(checks.ref_key(op["argv"]) if op["kind"] == "cli" else op)
                      for op in workloads.build_ops("structure", seed))
    assert multiset(1) == multiset(2)


# ---------------------------------------------------------------------------
# statistics


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([3.0], 0.9) == 3.0
    assert run.samples_beyond(100, 0.9) == 10
    assert run.samples_beyond(99, 0.9) == 9


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_full_pass_has_ten_samples_beyond_p90(workload):
    n = len(workloads.build_ops(workload, 3))
    assert n >= 100
    assert run.samples_beyond(n, run.P_TAIL) >= 10


def test_self_times_on_nested_spans():
    # A [0,10] has children B [1,4] and C [5,9]; C has child D [6,7]; E is a second root.
    s = [["A", 0.0, 10.0, -1], ["B", 1.0, 4.0, 0], ["C", 5.0, 9.0, 0],
         ["D", 6.0, 7.0, 2], ["E", 11.0, 12.5, -1], ["B", 11.5, 12.0, 4]]
    self_s, roots = spans.self_times(s)
    assert self_s == {"A": 3.0, "B": 3.5, "C": 3.0, "D": 1.0, "E": 1.0}
    assert roots == 11.5
    assert spans.inclusive_time(s, frozenset({"A", "D"})) == 10.0
    assert spans.inclusive_time(s, frozenset({"C", "D"})) == 4.0
    assert spans.inclusive_time(s, frozenset({"B"})) == 3.5


def test_tracer_patches_call_sites_and_restores_them():
    from resfin import chevalley, matgrp

    original = chevalley.mat_mul_mod
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert chevalley.mat_mul_mod is matgrp.mat_mul_mod is not original
        chevalley.enumerate_group(chevalley.GroupSpec(2), 3)
    finally:
        tracer.uninstall()
    assert chevalley.mat_mul_mod is original is matgrp.mat_mul_mod
    assert tracer.calls["matgrp.mat_mul_mod"] > 0  # a counter, no spans
    assert {s[0] for s in tracer.spans} >= {"chevalley.enumerate_group"}
    assert tracer.items["chevalley.enumerate_group.elements"] == 24


# ---------------------------------------------------------------------------
# BENCHMARK.json and end-to-end runs


def test_benchmark_json_matches_the_layer_table():
    bench = _benchmark()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.LAYER_METRICS
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run_has_no_failures(workload):
    got = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
               "--size", "tiny")
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in _benchmark()["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    got = _run("--workload", "rings", "--seed", "2", "--seconds", "1", "--trace", "1",
               "--size", "tiny")
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in _benchmark()["per_layer"]]
    assert result["metrics"]["numring.detect_split.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = _run("--workload", "detect", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path))
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
