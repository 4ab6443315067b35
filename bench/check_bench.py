"""Tests of the benchmark itself, run in smoke mode.

    python -m pytest bench/check_bench.py -q

The file name keeps these out of the library's own test run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import POLY_K, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 5


@functools.cache
def bench(workload: str, trace: int, hashseed: int = 0):
    """Run one smoke benchmark; return its result line and digest lines."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke",
        ],
        capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digests = sorted(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digests


def calls(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_digests_and_calls_ignore_hash_seed(workload):
    result0, digests0 = bench(workload, 1, hashseed=0)
    result1, digests1 = bench(workload, 1, hashseed=1)
    assert digests0 and digests0 == digests1
    assert calls(result0) == calls(result1)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_computes_the_same_outputs(workload):
    assert bench(workload, 0)[1] == bench(workload, 1)[1]


def test_workloads_keep_layers_apart():
    pipeline = calls(bench("t2-pipeline", 1)[0])
    assert pipeline["star.bidiff.calls"] == 0
    assert pipeline["chartfn.shift.calls"] > 0
    for workload in ("star-trig", "star-poly-assoc"):
        star = calls(bench(workload, 1)[0])
        assert star["chartfn.shift.calls"] == 0
        assert star["star.bidiff.calls"] > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    for workload in WORKLOADS:
        result, _ = bench(workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "star-trig", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_oracles_reject_wrong_results():
    sb = run.import_starbundle()
    for name, wrong in (
        ("t2-pipeline", lambda entry: dataclasses.replace(entry, e=entry.e + 1)),
        ("star-trig", lambda entry: dataclasses.replace(entry, b=entry.a)),
    ):
        workload = WORKLOADS[name]
        entry = workload.pool()[0]
        output = workload.op(sb, workload.prepare(sb, entry))
        assert workload.oracle(entry, output) is None
        assert workload.oracle(wrong(entry), output) is not None

    workload = WORKLOADS["star-poly-assoc"]
    entry = workload.pool()[0]
    report = workload.op(sb, workload.prepare(sb, entry))
    assert workload.oracle(entry, report) is None
    broken = dataclasses.replace(
        report, verified_order=POLY_K - 1, violations=({"first_nonzero_order": POLY_K},)
    )
    assert workload.oracle(entry, broken) is not None
