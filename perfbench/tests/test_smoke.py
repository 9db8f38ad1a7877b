"""Smoke runs of every workload at its smallest size.

    python3 -m pytest perfbench/tests

Each run goes through ``run.py`` in a subprocess, exactly as the benchmark is
invoked, with ``--size smoke``: the survey at rank 3 with multiplicities up to
2, the doubles of s3 and z4, and the check workload on ``product(ising, toric)``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, seed: int, trace: int, script: Path = BENCH_DIR / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "0.3", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def parse(proc) -> tuple[list[str], dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(l for l in lines if l.startswith("run record: "))[12:])
    return lines, result, record


def table_rows(lines: list[str]) -> dict[str, tuple[float, str]]:
    rows = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            rows[parts[0]] = (float(parts[1]), parts[2])
    return rows


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result, record = parse(run(workload, 0, 0))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    rows = table_rows(lines)
    for name, unit in expected.items():
        assert rows[name][1] == unit
        assert result["metrics"][name]["value"] > 0
    assert rows["error_rate"] == (0.0, "ratio")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["kernel_backend"] in {"fallback", "numba"}
    assert record["blas_threads"] is None or record["blas_threads"] <= record["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(workload):
    lines, result, _ = parse(run(workload, 0, 1))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    rows = table_rows(lines)
    for name, unit in expected.items():
        assert rows[name][1] == unit
    assert rows["error_rate"] == (0.0, "ratio")
    assert result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_relabels_inputs_and_keeps_invariants(workload):
    # both runs are checked against the same pinned invariants
    _, first, record0 = parse(run(workload, 0, 0))
    _, second, record1 = parse(run(workload, 1, 0))
    assert first["correct"] and second["correct"]
    assert record0["inputs_sha256"] != record1["inputs_sha256"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("survey", 0, 0, script=tmp_path / BENCH_DIR.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
