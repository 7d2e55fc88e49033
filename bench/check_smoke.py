"""Smoke test of the benchmark harness itself.

Run from the repository root:

    python3 -m pytest -q bench/check_smoke.py

Both workloads run at 2 generations. Every metric must be emitted with its
unit, and the exact counts must repeat across two traced runs, so that a
count claim can rest on them. The file name keeps it out of the default test
collection; it takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

EXACT_COUNTS = ("sparse.matmul.calls", "evaluator.calls", "agents.backend.calls",
                "structure.validate.calls")


def bench(workload, trace, cwd=HERE.parent, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--generations", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def printed(lines, name):
    return any(line.split()[:1] == [name] for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_with_units(workload):
    lines, result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert printed(lines, "failed_frac")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_metrics_and_exact_counts(workload):
    runs = [result_of(bench(workload, 1)) for _ in range(2)]
    for lines, result in runs:
        assert result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(layers.PER_LAYER)
        calls = result["metrics"]["evaluator.calls"]["value"]
        assert printed(lines, "evaluator.p90_ms") == (calls >= layers.P90_MIN_SAMPLES)
    (_, first), (_, second) = runs
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("rec-demo", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
