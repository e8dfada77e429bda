"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

Every workload runs once traced and once untraced at a tiny size; all of
its ops must pass their checks, and two traced runs at one seed must
give identical deterministic per-layer values.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Enough ops for each workload to reach every op kind once.
TINY = {"theorem-gbit": 30, "geometry-cold": 9, "threshold-bisect": 9, "cli-reports": 7}
TIMED_UNITS = ("s", "ops/s")
SEED = 5


def run(cwd, workload, trace, ops):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", "30", "--trace", str(trace), "--ops", str(ops)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def printed(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_repeat_and_every_op_passes(workload):
    first, second = (result_of(run(ROOT, workload, 1, TINY[workload])) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == TINY[workload]
        assert printed(result) == declared("per_layer")
    counts = [{name: m["value"] for name, m in result["metrics"].items()
               if m["unit"] not in TIMED_UNITS} for result in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["exactlp.lp_feasible.calls"] > 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = result_of(run(ROOT, workload, 0, TINY[workload]))
    assert result["correct"] and result["failed"] == 0
    assert printed(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = run(tmp_path, "theorem-gbit", 0, 1)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
