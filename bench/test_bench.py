"""The benchmark's own test: every workload at minimal length, both modes.

Run from the root of the repository::

    python3 -m pytest -q bench/test_bench.py

Each run does only its workload's fixed minimum of ops (``--seconds`` is
tiny), so the whole file takes a few minutes on the seed code.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS, tail

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_summary(summary: dict, specs: list[dict]) -> None:
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == {s["name"]: s["unit"] for s in specs}
    for m in summary["metrics"].values():
        assert set(m) == {"value", "unit"} and isinstance(m["value"], float)


def test_workloads_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    report, summary = _lines(_run(workload, 0))
    _check_summary(summary, SPEC["end_to_end"])
    assert report["metrics"]["fail_frac"]["value"] == 0.0
    for name, m in summary["metrics"].items():
        assert m["value"] > 0, name
    assert report["env"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    report, summary = _lines(_run(workload, 1))
    _check_summary(summary, SPEC["per_layer"])
    assert report["self_time_ok"] is True
    layers = summary["metrics"]
    if workload == "large-theorem":
        assert layers["linalg.spectral_norm.calls"]["value"] == 2.0
    if workload == "oracle-tiny":
        assert layers["verify.enumerate_oracle.candidates"]["value"] == 4096.0
    if workload == "cluster-sparse":
        assert layers["cli.main.calls"]["value"] == 1.0
        assert layers["data.read_sparse_labeled.mb_per_s"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("oracle-tiny", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize(
    "n, q, beyond",
    [(5, 0, 4), (16, 37, 10), (20, 50, 10), (100, 90, 10), (1000, 99, 10)],
)
def test_tail_percentile(n, q, beyond):
    times = [float(i) for i in range(n)]
    value, got = tail(times)
    assert got == q
    assert sum(t > value for t in times) == beyond
