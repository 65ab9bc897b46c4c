"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its
unit and with no failed op, that a wrong expected answer is counted as a
failed op, and that the benchmark refuses to run without the library
source. Only the compile and diagnosis sizes shrink: the staging
workloads run their real circuits, so stage-dense (25 qubits, about 5 s
and 1 GiB an op) is the slowest part.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / SPEC["command"][1]), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_and_no_op_fails(trace, group):
    done = _run("--workload", "all", "--seed", "7", "--seconds", "0.5", "--smoke",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    reports = [line["report"] for line in lines if "report" in line]
    results = [line for line in lines if "correct" in line][:-1]  # the last combines them
    assert [r["workload"] for r in reports] == [w["name"] for w in SPEC["workloads"]]
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    for report, result in zip(reports, results):
        assert result["correct"] and result["failed"] == 0, (report, result)
        assert report["failed_frac"] == 0
        assert result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        assert report["environment"]["seed"] == 7


def _flip(original):
    return lambda *args: 1 - original(*args)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_a_wrong_expected_answer_counts_as_a_failed_op(name, monkeypatch):
    wrong_table = {key: (qubit, bits[::-1], stages) for key, (qubit, bits, stages)
                   in workloads.STAGING_TABLE.items()}
    monkeypatch.setattr(workloads, "STAGING_TABLE", wrong_table)
    monkeypatch.setattr(workloads, "reference_eval", _flip(workloads.reference_eval))
    result = worker.measure(name, seed=7, seconds=0.2, trace=False, smoke=True)
    assert result["failed"] > 0 and result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    done = _run("--workload", "compile-verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
