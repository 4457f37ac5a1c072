"""Smoke test of the benchmark itself, at the tiny shape (a few seconds per run).

Run from the root of the repository::

    python3 -m pytest perfbench -q
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

from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def bench(*args, run_py: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    command = [sys.executable, str(run_py), "--shape", "tiny", "--seconds", "0", *args]
    return subprocess.run(command, capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, units", [(0, END_TO_END), (1, LAYER_METRICS)])
def test_every_metric_is_emitted_with_its_unit(workload, trace, units):
    done = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == units
    if trace:
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        self_times = sum(value for name, value in values.items() if name.endswith(".self_s"))
        assert self_times + values["unattributed_s"] == pytest.approx(values["trace.wall_s"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        done = bench("--workload", workload, "--trace", "1")
        assert done.returncode == 0, done.stderr
        counts.append({
            name: metric["value"] for name, metric in result_of(done)["metrics"].items()
            if metric["unit"] in ("count", "B")
        })
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_injected_mismatch_fails_the_run(workload):
    done = bench("--workload", workload, "--inject-mismatch")
    assert done.returncode != 0
    result = result_of(done)
    assert not result["correct"] and result["failed"] >= 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "cold_paper", run_py=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
