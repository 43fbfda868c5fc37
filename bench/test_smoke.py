"""Smoke test of the benchmark: every workload with about a tenth of the ops.

Tier-1 collects only ``tests/``, so this runs when invoked explicitly:

    python -m pytest bench/
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import PYTHON, ROOT, load_benchmark  # noqa: E402

SPEC = load_benchmark()
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [PYTHON, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_prints_every_metric(workload: str, trace: str) -> None:
    proc = run_bench("--workload", workload, "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.split()[:2] == ["error_rate", "0.0000"] for line in lines)
    specs = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    printed = {
        tuple(line.split()[::2]) for line in lines if len(line.split()) == 3
    }
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert (spec["name"], spec["unit"]) in printed, spec["name"]
        if trace == "0":
            assert metric["value"] > 0, spec["name"]


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench("--workload", NAMES[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

