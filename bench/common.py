"""Shared helpers of the benchmark: locations, child processes, statistics."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from pathlib import Path
from typing import Iterable, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PYTHON = sys.executable


def require_source() -> None:
    """Exit with an error unless the checkout holds the ``repro`` sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"error: no repro sources under {SRC}; run the benchmark "
            "from a full checkout\n"
        )
        sys.exit(2)


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """This process's peak RSS."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(items: Iterable[str]) -> str:
    """Order-free digest of a run's distinct deterministic outputs."""
    blob = "\n".join(sorted(set(items)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)
