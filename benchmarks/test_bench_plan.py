"""Benchmark: probe-filtered candidate moves in the refine loop.

``refine_plan`` screens each candidate move with an ``A_max`` probe —
the moved MAT's edges shifted between switch pairs in the round's pair
bytes — and only builds the candidates the probe proves improving,
assembling each from the stage layouts it memoizes per switch and MAT
set and verifying it from tables memoized on the TDG.  This benchmark
times it against the legacy loop of ``tests/core/refine_oracle.py`` (a
rebuild of every candidate through the ``PlanBuilder`` of
``tests/plan_builder_oracle.py``, no memo, the verifier before its
tables) on the Exp#2 golden family, asserting the refined plans are
metric-identical (the probe filter is exact, so the accepted-move
sequences match).

Results are written to ``BENCH_plan.json`` at the repo root so the
refine-loop wall-time contract is auditable across commits.
"""

import json
import os
import sys
import time

import pytest

from repro.core.analyzer import ProgramAnalyzer
from repro.core.heuristic import GreedyHeuristic
from repro.core.refine import refine_plan
from repro.experiments.exp2_overhead import workload
from repro.network.paths import PathEnumerator
from repro.network.topozoo import topology_zoo_wan

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPORT_PATH = os.path.join(_REPO_ROOT, "BENCH_plan.json")

sys.path.insert(0, os.path.join(_REPO_ROOT, "tests"))
sys.path.insert(0, os.path.join(_REPO_ROOT, "tests", "core"))
from refine_oracle import legacy_refine_plan  # noqa: E402

#: Golden Exp#2-family instances: (label, topology id, program count).
#: Sized so the unrefined greedy plan is feasible and the refine loop
#: has real boundary moves to search (A_max > 0).
GOLDEN = [
    ("zoo5/p15", 5, 15),
    ("zoo5/p25", 5, 25),
    ("zoo10/p20", 10, 20),
    ("zoo10/p25", 10, 25),
]

REPS = 3


def _time_best_of(fn, reps=REPS):
    """(best wall seconds, last result) over ``reps`` runs."""
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def plan_records():
    """Legacy vs probe-filtered refine over every golden instance."""
    records = []
    for label, topology_id, num_programs in GOLDEN:
        tdg = ProgramAnalyzer().analyze(workload(num_programs, seed=7))
        network = topology_zoo_wan(topology_id)
        plan = GreedyHeuristic(refine=False).deploy(tdg, network)
        paths = PathEnumerator(network)
        # Warm the shared path cache so neither variant builds its
        # shortest-path trees inside its timed region.
        legacy_refine_plan(plan, paths)
        legacy_s, legacy_plan = _time_best_of(
            lambda: legacy_refine_plan(plan, paths)
        )
        fast_s, fast_plan = _time_best_of(lambda: refine_plan(plan, paths))
        records.append(
            {
                "instance": label,
                "topology": topology_id,
                "programs": num_programs,
                "unrefined_amax": plan.max_metadata_bytes(),
                "legacy": {
                    "wall_s": round(legacy_s, 4),
                    "amax": legacy_plan.max_metadata_bytes(),
                },
                "fast": {
                    "wall_s": round(fast_s, 4),
                    "amax": fast_plan.max_metadata_bytes(),
                },
                "speedup": round(legacy_s / max(fast_s, 1e-9), 2),
            }
        )
    payload = {
        "instances": records,
        "summary": {
            "instances": len(records),
            "legacy_wall_s_total": round(
                sum(r["legacy"]["wall_s"] for r in records), 4
            ),
            "fast_wall_s_total": round(
                sum(r["fast"]["wall_s"] for r in records), 4
            ),
            "strict_speedups": sum(
                1
                for r in records
                if r["fast"]["wall_s"] < r["legacy"]["wall_s"]
            ),
        },
    }
    with open(_REPORT_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def test_bench_plan_refine_metric_identical(plan_records):
    """The probe filter is exact: same refined A_max everywhere."""
    for record in plan_records["instances"]:
        assert record["fast"]["amax"] == record["legacy"]["amax"], (
            record["instance"]
        )
        assert record["fast"]["amax"] <= record["unrefined_amax"], (
            record["instance"]
        )


def test_bench_plan_refine_is_faster_overall(plan_records):
    """The probe-filtered loop wins in aggregate wall time."""
    summary = plan_records["summary"]
    assert summary["fast_wall_s_total"] < summary["legacy_wall_s_total"]


def test_bench_plan_report(plan_records):
    from conftest import record_report

    rows = [
        "Refine loop on the Exp#2 golden family (wall seconds, best of "
        f"{REPS})",
        f"{'instance':<12} {'legacy s':>9} {'fast s':>8} {'speedup':>8} "
        f"{'A_max':>6}",
    ]
    for record in plan_records["instances"]:
        rows.append(
            f"{record['instance']:<12} "
            f"{record['legacy']['wall_s']:>9.3f} "
            f"{record['fast']['wall_s']:>8.3f} "
            f"{record['speedup']:>7.2f}x "
            f"{record['fast']['amax']:>6}"
        )
    summary = plan_records["summary"]
    rows.append(
        f"total wall: legacy={summary['legacy_wall_s_total']:.3f}s "
        f"fast={summary['fast_wall_s_total']:.3f}s "
        f"(strict wins {summary['strict_speedups']}/{summary['instances']})"
    )
    record_report("\n".join(rows))
    assert os.path.exists(_REPORT_PATH)
