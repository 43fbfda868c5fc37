"""Exp#5 (Fig. 9): scalability with the number of concurrent programs.

Deploys 10-50 programs on Table III topology 10 and reports, per
framework and program count, the per-packet overhead, execution time,
and the end-to-end impact — the four panels of Fig. 9.

Since the suite-compiler refactor the experiment lives in the shipped
``repro.suite/v1`` spec (``repro/suite/specs/exp5.json``); :func:`run`
compiles a matching spec through
:func:`repro.suite.compiler.deployment_cells` and :func:`render`
produces the tables (the suite's ``exp5`` aggregator shares it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.baselines.base import DeploymentFramework
from repro.experiments.exp2_overhead import workload, workload_spec
from repro.experiments.harness import DeploymentRecord
from repro.experiments.reporting import Table, pivot_records

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentRunner

PROGRAM_COUNTS = (10, 20, 30, 40, 50)
TOPOLOGY_ID = 10

__all__ = [
    "PROGRAM_COUNTS",
    "TOPOLOGY_ID",
    "Exp5Point",
    "main",
    "render",
    "run",
    "suite_spec",
    "workload",
]


@dataclass
class Exp5Point:
    num_programs: int
    record: DeploymentRecord


def suite_spec(
    program_counts: Sequence[int] = PROGRAM_COUNTS,
    topology_id: int = TOPOLOGY_ID,
    seed: int = 7,
    ilp_time_limit_s: float = 10.0,
):
    """The Exp#5 suite spec for arbitrary sweep parameters (the
    shipped ``exp5.json`` is this at the paper's defaults)."""
    from repro.suite import SuiteSpec

    return SuiteSpec.from_dict(
        {
            "suite": "repro.suite/v1",
            "name": "exp5",
            "kind": "deployment",
            "axes": {
                "workloads": [
                    {
                        "spec": workload_spec(count, seed),
                        "tag": count,
                    }
                    for count in program_counts
                ],
                "topologies": [
                    {"spec": f"zoo:{topology_id}", "tag": topology_id}
                ],
                "frameworks": {
                    "set": "paper",
                    "ilp_time_limit_s": ilp_time_limit_s,
                    "per_program_ilp_time_limit_s": max(
                        ilp_time_limit_s / 20.0, 0.2
                    ),
                },
            },
            "params": {"tag_axis": "workload"},
            "aggregate": ["exp5"],
        }
    )


def run(
    program_counts: Sequence[int] = PROGRAM_COUNTS,
    topology_id: int = TOPOLOGY_ID,
    frameworks: Optional[Sequence[DeploymentFramework]] = None,
    seed: int = 7,
    ilp_time_limit_s: float = 10.0,
    runner: Optional["ExperimentRunner"] = None,
) -> List[Exp5Point]:
    """Sweep the program count; the whole (framework x count) grid is
    one flat cell list so a parallel ``runner`` overlaps every solve,
    and its result cache collapses sweep points shared with earlier
    runs (e.g. the n=50 cells Exp#2 already solved on topology 10)."""
    from repro.experiments.runner import execute_cells
    from repro.suite import deployment_cells

    cells = deployment_cells(
        suite_spec(
            program_counts, topology_id, seed, ilp_time_limit_s
        ),
        frameworks_override=frameworks,
    )
    return [
        Exp5Point(res.cell.tag, res.record)
        for res in execute_cells(cells, runner)
    ]


def _pivot(points: List[Exp5Point], attr: str, title: str) -> Table:
    return pivot_records(
        [(p.num_programs, p.record) for p in points],
        attr,
        title,
        col_label=lambda c: f"n={c}",
    )


def render(points: List[Exp5Point]) -> str:
    """Fig. 9(a)-(d') as six tables (what ``main`` prints)."""
    tables = [
        _pivot(points, "overhead_bytes", "Fig. 9(a): per-packet byte overhead (B)"),
        _pivot(
            points,
            "reported_time_ms",
            "Fig. 9(b): execution time (ms; 1e7 = exceeded limit)",
        ),
        _pivot(points, "fct_ratio", "Fig. 9(c): normalized FCT"),
        _pivot(points, "goodput_ratio", "Fig. 9(d): normalized goodput"),
        _pivot(
            points,
            "plan_fct_ratio",
            "Fig. 9(c'): plan-aware normalized FCT (routed pairs)",
        ),
        _pivot(
            points,
            "plan_goodput_ratio",
            "Fig. 9(d'): plan-aware normalized goodput (routed pairs)",
        ),
    ]
    return "\n\n".join(t.render() for t in tables)


def main(points: Optional[List[Exp5Point]] = None) -> str:
    points = points if points is not None else run()
    output = render(points)
    print(output)
    return output


if __name__ == "__main__":
    main()
