"""Extension study: deployment overhead under a DCN flow trace.

The paper quantifies end-to-end impact one flow at a time (Fig. 2,
Fig. 8).  This study weights that impact by a realistic heavy-tailed
DCN trace: the per-packet overheads measured for each framework in the
Exp#2 setting are applied to the same 1000-flow trace, and the mean /
p99 FCT and the total extra wire bytes are reported.  The elephants pay
the full serialization tax, so framework differences compound over a
trace in a way single-flow numbers understate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.baselines.base import DeploymentFramework
from repro.experiments.harness import E2E_HOPS
from repro.experiments.reporting import Table
from repro.network.topozoo import topology_zoo_wan
from repro.simulation.netsim import uniform_path
from repro.simulation.traces import (
    TraceConfig,
    TraceMetrics,
    evaluate_trace,
    generate_trace,
)
from repro.experiments.exp2_overhead import workload
from repro.experiments.harness import default_frameworks


@dataclass
class TraceStudyRow:
    framework: str
    overhead_bytes: int
    metrics: TraceMetrics


def run(
    topology_id: int = 5,
    num_programs: int = 20,
    frameworks: Optional[Sequence[DeploymentFramework]] = None,
    trace_seed: int = 11,
    trace_config: TraceConfig = TraceConfig(),
    engine: Optional[str] = None,
) -> List[TraceStudyRow]:
    """Deploy, then weight each framework's overhead by the trace.

    ``engine`` picks the evaluation engine for the trace (see
    :func:`repro.simulation.engine.get_engine`; no name runs the batch
    closed form).
    """
    programs = workload(num_programs, seed=7)
    network = topology_zoo_wan(topology_id)
    frameworks = (
        list(frameworks)
        if frameworks is not None
        else default_frameworks(include_optimal=False)
    )
    trace = generate_trace(trace_seed, trace_config)
    path = uniform_path(E2E_HOPS)

    rows: List[TraceStudyRow] = []
    for framework in frameworks:
        result = framework.deploy(programs, network)
        metrics = evaluate_trace(
            trace, path, result.overhead_bytes, engine=engine
        )
        rows.append(
            TraceStudyRow(
                framework=framework.name,
                overhead_bytes=result.overhead_bytes,
                metrics=metrics,
            )
        )
    return rows


def main(rows: Optional[List[TraceStudyRow]] = None) -> str:
    rows = rows if rows is not None else run()
    baseline_wire = min(r.metrics.total_wire_bytes for r in rows)
    table = Table(
        "Trace study: 1000-flow DCN trace under each deployment",
        [
            "framework",
            "overhead(B)",
            "mean FCT (us)",
            "p99 FCT (us)",
            "mean slowdown",
            "extra wire (MB)",
        ],
    )
    for row in rows:
        extra_mb = (
            row.metrics.total_wire_bytes - baseline_wire
        ) / 1_000_000
        table.add_row(
            [
                row.framework,
                row.overhead_bytes,
                round(row.metrics.mean_fct_us, 1),
                round(row.metrics.p99_fct_us, 1),
                round(row.metrics.mean_slowdown, 4),
                round(extra_mb, 2),
            ]
        )
    output = table.render()
    print(output)
    return output


if __name__ == "__main__":
    main()
