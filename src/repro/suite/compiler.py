"""Compile a :class:`~repro.suite.spec.SuiteSpec` into work and run it.

The compiler is the bridge between the declarative spec layer and the
existing execution machinery: deployment suites become flat
:class:`~repro.experiments.runner.Cell` lists for
:func:`~repro.experiments.runner.execute_cells` (content-addressed
cache keys and all), churn suites drive the Exp#7 reconciler corpus,
resource/overhead/traffic suites fan their sweep jobs through
``runner.map``.  Cell order is workload -> topology -> framework,
which reproduces the historical exp1/exp2/exp5 loops exactly (the
golden tests lock this).

``run_suite`` is the one entry point: CLI (``repro suite run``),
server (``suite_run`` op) and tests all share it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.suite.report import SuiteReport
from repro.suite.spec import SuiteSpec

from repro.baselines import (
    Ffl,
    Ffls,
    Flightplan,
    HermesHeuristic,
    HermesOptimal,
    MinStage,
    Mtp,
    P4All,
    Sonata,
    Speed,
)

#: Spec-name -> framework class; axis kwargs pass straight through
#: the constructor.
FRAMEWORK_REGISTRY = {
    "minstage": MinStage,
    "sonata": Sonata,
    "speed": Speed,
    "mtp": Mtp,
    "flightplan": Flightplan,
    "p4all": P4All,
    "ffl": Ffl,
    "ffls": Ffls,
    "hermes": HermesHeuristic,
    "hermes-optimal": HermesOptimal,
}


def build_frameworks(spec: SuiteSpec) -> List[Any]:
    """Instantiate the frameworks axis (default: the paper set)."""
    from repro.experiments.harness import default_frameworks

    axis = spec.axes.get("frameworks")
    if axis is None:
        return default_frameworks()
    if isinstance(axis, dict):
        kwargs = {k: v for k, v in axis.items() if k != "set"}
        return default_frameworks(**kwargs)
    return [
        FRAMEWORK_REGISTRY[name](**kwargs) for name, kwargs in axis
    ]


def deployment_cells(
    spec: SuiteSpec,
    frameworks_override: Optional[Sequence[Any]] = None,
) -> List[Any]:
    """The resolved cell matrix of a ``deployment`` suite.

    Workloads and topologies materialize once per unique spec string;
    frameworks are built once and shared across cells (identical to
    the historical frameworks-passed path — the runner's cache key is
    content-addressed, so sharing instances cannot change results).
    """
    from repro.cli import parse_workload
    from repro.experiments.runner import Cell
    from repro.network.catalog import resolve

    if spec.kind != "deployment":
        raise ValueError(
            f"deployment_cells needs a deployment suite, got "
            f"{spec.kind!r}"
        )
    params = spec.params
    frameworks = (
        list(frameworks_override)
        if frameworks_override is not None
        else build_frameworks(spec)
    )
    workloads = [
        (entry, tuple(parse_workload(entry.spec)))
        for entry in spec.axes["workloads"]
    ]
    topologies = [
        (entry, resolve(entry.spec, seed=params["seed"]))
        for entry in spec.axes["topologies"]
    ]
    tag_axis = params["tag_axis"]
    cells: List[Any] = []
    for w_entry, programs in workloads:
        for t_entry, network in topologies:
            tag = w_entry.tag if tag_axis == "workload" else t_entry.tag
            for framework in frameworks:
                cells.append(
                    Cell(
                        programs=programs,
                        network=network,
                        framework=framework,
                        packet_payload_bytes=params[
                            "packet_payload_bytes"
                        ],
                        with_end_to_end=params["with_end_to_end"],
                        tag=tag,
                    )
                )
    return cells


def cell_plan(spec: SuiteSpec) -> List[Dict[str, Any]]:
    """The cell coordinates a suite would run, without materializing
    programs or networks — what ``repro suite validate`` prints."""
    if spec.kind == "deployment":
        frameworks = build_frameworks(spec)
        coords = []
        for w in spec.axes["workloads"]:
            for t in spec.axes["topologies"]:
                for f in frameworks:
                    coords.append(
                        {
                            "workload": w.tag,
                            "topology": t.tag,
                            "framework": f.name,
                        }
                    )
        return coords
    if spec.kind == "churn":
        return [{"seed": s} for s in spec.axes["seeds"]]
    if spec.kind == "resources":
        return [
            {"framework": f.name}
            for f in build_frameworks(spec)
        ]
    if spec.kind == "overhead_sweep":
        return [
            {"packet_size": p, "overhead": o}
            for p in spec.axes["packet_sizes"]
            for o in spec.axes["overheads"]
        ]
    return [
        {"hour": h, "overhead": o}
        for h in spec.axes["hours"]
        for o in spec.axes["overheads"]
    ]


def _traffic_point(job: Tuple) -> Dict[str, Any]:
    """Evaluate one (hour, overhead) traffic cell (pool-safe)."""
    (hour, overhead, flows, payload, message_bytes, hops,
     load_doc) = job
    from repro.simulation.engine import get_engine
    from repro.simulation.spec import DiurnalLoad, SimulationSpec

    load = DiurnalLoad.from_dict(dict(load_doc)).load_at(hour)
    sim = SimulationSpec.uniform(
        overhead,
        packet_payload_bytes=payload,
        hops=hops,
        message_bytes=message_bytes,
        flows=flows,
        offered_load=load,
    )
    result = get_engine("contention").evaluate(sim)
    return {
        "hour": hour,
        "overhead": overhead,
        "load": load,
        "fct_ratio": result.fct_ratio,
        "goodput_ratio": result.goodput_ratio,
        "mean_wait_us": result.mean_wait_us,
        "max_wait_us": result.max_wait_us,
        "contended_fraction": result.contended_fraction,
    }


def run_suite(
    spec: SuiteSpec,
    runner: Optional[Any] = None,
    frameworks_override: Optional[Sequence[Any]] = None,
) -> SuiteReport:
    """Run a suite end to end and aggregate it into a report.

    ``frameworks_override`` substitutes the instantiated frameworks of
    a deployment suite (the differential tests use it to run shipped
    specs at reduced cost); everything else comes from the spec.
    """
    from repro.suite.aggregate import AGGREGATORS, default_aggregators

    cells_meta: List[Dict[str, Any]] = []
    if spec.kind != "deployment":
        telemetry.emit(
            "suite.start", suite=spec.name, suite_kind=spec.kind,
            cells=len(cell_plan(spec)),
        )
    if spec.kind == "deployment":
        from repro.experiments.runner import execute_cells

        cells = deployment_cells(spec, frameworks_override)
        telemetry.emit(
            "suite.start", suite=spec.name, suite_kind=spec.kind,
            cells=len(cells),
        )
        results = execute_cells(cells, runner)
        outcome: Any = results
        workloads = spec.axes["workloads"]
        topologies = spec.axes["topologies"]
        per_point = len(cells) // (len(workloads) * len(topologies))
        coords = [
            {"workload": w.tag, "topology": t.tag}
            for w in workloads
            for t in topologies
            for _ in range(per_point)
        ]
        for i, (coord, res) in enumerate(zip(coords, results)):
            meta = dict(coord)
            meta.update(
                framework=res.cell.framework.name,
                cell=i,
                cached=res.cached,
                record=res.record.deterministic_fields(),
            )
            cells_meta.append(meta)
            telemetry.emit(
                "suite.cell",
                suite=spec.name,
                cell=i,
                tag=res.cell.tag,
                framework=res.cell.framework.name,
                cached=res.cached,
            )
    elif spec.kind == "churn":
        from repro.experiments import exp7_churn

        points = exp7_churn.run(
            seeds=spec.axes["seeds"],
            num_events=spec.params["events"],
            workload_spec=spec.params["workload"],
            runner=runner,
        )
        outcome = points
        for i, p in enumerate(points):
            cells_meta.append(
                {
                    "cell": i,
                    "seed": p.seed,
                    "topology": p.topology_spec,
                    "digest": p.report.history_digest,
                }
            )
            telemetry.emit(
                "suite.cell", suite=spec.name, cell=i, seed=p.seed,
                cached=False,
            )
    elif spec.kind == "resources":
        from repro.experiments import exp6_resources

        frameworks = (
            list(frameworks_override)
            if frameworks_override is not None
            else (
                build_frameworks(spec)
                if "frameworks" in spec.axes
                else None
            )
        )
        rows = exp6_resources.run(
            num_sketches=spec.params["num_sketches"],
            frameworks=frameworks,
            runner=runner,
        )
        outcome = rows
        for i, row in enumerate(rows):
            cells_meta.append(
                {
                    "cell": i,
                    "strategy": row.strategy,
                    "stage_units": row.total_stage_units,
                }
            )
            telemetry.emit(
                "suite.cell", suite=spec.name, cell=i,
                strategy=row.strategy, cached=False,
            )
    elif spec.kind == "overhead_sweep":
        from repro.experiments import fig2_motivation

        rows = fig2_motivation.run(
            overheads=spec.axes["overheads"],
            packet_sizes=spec.axes["packet_sizes"],
            message_bytes=spec.params["message_bytes"],
            hops=spec.params["hops"],
            engine=spec.params["engine"],
            runner=runner,
        )
        outcome = rows
        for i, row in enumerate(rows):
            cells_meta.append(
                {
                    "cell": i,
                    "packet_size": row.packet_size,
                    "overhead": row.overhead_bytes,
                }
            )
        telemetry.emit(
            "suite.cell", suite=spec.name, cell=0,
            rows=len(rows), cached=False,
        )
    else:  # traffic
        jobs = [
            (
                hour,
                overhead,
                spec.params["flows"],
                spec.params["packet_payload_bytes"],
                spec.params["message_bytes"],
                spec.params["hops"],
                dict(spec.params["load"]),
            )
            for hour in spec.axes["hours"]
            for overhead in spec.axes["overheads"]
        ]
        if runner is not None:
            rows = runner.map(_traffic_point, jobs)
        else:
            rows = [_traffic_point(job) for job in jobs]
        outcome = rows
        for i, row in enumerate(rows):
            cells_meta.append({"cell": i, **row})
            telemetry.emit(
                "suite.cell", suite=spec.name, cell=i,
                hour=row["hour"], overhead=row["overhead"],
                cached=False,
            )

    aggregate = spec.aggregate or default_aggregators(spec.kind)
    tables = [AGGREGATORS[name](spec, outcome) for name in aggregate]

    cached_cells = sum(1 for c in cells_meta if c.get("cached"))
    telemetry.emit(
        "suite.done",
        suite=spec.name,
        cells=len(cells_meta),
        cached=cached_cells,
    )
    return SuiteReport(
        name=spec.name,
        kind=spec.kind,
        title=spec.title,
        spec=spec.to_dict(),
        cells=cells_meta,
        tables=tables,
        meta={
            "num_cells": len(cells_meta),
            "cached_cells": cached_cells,
            "aggregators": list(aggregate),
        },
    )


__all__ = [
    "FRAMEWORK_REGISTRY",
    "build_frameworks",
    "cell_plan",
    "deployment_cells",
    "run_suite",
]
