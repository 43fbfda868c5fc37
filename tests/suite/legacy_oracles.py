"""Verbatim pre-refactor copies of the exp1-exp7/fig2 pipelines.

The suite-compiler refactor (Issue 10) turned each experiment module
into a thin ``repro.suite/v1`` spec plus an aggregator; this module
freezes the *original* cell-building loops and table rendering exactly
as they stood before the refactor, so ``test_golden_suites.py`` can
require the refactored path to be byte-identical.  Nothing here may
track the refactor: it is the oracle, copied, not imported.

Import as a plain module (``from legacy_oracles import ...``); it
deliberately contains no tests of its own.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.experiments.harness import default_frameworks
from repro.experiments.reporting import Table
from repro.network.generators import linear_topology
from repro.network.topozoo import topology_zoo_wan
from repro.runtime.report import DisruptionReport
from repro.workloads.switchp4 import real_programs
from repro.workloads.synthetic import synthetic_programs

# ----------------------------------------------------------------------
# Exp#1 (Fig. 5) — pre-refactor exp1_testbed.run/_pivot/main
# ----------------------------------------------------------------------

EXP1_PROGRAM_COUNTS = (2, 4, 6, 8, 10)


def exp1_testbed_network():
    return linear_topology(3, programmable=True, link_latency_ms=0.001)


def exp1_cells(
    program_counts: Sequence[int] = EXP1_PROGRAM_COUNTS,
    frameworks=None,
    packet_payload_bytes: int = 1024,
):
    """The original Exp#1 cell-building loop (count -> framework)."""
    from repro.experiments.runner import Cell

    cells: List[Cell] = []
    for count in program_counts:
        programs = tuple(real_programs(count))
        network = exp1_testbed_network()
        sweep_frameworks = (
            list(frameworks)
            if frameworks is not None
            else default_frameworks(
                ilp_time_limit_s=20.0, per_program_ilp_time_limit_s=2.0
            )
        )
        for framework in sweep_frameworks:
            cells.append(
                Cell(
                    programs=programs,
                    network=network,
                    framework=framework,
                    packet_payload_bytes=packet_payload_bytes,
                    tag=count,
                )
            )
    return cells


def exp1_run(
    program_counts: Sequence[int] = EXP1_PROGRAM_COUNTS,
    frameworks=None,
    packet_payload_bytes: int = 1024,
    runner=None,
) -> List[Tuple[int, Any]]:
    """(num_programs, record) points, original execution order."""
    from repro.experiments.runner import execute_cells

    cells = exp1_cells(program_counts, frameworks, packet_payload_bytes)
    return [
        (res.cell.tag, res.record) for res in execute_cells(cells, runner)
    ]


def _count_pivot(
    points: List[Tuple[int, Any]], attr: str, title: str
) -> Table:
    """The original exp1/exp5 count-keyed pivot (headers ``n=c``)."""
    counts = sorted({count for count, _ in points})
    names: List[str] = []
    for _, record in points:
        if record.framework not in names:
            names.append(record.framework)
    table = Table(title, ["framework"] + [f"n={c}" for c in counts])
    for name in names:
        row: List = [name]
        for count in counts:
            cell = next(
                record
                for c, record in points
                if record.framework == name and c == count
            )
            row.append(getattr(cell, attr))
        table.add_row(row)
    return table


def exp1_render(points: List[Tuple[int, Any]]) -> str:
    """The original exp1 main() output (six Fig. 5 tables)."""
    out = [
        _count_pivot(
            points, "overhead_bytes", "Fig. 5(a): per-packet byte overhead (B)"
        ),
        _count_pivot(
            points,
            "reported_time_ms",
            "Fig. 5(b): execution time (ms; 1e7 = exceeded limit)",
        ),
        _count_pivot(points, "fct_ratio", "Fig. 5(c): normalized FCT"),
        _count_pivot(points, "goodput_ratio", "Fig. 5(d): normalized goodput"),
        _count_pivot(
            points,
            "plan_fct_ratio",
            "Fig. 5(c'): plan-aware normalized FCT (routed pairs)",
        ),
        _count_pivot(
            points,
            "plan_goodput_ratio",
            "Fig. 5(d'): plan-aware normalized goodput (routed pairs)",
        ),
    ]
    return "\n\n".join(t.render() for t in out)


# ----------------------------------------------------------------------
# Exp#2/3/4 (Figs. 6-8) — pre-refactor exp2_overhead pipeline
# ----------------------------------------------------------------------

EXP2_NUM_PROGRAMS = 50


def exp2_workload(num_programs: int = EXP2_NUM_PROGRAMS, seed: int = 7):
    reals = real_programs(min(num_programs, 10))
    remainder = max(num_programs - len(reals), 0)
    return reals + synthetic_programs(remainder, seed=seed)


def exp2_cells(
    topology_ids: Sequence[int],
    num_programs: int = EXP2_NUM_PROGRAMS,
    frameworks=None,
    seed: int = 7,
    ilp_time_limit_s: float = 10.0,
):
    """The original Exp#2 cell loop (topology -> framework)."""
    from repro.experiments.runner import Cell

    programs = tuple(exp2_workload(num_programs, seed))
    cells: List[Cell] = []
    for topology_id in topology_ids:
        network = topology_zoo_wan(topology_id)
        sweep_frameworks = (
            list(frameworks)
            if frameworks is not None
            else default_frameworks(
                ilp_time_limit_s=ilp_time_limit_s,
                per_program_ilp_time_limit_s=max(
                    ilp_time_limit_s / 20.0, 0.2
                ),
            )
        )
        for framework in sweep_frameworks:
            cells.append(
                Cell(
                    programs=programs,
                    network=network,
                    framework=framework,
                    tag=topology_id,
                )
            )
    return cells


def exp2_run(
    topology_ids: Sequence[int],
    num_programs: int = EXP2_NUM_PROGRAMS,
    frameworks=None,
    seed: int = 7,
    runner=None,
) -> List[Tuple[int, Any]]:
    from repro.experiments.runner import execute_cells

    cells = exp2_cells(topology_ids, num_programs, frameworks, seed)
    return [
        (res.cell.tag, res.record) for res in execute_cells(cells, runner)
    ]


def _topo_pivot(
    points: List[Tuple[int, Any]], attr: str, title: str
) -> Table:
    """The original exp2 pivot (headers ``topoN``)."""
    ids = sorted({tid for tid, _ in points})
    names: List[str] = []
    for _, record in points:
        if record.framework not in names:
            names.append(record.framework)
    table = Table(title, ["framework"] + [f"topo{t}" for t in ids])
    for name in names:
        row: List = [name]
        for topology_id in ids:
            record = next(
                rec
                for tid, rec in points
                if rec.framework == name and tid == topology_id
            )
            row.append(getattr(record, attr))
        table.add_row(row)
    return table


def exp2_render(points: List[Tuple[int, Any]]) -> str:
    return _topo_pivot(
        points, "overhead_bytes", "Fig. 6: per-packet byte overhead (B)"
    ).render()


def exp3_render(points: List[Tuple[int, Any]]) -> str:
    return _topo_pivot(
        points,
        "reported_time_ms",
        "Fig. 7: execution time (ms; 1e7 = exceeded limit)",
    ).render()


def exp4_render(points: List[Tuple[int, Any]]) -> str:
    tables = [
        _topo_pivot(
            points, "fct_ratio", "Fig. 8(a): normalized FCT (1024B packets)"
        ),
        _topo_pivot(
            points,
            "goodput_ratio",
            "Fig. 8(b): normalized goodput (1024B packets)",
        ),
        _topo_pivot(
            points,
            "plan_fct_ratio",
            "Fig. 8(a'): plan-aware normalized FCT (routed pairs)",
        ),
        _topo_pivot(
            points,
            "plan_goodput_ratio",
            "Fig. 8(b'): plan-aware normalized goodput (routed pairs)",
        ),
    ]
    return "\n\n".join(t.render() for t in tables)


# ----------------------------------------------------------------------
# Exp#5 (Fig. 9) — pre-refactor exp5_scalability pipeline
# ----------------------------------------------------------------------

EXP5_TOPOLOGY_ID = 10


def exp5_cells(
    program_counts: Sequence[int],
    topology_id: int = EXP5_TOPOLOGY_ID,
    frameworks=None,
    seed: int = 7,
    ilp_time_limit_s: float = 10.0,
):
    """The original Exp#5 cell loop (count -> framework)."""
    from repro.experiments.runner import Cell

    cells: List[Cell] = []
    for count in program_counts:
        programs = tuple(exp2_workload(count, seed))
        network = topology_zoo_wan(topology_id)
        sweep_frameworks = (
            list(frameworks)
            if frameworks is not None
            else default_frameworks(
                ilp_time_limit_s=ilp_time_limit_s,
                per_program_ilp_time_limit_s=max(
                    ilp_time_limit_s / 20.0, 0.2
                ),
            )
        )
        for framework in sweep_frameworks:
            cells.append(
                Cell(
                    programs=programs,
                    network=network,
                    framework=framework,
                    tag=count,
                )
            )
    return cells


def exp5_run(
    program_counts: Sequence[int],
    topology_id: int = EXP5_TOPOLOGY_ID,
    frameworks=None,
    seed: int = 7,
    runner=None,
) -> List[Tuple[int, Any]]:
    from repro.experiments.runner import execute_cells

    cells = exp5_cells(program_counts, topology_id, frameworks, seed)
    return [
        (res.cell.tag, res.record) for res in execute_cells(cells, runner)
    ]


def exp5_render(points: List[Tuple[int, Any]]) -> str:
    tables = [
        _count_pivot(
            points, "overhead_bytes", "Fig. 9(a): per-packet byte overhead (B)"
        ),
        _count_pivot(
            points,
            "reported_time_ms",
            "Fig. 9(b): execution time (ms; 1e7 = exceeded limit)",
        ),
        _count_pivot(points, "fct_ratio", "Fig. 9(c): normalized FCT"),
        _count_pivot(points, "goodput_ratio", "Fig. 9(d): normalized goodput"),
        _count_pivot(
            points,
            "plan_fct_ratio",
            "Fig. 9(c'): plan-aware normalized FCT (routed pairs)",
        ),
        _count_pivot(
            points,
            "plan_goodput_ratio",
            "Fig. 9(d'): plan-aware normalized goodput (routed pairs)",
        ),
    ]
    return "\n\n".join(t.render() for t in tables)


# ----------------------------------------------------------------------
# Exp#6 — pre-refactor exp6_resources pipeline
# ----------------------------------------------------------------------


def exp6_rows(num_sketches: int = 10, frameworks=None):
    """The original Exp#6 run(): ground-truth row + one per framework."""
    from repro.baselines import HermesHeuristic, Speed
    from repro.workloads.sketches import sketch_programs

    programs = tuple(sketch_programs(num_sketches))
    network = linear_topology(3, link_latency_ms=0.001)
    truth = sum(p.total_resource_demand for p in programs)

    rows = [
        (
            "standalone (ground truth)",
            truth,
            sum(len(p) for p in programs),
            0.0,
        )
    ]
    frameworks = frameworks or [Speed(time_limit_s=20.0), HermesHeuristic()]
    for framework in frameworks:
        result = framework.deploy(list(programs), network)
        total = sum(mat.resource_demand for mat in result.tdg.mats)
        rows.append(
            (framework.name, total, len(result.tdg), total - truth)
        )
    return rows


def exp6_render(rows) -> str:
    table = Table(
        "Exp#6: switch resource consumption (normalized stage units)",
        ["strategy", "stage units", "MATs", "extra vs ground truth"],
    )
    for row in rows:
        table.add_row(list(row))
    return table.render()


# ----------------------------------------------------------------------
# Exp#7 — pre-refactor exp7_churn pipeline
# ----------------------------------------------------------------------

EXP7_NUM_EVENTS = 8
EXP7_WORKLOAD_SPEC = "real:10"


def exp7_topology_spec_for(seed: int) -> str:
    return f"wan:16:24:{seed + 1}"


def exp7_make_scenario(
    seed: int,
    num_events: int = EXP7_NUM_EVENTS,
    workload_spec: str = EXP7_WORKLOAD_SPEC,
):
    from repro.cli import parse_topology
    from repro.runtime import generate_scenario

    topology_spec = exp7_topology_spec_for(seed)
    network = parse_topology(topology_spec)
    return generate_scenario(
        network,
        num_events=num_events,
        seed=seed,
        workload_spec=workload_spec,
        topology_spec=topology_spec,
        name=f"exp7-seed{seed}",
    )


def exp7_replay(doc: Dict[str, Any]) -> Dict[str, Any]:
    from repro.cli import parse_topology, parse_workload
    from repro.runtime import Reconciler, Scenario, seed_rules
    from repro.telemetry import Recorder, attached

    scenario = Scenario.from_dict(doc)
    programs = parse_workload(scenario.workload_spec)
    network = parse_topology(scenario.topology_spec)
    recorder = Recorder()
    with attached(recorder):
        result = Reconciler(
            programs, network, prepare_fn=seed_rules
        ).run(scenario)
    return {
        "report": result.report().to_dict(),
        "events": recorder.events,
    }


def exp7_run(
    seeds: Sequence[int],
    num_events: int = EXP7_NUM_EVENTS,
    workload_spec: str = EXP7_WORKLOAD_SPEC,
):
    """(seed, topology_spec, report, workload_spec) points, serially."""
    scenarios = [
        exp7_make_scenario(seed, num_events, workload_spec)
        for seed in seeds
    ]
    outputs = [exp7_replay(s.to_dict()) for s in scenarios]
    return [
        (
            scenario.seed,
            scenario.topology_spec,
            DisruptionReport.from_dict(output["report"]),
            scenario.workload_spec,
        )
        for scenario, output in zip(scenarios, outputs)
    ]


def exp7_render(points) -> str:
    events = points[0][2].num_events if points else EXP7_NUM_EVENTS
    workload = points[0][3] if points else EXP7_WORKLOAD_SPEC
    out = Table(
        title="Exp#7: disruption under churn "
        f"({workload} workload, {events} events/scenario)",
        headers=[
            "seed", "topology", "batches", "conv", "forced", "opt",
            "rules", "degraded", "improved", "peak transient (B)",
            "mean conv (ms)", "digest",
        ],
    )
    for seed, topology_spec, r, _workload in points:
        out.add_row(
            [
                seed,
                topology_spec,
                r.num_batches,
                r.num_converged,
                r.forced_moves,
                r.optimization_moves,
                r.rules_replayed,
                r.degraded_batches,
                r.improved_batches,
                r.peak_transient_amax_bytes,
                f"{r.mean_convergence_s * 1e3:.1f}",
                r.history_digest[:12],
            ]
        )
    return out.render()


# ----------------------------------------------------------------------
# Fig. 2 — pre-refactor fig2_motivation pipeline
# ----------------------------------------------------------------------

FIG2_OVERHEAD_SWEEP = (28, 48, 68, 88, 108)
FIG2_PACKET_SIZES = (512, 1024, 1500)


def fig2_rows(
    overheads: Sequence[int] = FIG2_OVERHEAD_SWEEP,
    packet_sizes: Sequence[int] = FIG2_PACKET_SIZES,
    message_bytes: int = 1_000_000,
    hops: int = 5,
    use_des: bool = False,
):
    """(packet_size, overhead, fct_ratio, goodput_ratio) rows."""
    from repro.simulation.engine import get_engine
    from repro.simulation.packet import BASE_HEADER_BYTES
    from repro.simulation.spec import SimulationSpec

    rows = []
    for packet_size in packet_sizes:
        payload = max(packet_size - BASE_HEADER_BYTES, 1)
        spec = SimulationSpec.uniform_sweep(
            tuple(overheads),
            packet_payload_bytes=payload,
            hops=hops,
            message_bytes=message_bytes,
        )
        result = get_engine(
            "exact" if use_des else "analytic"
        ).evaluate(spec)
        rows.extend(
            (
                packet_size,
                overhead,
                result.fct_ratios[i],
                result.goodput_ratios[i],
            )
            for i, overhead in enumerate(overheads)
        )
    return rows


def fig2_render(
    rows,
    overheads: Sequence[int] = FIG2_OVERHEAD_SWEEP,
    packet_sizes: Sequence[int] = FIG2_PACKET_SIZES,
) -> str:
    fct = Table(
        "Fig. 2(a): normalized FCT vs per-packet overhead",
        ["overhead(B)"] + [f"{s}B pkts" for s in packet_sizes],
    )
    goodput = Table(
        "Fig. 2(b): normalized goodput vs per-packet overhead",
        ["overhead(B)"] + [f"{s}B pkts" for s in packet_sizes],
    )
    for overhead in overheads:
        per_size = sorted(
            (r for r in rows if r[1] == overhead), key=lambda r: r[0]
        )
        fct.add_row([overhead] + [r[2] for r in per_size])
        goodput.add_row([overhead] + [r[3] for r in per_size])
    return fct.render() + "\n\n" + goodput.render()
