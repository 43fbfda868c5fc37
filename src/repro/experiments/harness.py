"""Shared experiment machinery.

The deployment experiments all follow one pattern: build a workload,
build a network, run every framework, record overhead / execution time
/ occupied switches, and (for the end-to-end experiments) translate the
measured overhead into FCT and goodput impact through the flow
simulator.  This module centralizes that pattern so each experiment
module only describes its sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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
from repro.baselines.base import DeploymentFramework, FrameworkResult
from repro.dataplane.program import Program
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentError
from repro.simulation.engine import get_engine, overhead_impact
from repro.simulation.flow import MIN_PAYLOAD_BYTES  # noqa: F401  (compat)
from repro.simulation.spec import (  # noqa: F401  (re-exported)
    E2E_HOPS,
    E2E_MESSAGE_BYTES,
    SimulationSpec,
    TrafficModel,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.runner.executor import ExperimentRunner


@dataclass
class DeploymentRecord:
    """One framework's outcome on one deployment problem."""

    framework: str
    overhead_bytes: int
    solve_time_s: float
    timed_out: bool
    occupied_switches: int
    fct_ratio: float = 1.0
    goodput_ratio: float = 1.0
    #: Plan-aware end-to-end metrics: the same normalization evaluated
    #: over the plan's *actual* routed pairs (per-pair hop chains,
    #: per-pair overhead bytes) instead of the scalar-A_max uniform
    #: path.  Equal to the scalar ratios when the plan carries no
    #: routing (or no coordinating pairs worse than A_max).
    plan_fct_ratio: float = 1.0
    plan_goodput_ratio: float = 1.0

    @property
    def solve_time_ms(self) -> float:
        return self.solve_time_s * 1000.0

    @property
    def reported_time_ms(self) -> float:
        """Execution time as the paper plots it: timed-out ILP runs are
        rendered as the off-scale 10^7 ms bar."""
        return 1e7 if self.timed_out else self.solve_time_ms

    def deterministic_fields(self) -> Dict[str, object]:
        """The fields a re-run must reproduce bit-identically.

        ``solve_time_s`` is wall-clock and varies between runs, so the
        parity guarantees (serial vs. parallel vs. cache-warm) are
        stated over everything else.
        """
        return {
            "framework": self.framework,
            "overhead_bytes": self.overhead_bytes,
            "timed_out": self.timed_out,
            "occupied_switches": self.occupied_switches,
            "fct_ratio": self.fct_ratio,
            "goodput_ratio": self.goodput_ratio,
            "plan_fct_ratio": self.plan_fct_ratio,
            "plan_goodput_ratio": self.plan_goodput_ratio,
        }


def default_frameworks(
    ilp_time_limit_s: float = 10.0,
    per_program_ilp_time_limit_s: float = 1.0,
    include_optimal: bool = True,
) -> List[DeploymentFramework]:
    """The paper's comparison set, in figure order."""
    frameworks: List[DeploymentFramework] = [
        MinStage(time_limit_s=per_program_ilp_time_limit_s),
        Sonata(time_limit_s=per_program_ilp_time_limit_s),
        Speed(time_limit_s=ilp_time_limit_s),
        Mtp(time_limit_s=ilp_time_limit_s),
        Flightplan(time_limit_s=ilp_time_limit_s),
        P4All(time_limit_s=ilp_time_limit_s),
        Ffl(),
        Ffls(),
        HermesHeuristic(),
    ]
    if include_optimal:
        frameworks.append(HermesOptimal(time_limit_s=ilp_time_limit_s))
    return frameworks


def end_to_end_impact(
    overhead_bytes: int,
    packet_payload_bytes: int = 1024,
    hops: int = E2E_HOPS,
    message_bytes: int = E2E_MESSAGE_BYTES,
) -> Tuple[float, float]:
    """Translate a per-packet overhead into (fct_ratio, goodput_ratio).

    Both flows (with and without metadata) are pushed through the same
    store-and-forward path; ratios are relative to the zero-overhead
    baseline, exactly like Fig. 2's normalization.

    Now a thin wrapper over the spec+engine pipeline
    (:func:`repro.simulation.engine.overhead_impact`); the
    differential tests pin it bit-for-bit to the legacy
    hand-built-flow implementation.
    """
    return overhead_impact(
        overhead_bytes,
        packet_payload_bytes=packet_payload_bytes,
        hops=hops,
        message_bytes=message_bytes,
    )


def plan_end_to_end_impact(
    plan,
    network: Network,
    packet_payload_bytes: int = 1024,
    engine: str = "analytic",
) -> Tuple[float, float]:
    """Plan-aware (fct_ratio, goodput_ratio): worst pair over the
    plan's real routed hop chains and per-pair overhead bytes.

    Falls back to the scalar :func:`end_to_end_impact` of the plan's
    ``A_max`` when the plan carries no routing for a coordinating pair
    (legacy plans deserialized from old caches).
    """
    try:
        spec = SimulationSpec.from_plan(
            plan,
            network,
            traffic=TrafficModel(
                packet_payload_bytes=packet_payload_bytes
            ),
        )
    except DeploymentError:
        return end_to_end_impact(
            plan.max_metadata_bytes(), packet_payload_bytes
        )
    result = get_engine(engine).evaluate(spec)
    return result.fct_ratio, result.goodput_ratio


def run_single_deployment(
    programs: Sequence[Program],
    network: Network,
    framework: DeploymentFramework,
    packet_payload_bytes: int = 1024,
    with_end_to_end: bool = True,
    paths: Optional[PathEnumerator] = None,
    return_plan: bool = False,
):
    """Run one framework on one deployment problem.

    This is the unit of work the parallel runner fans out: everything a
    :class:`DeploymentRecord` needs, independent of every other
    (framework x problem) cell.

    With ``return_plan=True`` the return value is a ``(record,
    plan_document)`` pair, where the plan document is the canonical
    serialization from :meth:`repro.plan.DeploymentPlan.to_dict` — what
    the runner stores alongside the record in its result cache.
    """
    result: FrameworkResult = framework.deploy(programs, network, paths)
    fct_ratio, goodput_ratio = 1.0, 1.0
    plan_fct_ratio, plan_goodput_ratio = 1.0, 1.0
    if with_end_to_end:
        fct_ratio, goodput_ratio = end_to_end_impact(
            result.overhead_bytes, packet_payload_bytes
        )
        plan_fct_ratio, plan_goodput_ratio = plan_end_to_end_impact(
            result.plan, network, packet_payload_bytes
        )
    record = DeploymentRecord(
        framework=framework.name,
        overhead_bytes=result.overhead_bytes,
        solve_time_s=result.solve_time_s,
        timed_out=result.timed_out,
        occupied_switches=result.plan.num_occupied_switches(),
        fct_ratio=fct_ratio,
        goodput_ratio=goodput_ratio,
        plan_fct_ratio=plan_fct_ratio,
        plan_goodput_ratio=plan_goodput_ratio,
    )
    if return_plan:
        return record, result.plan.to_dict()
    return record


def run_deployment_suite(
    programs: Sequence[Program],
    network: Network,
    frameworks: Optional[Sequence[DeploymentFramework]] = None,
    packet_payload_bytes: int = 1024,
    with_end_to_end: bool = True,
    runner: Optional["ExperimentRunner"] = None,
) -> Dict[str, DeploymentRecord]:
    """Run every framework on one deployment problem.

    Returns framework name -> :class:`DeploymentRecord`.  Without a
    ``runner`` the frameworks run serially in-process, sharing one
    :class:`PathEnumerator` so path caching amortizes.  With a
    :class:`~repro.experiments.runner.ExperimentRunner` the
    (framework x problem) cells fan out across its worker pool and its
    result cache / journal apply; results are identical either way (up
    to wall-clock timings).
    """
    frameworks = (
        list(frameworks) if frameworks is not None else default_frameworks()
    )
    if runner is not None:
        from repro.experiments.runner.executor import Cell

        results = runner.run_cells(
            [
                Cell(
                    programs=tuple(programs),
                    network=network,
                    framework=framework,
                    packet_payload_bytes=packet_payload_bytes,
                    with_end_to_end=with_end_to_end,
                )
                for framework in frameworks
            ]
        )
        return {res.cell.framework.name: res.record for res in results}
    paths = PathEnumerator(network)
    records: Dict[str, DeploymentRecord] = {}
    for framework in frameworks:
        records[framework.name] = run_single_deployment(
            programs,
            network,
            framework,
            packet_payload_bytes=packet_payload_bytes,
            with_end_to_end=with_end_to_end,
            paths=paths,
        )
    return records
