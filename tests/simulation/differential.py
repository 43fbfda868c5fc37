"""Reusable differential-testing harness for engine pairs.

Every simulation engine added to :mod:`repro.simulation.engine` makes
the same promise: on a shared :class:`SimulationSpec` its per-flow
columns agree with a reference engine within a documented tolerance.
This module turns that promise into a first-class object — a
:class:`ToleranceContract` compared column by column — so each new
engine states its contract once and every (engine, reference,
topology, seed) cell reuses the same machinery.  First consumer: the
contention engine vs the exact DES at contention-free loads
(``tests/simulation/test_engine_differential.py``); the batch engine
vs the per-flow loop oracle rides the same harness, with a zero
tolerance, as a self-check.

Import it as a plain module (``from tests.simulation.differential
import ...``); it deliberately contains no tests of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.simulation.engine import Engine, SimulationResult, get_engine
from repro.simulation.netsim import HopSpec, uniform_path
from repro.simulation.spec import SimulationSpec
from repro.simulation.traces import TraceConfig, generate_trace

EngineLike = Union[str, Engine]


@dataclass(frozen=True)
class ToleranceContract:
    """Per-column agreement bounds between two engines.

    ``fct_rel``/``goodput_rel`` bound the relative delta of the float
    columns (measured and baseline twins alike); ``packets_exact`` /
    ``wire_exact`` require the integer columns to be bit-identical.
    The defaults are the 1e-6 contract the contention engine
    documents against the exact DES.
    """

    fct_rel: float = 1e-6
    goodput_rel: float = 1e-6
    packets_exact: bool = True
    wire_exact: bool = True

    def relaxed(self, **changes) -> "ToleranceContract":
        """A copy with some bounds overridden (for lossy engines)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ColumnDelta:
    """Agreement of one column: worst delta, where, and the verdict."""

    column: str
    max_delta: float  # relative for float columns, #mismatches for int
    worst_flow: int
    bound: float
    ok: bool

    def __str__(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        return (
            f"{self.column}: max delta {self.max_delta:.3e} "
            f"(flow {self.worst_flow}, bound {self.bound:.1e}) "
            f"[{verdict}]"
        )


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of comparing one engine pair on one spec."""

    engine_a: str
    engine_b: str
    source: str
    num_flows: int
    columns: Tuple[ColumnDelta, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.columns)

    @property
    def failures(self) -> Tuple[ColumnDelta, ...]:
        return tuple(c for c in self.columns if not c.ok)

    def summary(self) -> str:
        lines = [
            f"{self.engine_a} vs {self.engine_b} on {self.source!r} "
            f"({self.num_flows} flows): "
            f"{'AGREE' if self.ok else 'DISAGREE'}"
        ]
        lines += [f"  {c}" for c in self.columns]
        return "\n".join(lines)


def _float_delta(
    name: str, a: Sequence[float], b: Sequence[float], bound: float
) -> ColumnDelta:
    worst, worst_flow = 0.0, -1
    for i, (x, y) in enumerate(zip(a, b)):
        delta = abs(y - x) / abs(x) if x else abs(y - x)
        if delta > worst:
            worst, worst_flow = delta, i
    return ColumnDelta(name, worst, worst_flow, bound, worst <= bound)


def _exact_delta(
    name: str, a: Sequence[int], b: Sequence[int], required: bool
) -> ColumnDelta:
    mismatches = sum(1 for x, y in zip(a, b) if x != y)
    worst_flow = next(
        (i for i, (x, y) in enumerate(zip(a, b)) if x != y), -1
    )
    return ColumnDelta(
        name,
        float(mismatches),
        worst_flow,
        0.0,
        (mismatches == 0) or not required,
    )


def compare(
    engine_a: EngineLike,
    engine_b: EngineLike,
    spec: SimulationSpec,
    contract: ToleranceContract = ToleranceContract(),
) -> DifferentialReport:
    """Evaluate both engines on ``spec`` and diff every column.

    ``engine_a`` is the reference; relative deltas are measured
    against its values.
    """
    ref = get_engine(engine_a)
    cand = get_engine(engine_b)
    a = ref.evaluate(spec)
    b = cand.evaluate(spec)
    return compare_results(a, b, contract)


def compare_results(
    a: SimulationResult,
    b: SimulationResult,
    contract: ToleranceContract = ToleranceContract(),
) -> DifferentialReport:
    """Diff two already-computed results (reference first)."""
    columns = (
        _float_delta("fct_us", a.fct_us, b.fct_us, contract.fct_rel),
        _float_delta(
            "baseline_fct_us",
            a.baseline_fct_us,
            b.baseline_fct_us,
            contract.fct_rel,
        ),
        _float_delta(
            "goodput_gbps",
            a.goodput_gbps,
            b.goodput_gbps,
            contract.goodput_rel,
        ),
        _float_delta(
            "baseline_goodput_gbps",
            a.baseline_goodput_gbps,
            b.baseline_goodput_gbps,
            contract.goodput_rel,
        ),
        _exact_delta(
            "num_packets", a.num_packets, b.num_packets,
            contract.packets_exact,
        ),
        _exact_delta(
            "wire_bytes", a.wire_bytes, b.wire_bytes,
            contract.wire_exact,
        ),
    )
    return DifferentialReport(
        engine_a=a.engine,
        engine_b=b.engine,
        source=a.source,
        num_flows=a.num_flows,
        columns=columns,
    )


def assert_agreement(
    engine_a: EngineLike,
    engine_b: EngineLike,
    spec: SimulationSpec,
    contract: ToleranceContract = ToleranceContract(),
) -> DifferentialReport:
    """:func:`compare`, raising ``AssertionError`` with the summary."""
    report = compare(engine_a, engine_b, spec, contract)
    assert report.ok, report.summary()
    return report


# ----------------------------------------------------------------------
# Shared spec matrix: the topology x seed grid every differential
# suite sweeps.  Message sizes are capped so the per-packet exact DES
# stays tractable as the reference.
# ----------------------------------------------------------------------

#: Topology labels the grid produces — three genuinely different hop
#: structures: the paper's uniform DCN path, a rate/latency-mixed WAN
#: chain, and real routed paths from a deployed plan.
TOPOLOGIES = ("uniform5", "hetero", "wan-plan")


def _hetero_path(seed: int) -> List[HopSpec]:
    """A seeded path mixing line rates and latencies (3-6 hops)."""
    import random

    rng = random.Random(seed * 7919 + 13)
    return [
        HopSpec(
            rate_gbps=rng.choice((10.0, 25.0, 40.0, 100.0)),
            latency_us=round(rng.uniform(0.5, 50.0), 3),
        )
        for _ in range(rng.randint(3, 6))
    ]


def spec_grid(
    seeds: Iterable[int],
    topologies: Sequence[str] = TOPOLOGIES,
    num_flows: int = 40,
    overhead_bytes: int = 96,
    max_bytes: int = 128 * 1024,
    offered_load: Optional[float] = None,
) -> List[Tuple[str, SimulationSpec]]:
    """The (topology x seed) differential matrix as labelled specs.

    Flow sizes follow the usual heavy-tailed trace model with the tail
    capped at ``max_bytes`` so the exact DES reference finishes in
    test time.  ``offered_load`` stamps the spec's traffic model so
    contention evaluations pick the load up without engine flags.
    """
    cells: List[Tuple[str, SimulationSpec]] = []
    for seed in seeds:
        trace = generate_trace(
            seed,
            TraceConfig(
                num_flows=num_flows,
                tail_min_bytes=max_bytes // 2,
                max_bytes=max_bytes,
            ),
        )
        for topology in topologies:
            if topology == "uniform5":
                spec = SimulationSpec.from_trace(
                    trace, uniform_path(5), overhead_bytes
                )
            elif topology == "hetero":
                spec = SimulationSpec.from_trace(
                    trace, _hetero_path(seed), overhead_bytes
                )
            elif topology == "wan-plan":
                spec = _wan_plan_spec(seed, trace)
            else:  # pragma: no cover - caller typo guard
                raise ValueError(f"unknown grid topology {topology!r}")
            if offered_load is not None:
                spec = replace(
                    spec,
                    traffic=replace(
                        spec.traffic, offered_load=offered_load
                    ),
                )
            cells.append((f"{topology}/seed{seed}", spec))
    return cells


def _wan_plan_spec(seed: int, trace) -> SimulationSpec:
    """Real routed pairs: an FFL deployment over a seeded random WAN."""
    from repro.baselines import Ffl
    from repro.network.generators import random_wan
    from repro.workloads import real_programs

    network = random_wan(10, 16, seed=seed)
    plan = Ffl().deploy(real_programs(6), network).plan
    return SimulationSpec.from_plan(plan, network, trace=trace)
