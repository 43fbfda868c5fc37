"""Synthetic DCN flow traces.

Fig. 2 measures one flow at a time.  Real data-center traffic is a mix
of many mice and few elephants (heavy-tailed flow sizes — the paper's
own 512-byte packet choice follows the Facebook DCN study it cites), so
the *aggregate* cost of per-packet overhead depends on the size
distribution: small flows pay the per-packet tax on every one of their
few packets, elephants amortize propagation but not serialization.

This module generates seeded flow traces with the standard empirical
shape (log-normal body, Pareto tail, Poisson arrivals) and evaluates a
whole trace under a given byte overhead — the trace-weighted companion
to :func:`repro.simulation.engine.overhead_impact`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.simulation.netsim import HopSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import Engine


@dataclass(frozen=True)
class TraceFlow:
    """One flow of a trace."""

    flow_id: int
    arrival_us: float
    message_bytes: int


@dataclass(frozen=True)
class TraceConfig:
    """Flow-size / arrival model knobs.

    Defaults approximate published DCN measurements: median flow around
    a few kilobytes, a Pareto tail supplying the elephants, arrivals
    Poisson at ``flows_per_second``.
    """

    num_flows: int = 1000
    median_bytes: int = 4 * 1024
    sigma: float = 1.5  # log-normal shape of the body
    tail_probability: float = 0.05
    tail_alpha: float = 1.3  # Pareto tail exponent
    tail_min_bytes: int = 1 * 1024 * 1024
    max_bytes: int = 100 * 1024 * 1024
    flows_per_second: float = 2000.0

    def __post_init__(self) -> None:
        if self.num_flows <= 0:
            raise ValueError("num_flows must be positive")
        if not 0.0 <= self.tail_probability <= 1.0:
            raise ValueError("tail_probability must be in [0, 1]")
        if self.tail_alpha <= 1.0:
            raise ValueError("tail_alpha must exceed 1 (finite mean)")
        if self.flows_per_second <= 0:
            raise ValueError("flows_per_second must be positive")


def generate_trace(seed: int, config: TraceConfig = TraceConfig()) -> List[TraceFlow]:
    """A seeded flow trace (deterministic per seed)."""
    rng = random.Random(seed)
    mu = math.log(config.median_bytes)
    flows: List[TraceFlow] = []
    clock_us = 0.0
    for flow_id in range(config.num_flows):
        clock_us += rng.expovariate(config.flows_per_second) * 1e6
        if rng.random() < config.tail_probability:
            size = int(config.tail_min_bytes * rng.paretovariate(config.tail_alpha))
        else:
            size = int(rng.lognormvariate(mu, config.sigma))
        size = max(64, min(size, config.max_bytes))
        flows.append(TraceFlow(flow_id, clock_us, size))
    return flows


@dataclass(frozen=True)
class TraceMetrics:
    """Aggregate outcome of a trace under one overhead setting.

    Attributes:
        mean_fct_us / p99_fct_us: FCT statistics over the trace.
        mean_slowdown: Mean per-flow FCT ratio against zero overhead —
            the "small flows pay more" statistic.
        total_wire_bytes: Bytes serialized per hop for the whole trace.
    """

    mean_fct_us: float
    p99_fct_us: float
    mean_slowdown: float
    total_wire_bytes: int


def evaluate_trace(
    trace: Sequence[TraceFlow],
    path: Sequence[HopSpec],
    overhead_bytes: int,
    packet_payload_bytes: int = 1024,
    engine: Optional[Union[str, "Engine"]] = None,
) -> TraceMetrics:
    """Evaluate every flow of a trace under an overhead setting.

    Flows are evaluated independently (the model assumes an
    uncongested path; queueing interactions are out of scope, as in
    the paper's own testbed methodology of one flow at a time).

    A thin wrapper building a :class:`SimulationSpec` and dispatching
    it to the chosen engine (see
    :func:`~repro.simulation.engine.get_engine`: no name runs the
    ``batch`` closed form, ``"exact"`` the packet-level DES).
    """
    from repro.simulation.engine import get_engine
    from repro.simulation.spec import SimulationSpec

    spec = SimulationSpec.from_trace(
        trace, path, overhead_bytes, packet_payload_bytes
    )
    result = get_engine(engine).evaluate(spec)
    return TraceMetrics(
        mean_fct_us=result.mean_fct_us,
        p99_fct_us=result.p99_fct_us,
        mean_slowdown=result.mean_slowdown,
        total_wire_bytes=result.total_wire_bytes,
    )
