"""Evaluation engines for :class:`SimulationSpec`.

One spec, one engine per traffic model:

* :class:`ExactEngine` — the per-packet discrete-event
  :class:`~repro.simulation.netsim.FlowSimulator`; exact for short
  last packets and heterogeneous hops, and priced accordingly;
* :class:`BatchEngine` — the closed-form store-and-forward pipeline,
  vectorized with NumPy over whole traces (10^5–10^6 flows in one
  shot) in the per-flow float order, so every number it gives is the
  one the historical per-flow loop gave;
* :class:`~repro.simulation.contention.ContentionEngine` — the only
  engine where flows *interact*: per-path output-queue contention at
  a ``load`` utilization knob, vectorized to 10^6–10^7 flows, and
  differentially locked to the exact DES at contention-free loads
  (see :mod:`repro.simulation.contention`).

:func:`get_engine` is the one place an engine is chosen.  Every
evaluation emits a ``sim.evaluate`` telemetry event (engine chosen,
flows evaluated, wall time) so journals record which path produced
which numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro import telemetry
from repro.simulation.flow import MIN_PAYLOAD_BYTES
from repro.simulation.netsim import FlowSimulator
from repro.simulation.spec import (
    E2E_HOPS,
    E2E_MESSAGE_BYTES,
    SimulationSpec,
)


@dataclass
class SimulationResult:
    """Columnar outcome of evaluating one spec.

    Per-flow columns are index-aligned with ``spec.flows``.  Every
    measured flow is paired with a zero-overhead baseline twin on the
    same path, so normalized ratios (Fig. 2's y-axes) are available
    per flow and in aggregate.
    """

    engine: str
    source: str
    fct_us: List[float]
    goodput_gbps: List[float]
    num_packets: List[int]
    wire_bytes: List[int]
    baseline_fct_us: List[float]
    baseline_goodput_gbps: List[float]
    wall_s: float = 0.0
    #: Per-flow queueing wait (µs) folded into ``fct_us``; ``None`` for
    #: the contention-oblivious engines, all-zero at contention-free
    #: loads.  ``load`` records the offered bottleneck utilization the
    #: contention engine evaluated at (0.0 = flows were independent).
    wait_us: Optional[List[float]] = None
    load: float = 0.0
    _fct_ratios: List[float] = field(
        default=None, repr=False, compare=False
    )  # type: ignore[assignment]

    @property
    def num_flows(self) -> int:
        return len(self.fct_us)

    @property
    def fct_ratios(self) -> List[float]:
        """Per-flow FCT inflation against the zero-overhead twin."""
        if self._fct_ratios is None:
            self._fct_ratios = [
                m / b for m, b in zip(self.fct_us, self.baseline_fct_us)
            ]
        return self._fct_ratios

    @property
    def goodput_ratios(self) -> List[float]:
        return [
            m / b
            for m, b in zip(self.goodput_gbps, self.baseline_goodput_gbps)
        ]

    @property
    def fct_ratio(self) -> float:
        """Worst per-flow FCT inflation (pairs carry A_max semantics)."""
        return max(self.fct_ratios)

    @property
    def goodput_ratio(self) -> float:
        """Worst per-flow goodput retention."""
        return min(self.goodput_ratios)

    @property
    def mean_fct_us(self) -> float:
        return sum(self.fct_us) / len(self.fct_us)

    @property
    def p99_fct_us(self) -> float:
        ordered = sorted(self.fct_us)
        return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]

    @property
    def mean_slowdown(self) -> float:
        """Mean per-flow FCT ratio — the "small flows pay more" stat."""
        ratios = self.fct_ratios
        return sum(ratios) / len(ratios)

    @property
    def total_wire_bytes(self) -> int:
        return sum(self.wire_bytes)

    @property
    def mean_wait_us(self) -> float:
        """Mean queueing wait (0.0 for contention-oblivious engines)."""
        if not self.wait_us:
            return 0.0
        return sum(self.wait_us) / len(self.wait_us)

    @property
    def max_wait_us(self) -> float:
        if not self.wait_us:
            return 0.0
        return max(self.wait_us)

    @property
    def contended_fraction(self) -> float:
        """Fraction of flows that queued at all."""
        if not self.wait_us:
            return 0.0
        return sum(1 for w in self.wait_us if w > 0.0) / len(self.wait_us)


class Engine:
    """Evaluation strategy for a :class:`SimulationSpec`."""

    name = "abstract"

    def evaluate(self, spec: SimulationSpec) -> SimulationResult:
        """Evaluate the spec, with ``sim.evaluate`` telemetry."""
        start = time.perf_counter()
        result = self._evaluate(spec)
        result.wall_s = time.perf_counter() - start
        telemetry.emit(
            "sim.evaluate",
            engine=self.name,
            source=spec.source,
            flows=spec.num_flows,
            paths=len(spec.paths),
            wall_s=result.wall_s,
        )
        return result

    def _evaluate(self, spec: SimulationSpec) -> SimulationResult:
        raise NotImplementedError


class ExactEngine(Engine):
    """Per-packet discrete-event simulation of every flow."""

    name = "exact"

    def _evaluate(self, spec: SimulationSpec) -> SimulationResult:
        simulators = [FlowSimulator(path) for path in spec.paths]
        pairs = []
        for flow in spec.flows:
            sim = simulators[flow.path_id]
            baseline, measured = spec.flow_objects(flow)
            pairs.append((sim.run(measured), sim.run(baseline)))
        return SimulationResult(
            engine=self.name,
            source=spec.source,
            fct_us=[m.fct_us for m, _ in pairs],
            goodput_gbps=[m.goodput_gbps for m, _ in pairs],
            num_packets=[m.num_packets for m, _ in pairs],
            wire_bytes=[m.wire_bytes_per_hop for m, _ in pairs],
            baseline_fct_us=[b.fct_us for _, b in pairs],
            baseline_goodput_gbps=[b.goodput_gbps for _, b in pairs],
        )


class BatchEngine(Engine):
    """The closed form, vectorized over the whole spec in one shot.

    For ``N`` equal packets of ``w`` wire bytes over hops with line
    rates ``r_h`` and latencies ``l_h``, the pipeline delivers the last
    packet at

        sum(t_h) + sum(l_h) + (N - 1) * max(t_h),  t_h = 8 w / r_h

    — the first packet's traversal plus the bottleneck pacing every
    later one.  A short final packet makes this an upper bound that is
    exact whenever the message divides evenly into packets.

    The arithmetic follows the per-flow loop's float order (per hop
    ``w * 8.0 / (rate_gbps * 1000.0)``, summed left to right along the
    path, then ``+ sum(l_h)``, then ``+ (N - 1) * max``), so each
    column is bit-identical to evaluating the flows one at a time.
    """

    name = "batch"

    def _evaluate(self, spec: SimulationSpec) -> SimulationResult:
        import numpy as np

        tm = spec.traffic
        payload, hdr, mtu = tm.packet_payload_bytes, tm.header_bytes, tm.mtu
        # Per-path line rates in bits/µs, padded past each chain's end
        # with inf (a zero serialization time, which leaves the running
        # sum and max unchanged), and latency sums taken left to right.
        num_hops = max(len(path) for path in spec.paths)
        rates = np.full((len(spec.paths), num_hops), np.inf)
        lat_sum = np.empty(len(spec.paths))
        for p, path in enumerate(spec.paths):
            if not path:
                raise ValueError("path needs at least one hop")
            total = 0
            for h, hop in enumerate(path):
                rates[p, h] = hop.rate_gbps * 1000.0
                total += hop.latency_us
            lat_sum[p] = total
        pid = np.fromiter(
            (f.path_id for f in spec.flows), dtype=np.int64,
            count=len(spec.flows),
        )
        msg = np.fromiter(
            (f.message_bytes for f in spec.flows), dtype=np.int64,
            count=len(spec.flows),
        )
        ov = np.fromiter(
            (f.overhead_bytes for f in spec.flows), dtype=np.int64,
            count=len(spec.flows),
        )
        rate = rates[pid]
        lat = lat_sum[pid]

        def pipeline(eff, extra):
            """FCT / goodput / packets / wire for one overhead column."""
            packets = -(-msg // eff)
            bits = (eff + extra) * 8.0
            tx_sum = tx_max = bits / rate[:, 0]
            for h in range(1, num_hops):
                tx = bits / rate[:, h]
                tx_sum = tx_sum + tx
                tx_max = np.maximum(tx_max, tx)
            fct = tx_sum + lat + (packets - 1) * tx_max
            goodput = msg * 8.0 / (fct * 1000.0)
            wire = (packets - 1) * (eff + extra) + (
                msg - (packets - 1) * eff
            ) + extra
            return fct, goodput, packets, wire

        widened = np.maximum(mtu, ov + hdr + MIN_PAYLOAD_BYTES)
        eff_measured = np.minimum(payload, widened - ov - hdr)
        fct_m, gp_m, n_m, wire_m = pipeline(eff_measured, ov + hdr)
        eff_baseline = min(payload, mtu - hdr)
        fct_b, gp_b, _n, _wire = pipeline(
            np.full_like(msg, eff_baseline), hdr
        )
        return SimulationResult(
            engine=self.name,
            source=spec.source,
            fct_us=fct_m.tolist(),
            goodput_gbps=gp_m.tolist(),
            num_packets=n_m.tolist(),
            wire_bytes=wire_m.tolist(),
            baseline_fct_us=fct_b.tolist(),
            baseline_goodput_gbps=gp_b.tolist(),
        )


def get_engine(
    name: Union[str, Engine, None] = None, load: Optional[float] = None
) -> Engine:
    """The engine for an ``engine`` name and a ``load``.

    This is the one place the choice is made.  No name picks
    ``batch``, the closed form, unless a ``load`` is given: a load
    alone picks ``contention``, the only engine it means anything to.
    An :class:`Engine` instance passes through.  An unknown name, or a
    load paired with any engine but ``contention``, raises
    ``ValueError``.
    """
    if isinstance(name, Engine) and load is None:
        return name
    if name is None:
        name = "contention" if load is not None else BatchEngine.name
    if name == "contention":
        # contention.py subclasses Engine, so it imports this module.
        from repro.simulation.contention import ContentionEngine

        return ContentionEngine(load=load)
    engines = {ExactEngine.name: ExactEngine, BatchEngine.name: BatchEngine}
    if name not in engines:
        raise ValueError(
            f"unknown engine {name!r}; choose from exact, batch, "
            f"contention"
        )
    if load is not None:
        raise ValueError(
            f"a load applies only to the contention engine, not "
            f"{name!r}; choose from exact, batch, contention"
        )
    return engines[name]()


def overhead_impact(
    overhead_bytes: int,
    packet_payload_bytes: int = 1024,
    hops: int = E2E_HOPS,
    message_bytes: int = E2E_MESSAGE_BYTES,
    engine: Union[str, Engine, None] = None,
    flows: int = 1,
) -> Tuple[float, float]:
    """Scalar overhead -> (fct_ratio, goodput_ratio), uniform path.

    The Fig. 2 normalization: one message over the uniform 5-hop path
    with and without ``overhead_bytes`` of metadata per packet (MTU
    widening included), evaluated by ``engine`` (see
    :func:`get_engine`).  ``flows`` replicates the message into a
    population sharing the path — a no-op for the independent-flow
    engines, but what gives the contention engine a queue to fill, so
    the worst ratios price the metadata's queueing amplification.
    """
    spec = SimulationSpec.uniform(
        overhead_bytes,
        packet_payload_bytes=packet_payload_bytes,
        hops=hops,
        message_bytes=message_bytes,
        flows=flows,
    )
    result = get_engine(engine).evaluate(spec)
    return result.fct_ratio, result.goodput_ratio


__all__ = [
    "BatchEngine",
    "Engine",
    "ExactEngine",
    "SimulationResult",
    "get_engine",
    "overhead_impact",
]
