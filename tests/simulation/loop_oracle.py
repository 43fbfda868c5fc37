"""The per-flow closed-form loop, kept as the tests' reference model.

:class:`~repro.simulation.engine.BatchEngine` is the only closed-form
engine in ``repro``.  It vectorizes this loop and must reproduce it
bit for bit (``test_engine_differential.py``); the benchmark in
``benchmarks/test_bench_sim.py`` times it as the batch engine's "loop"
column.  This is the retired ``analytic_fct`` and its engine, copied,
not imported.  The two sums are spelled out left to right: that is the
order ``sum()`` added floats in before Python 3.12 made it compensate,
and the order every golden number was recorded in.

Import it as a plain module (``from loop_oracle import ...``); it
deliberately contains no tests of its own.
"""

from __future__ import annotations

from typing import Sequence

from repro.simulation.engine import Engine, SimulationResult
from repro.simulation.flow import Flow
from repro.simulation.metrics import FlowMetrics
from repro.simulation.netsim import HopSpec
from repro.simulation.spec import SimulationSpec


def loop_fct(flow: Flow, path: Sequence[HopSpec]) -> FlowMetrics:
    """Closed-form FCT/goodput for uniform-size packets.

    For N equal packets over hops with serialization times ``t_h`` and
    latencies ``l_h``, the pipeline delivers the last packet at

        sum(t_h) + sum(l_h) + (N - 1) * max(t_h)

    — the first packet's cut-through-free traversal plus the bottleneck
    pacing every subsequent packet.  A short final packet makes this an
    upper bound that is exact whenever the message divides evenly into
    packets.
    """
    if not path:
        raise ValueError("path needs at least one hop")
    wire = flow.effective_payload_bytes + flow.overhead_bytes + flow.header_bytes
    tx_times = [hop.tx_time_us(wire) for hop in path]
    tx_sum = 0
    for tx in tx_times:
        tx_sum += tx
    latency_sum = 0
    for hop in path:
        latency_sum += hop.latency_us
    n = flow.num_packets
    fct = tx_sum + latency_sum + (n - 1) * max(tx_times)
    return FlowMetrics(
        fct_us=fct,
        goodput_gbps=flow.message_bytes * 8.0 / (fct * 1000.0),
        num_packets=n,
        wire_bytes_per_hop=flow.total_wire_bytes,
    )


class LoopEngine(Engine):
    """:func:`loop_fct` evaluated flow by flow over a spec."""

    name = "loop"

    def _evaluate(self, spec: SimulationSpec) -> SimulationResult:
        pairs = []
        for flow in spec.flows:
            path = spec.paths[flow.path_id]
            baseline, measured = spec.flow_objects(flow)
            pairs.append((loop_fct(measured, path), loop_fct(baseline, path)))
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
