"""Store-and-forward flow transmission.

A flow's packets traverse a chain of hops (switch + outgoing link).
Each hop serializes one packet at a time at its line rate, then the
packet propagates for the hop's latency — the classic store-and-forward
pipeline.  FCT is the delivery time of the last packet; goodput is
application bytes over FCT.

:class:`FlowSimulator` simulates it discrete-event, packet by packet,
with heterogeneous hops and short last packets exact.  The closed form
of the same pipeline, for the big sweeps where simulating 10^6 packets
x 100 runs is pointless, is :class:`~repro.simulation.engine.BatchEngine`
(the property tests check the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.simulation.events import Simulator
from repro.simulation.flow import Flow, packetize
from repro.simulation.metrics import FlowMetrics
from repro.simulation.packet import Packet


@dataclass(frozen=True)
class HopSpec:
    """One hop of the path: a serializing port plus propagation delay.

    Attributes:
        rate_gbps: Line rate of the outgoing port.
        latency_us: Propagation + switch processing latency.
    """

    rate_gbps: float = 100.0
    latency_us: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_gbps <= 0:
            raise ValueError("rate_gbps must be positive")
        if self.latency_us < 0:
            raise ValueError("latency_us must be non-negative")

    def tx_time_us(self, wire_bytes: int) -> float:
        """Serialization time of a packet (Gbps == 1000 bits/µs)."""
        return wire_bytes * 8.0 / (self.rate_gbps * 1000.0)


def uniform_path(
    hops: int, rate_gbps: float = 100.0, latency_us: float = 1.0
) -> List[HopSpec]:
    """``hops`` identical hops — the paper's 5-hop DCN path."""
    if hops <= 0:
        raise ValueError("hops must be positive")
    return [HopSpec(rate_gbps, latency_us) for _ in range(hops)]


class FlowSimulator:
    """Discrete-event transmission of one flow over a hop chain."""

    def __init__(self, path: Sequence[HopSpec]) -> None:
        if not path:
            raise ValueError("path needs at least one hop")
        self.path = list(path)

    def run(self, flow: Flow) -> FlowMetrics:
        """Transmit the flow; returns its measured metrics."""
        sim = Simulator()
        num_hops = len(self.path)
        hop_free = [0.0] * num_hops  # when each hop's port is idle
        last_delivery = [0.0]
        delivered = [0]

        def arrive(packet: Packet, hop_idx: int, when: float) -> None:
            if hop_idx == num_hops:
                delivered[0] += 1
                last_delivery[0] = max(last_delivery[0], when)
                return
            hop = self.path[hop_idx]
            start = max(when, hop_free[hop_idx])
            done = start + hop.tx_time_us(packet.wire_bytes)
            hop_free[hop_idx] = done
            arrival_next = done + hop.latency_us
            sim.schedule_at(
                arrival_next, lambda p=packet, h=hop_idx + 1, t=arrival_next: arrive(p, h, t)
            )

        for packet in packetize(flow):
            # All packets are ready at t=0; the first hop's FIFO paces
            # them out at line rate.
            arrive(packet, 0, 0.0)
        sim.run()

        fct = last_delivery[0]
        return FlowMetrics(
            fct_us=fct,
            goodput_gbps=flow.message_bytes * 8.0 / (fct * 1000.0),
            num_packets=delivered[0],
            wire_bytes_per_hop=flow.total_wire_bytes,
        )
