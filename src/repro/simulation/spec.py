"""The simulation specification: what traffic runs over which hops.

Every end-to-end number in the repo — Fig. 2's ratios, the harness's
``fct_ratio``/``goodput_ratio`` columns, the trace study's slowdowns,
the runtime layer's disruption traffic impact — reduces to the same
question: given per-packet byte overheads and hop chains, what happens
to FCT and goodput?  Historically each call site hand-built a uniform
path and a pair of :class:`~repro.simulation.flow.Flow` objects;
:class:`SimulationSpec` replaces those divergent copies with one
declarative artifact that any engine (:mod:`repro.simulation.engine`)
can evaluate.

A spec is a set of *paths* (hop chains), a set of *flows* (message
sizes bound to a path and a per-packet overhead), and the shared
traffic-model constants.  Constructors cover the repo's producers:

* :meth:`SimulationSpec.uniform` — the classic scalar-overhead,
  uniform-path model of
  :func:`~repro.simulation.engine.overhead_impact`;
* :meth:`SimulationSpec.uniform_sweep` — Fig. 2's overhead sweep with
  one shared baseline;
* :meth:`SimulationSpec.from_trace` — a generated flow trace over one
  path (the trace study);
* :meth:`SimulationSpec.from_plan` — the plan-aware model: per-pair
  hop chains straight from a :class:`~repro.plan.DeploymentPlan`'s
  routing over the real :class:`~repro.network.topology.Network`, with
  per-pair overhead bytes from the plan's coordination edges.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.simulation.flow import DEFAULT_MTU, Flow, flow_pair
from repro.simulation.netsim import HopSpec, uniform_path
from repro.simulation.packet import BASE_HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.topology import Network
    from repro.plan.artifact import DeploymentPlan
    from repro.simulation.traces import TraceFlow

#: Message size used by the end-to-end impact model: 1 MB transfers,
#: large enough that pacing (not propagation) dominates.
E2E_MESSAGE_BYTES = 1_000_000
#: The paper's DCN path length (§II-B: "a flow typically traverses
#: five switches").
E2E_HOPS = 5


@dataclass(frozen=True)
class DiurnalLoad:
    """Seeded diurnal/periodic offered-load modulation.

    ``load_at(hour)`` follows a sinusoid around ``base`` — peak at
    ``phase_hours`` + a quarter period, trough half a period later —
    optionally perturbed by seeded multiplicative jitter.  The same
    ``(seed, hour)`` always yields the same load, so suites sweeping
    time-of-day traffic stay deterministic and cacheable.

    Attributes:
        base: Mean offered load (bottleneck utilization).
        amplitude: Relative swing in ``[0, 1]``; 0 = flat.
        period_hours: Cycle length (24 = diurnal).
        phase_hours: Hour at which the sinusoid crosses ``base``
            rising; shift to move the daily peak.
        jitter: Relative magnitude of seeded per-hour noise in
            ``[0, 1)``; 0 = none.
        seed: Jitter seed; each ``(seed, hour)`` draws independently.
        floor: Lower clamp, keeping the load positive (the traffic
            model rejects non-positive offered loads).
    """

    base: float = 0.5
    amplitude: float = 0.0
    period_hours: float = 24.0
    phase_hours: float = 0.0
    jitter: float = 0.0
    seed: int = 0
    floor: float = 0.05

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError("base load must be positive")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if self.period_hours <= 0:
            raise ValueError("period_hours must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.floor <= 0:
            raise ValueError("floor must be positive")

    def load_at(self, hour: float) -> float:
        """Offered load at ``hour`` (hours since the cycle origin)."""
        angle = 2.0 * math.pi * (hour - self.phase_hours) / self.period_hours
        load = self.base * (1.0 + self.amplitude * math.sin(angle))
        if self.jitter:
            # One independent, reproducible draw per (seed, hour).
            u = random.Random(f"{self.seed}:{hour!r}").random()
            load *= 1.0 + self.jitter * (2.0 * u - 1.0)
        return max(load, self.floor)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base,
            "amplitude": self.amplitude,
            "period_hours": self.period_hours,
            "phase_hours": self.phase_hours,
            "jitter": self.jitter,
            "seed": self.seed,
            "floor": self.floor,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "DiurnalLoad":
        unknown = set(doc) - {
            "base", "amplitude", "period_hours", "phase_hours",
            "jitter", "seed", "floor",
        }
        if unknown:
            raise ValueError(
                f"unknown DiurnalLoad keys: {sorted(unknown)}"
            )
        return DiurnalLoad(**doc)


@dataclass(frozen=True)
class TrafficModel:
    """The shared knobs of every flow in a spec.

    ``offered_load`` is the bottleneck utilization the contention
    engine should drive each path's output queue at; ``None`` defers
    to the engine's own knob (the CLI's ``--load``) and then to
    :data:`repro.simulation.contention.DEFAULT_LOAD`.  Values above
    1.0 model overload.  The independent-flow engines ignore it.

    ``load_model`` (optional) is a :class:`DiurnalLoad`; engines keep
    reading the scalar ``offered_load``, so time-varying suites call
    :meth:`at_hour` to materialize the scalar for a given hour.
    """

    packet_payload_bytes: int = 1024
    message_bytes: int = E2E_MESSAGE_BYTES
    header_bytes: int = BASE_HEADER_BYTES
    mtu: int = DEFAULT_MTU
    offered_load: Optional[float] = None
    load_model: Optional[DiurnalLoad] = None

    def __post_init__(self) -> None:
        if self.packet_payload_bytes <= 0:
            raise ValueError("packet_payload_bytes must be positive")
        if self.message_bytes <= 0:
            raise ValueError("message_bytes must be positive")
        if self.offered_load is not None and self.offered_load <= 0:
            raise ValueError("offered_load must be positive when set")

    def at_hour(self, hour: float) -> "TrafficModel":
        """This model with ``offered_load`` fixed to ``hour``'s value.

        Requires a ``load_model``; the result carries the materialized
        scalar (and drops the model), so any engine can evaluate it.
        """
        if self.load_model is None:
            raise ValueError("at_hour() needs a load_model")
        return replace(
            self,
            offered_load=self.load_model.load_at(hour),
            load_model=None,
        )

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "packet_payload_bytes": self.packet_payload_bytes,
            "message_bytes": self.message_bytes,
            "header_bytes": self.header_bytes,
            "mtu": self.mtu,
            "offered_load": self.offered_load,
        }
        if self.load_model is not None:
            doc["load_model"] = self.load_model.to_dict()
        return doc

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "TrafficModel":
        known = {
            "packet_payload_bytes", "message_bytes", "header_bytes",
            "mtu", "offered_load", "load_model",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown TrafficModel keys: {sorted(unknown)}"
            )
        fields = dict(doc)
        model = fields.pop("load_model", None)
        if model is not None:
            fields["load_model"] = DiurnalLoad.from_dict(model)
        return TrafficModel(**fields)


@dataclass(frozen=True)
class FlowSpec:
    """One flow of the spec: a message bound to a path and an overhead.

    ``path_id`` indexes into :attr:`SimulationSpec.paths`;
    ``pair`` (optional) records which routed source/destination pair
    produced this flow when the spec came from a plan.
    """

    flow_id: int
    message_bytes: int
    overhead_bytes: int
    path_id: int = 0
    pair: Optional[Tuple[str, str]] = None


@dataclass(frozen=True)
class SimulationSpec:
    """Traffic + hop chains, ready for any engine.

    Attributes:
        paths: Hop chains flows traverse, each of at least one hop;
            ``FlowSpec.path_id`` indexes this tuple.
        flows: The flows to evaluate.  Each is normalized against a
            zero-overhead twin on the same path (engines compute both).
            Spec order within a path is the contention engine's
            arrival order at that path's output queue.
        traffic: Shared packetization constants.
        source: Human-readable provenance ("uniform", "plan:...",
            "trace:..."), carried into ``sim.*`` telemetry.
    """

    paths: Tuple[Tuple[HopSpec, ...], ...]
    flows: Tuple[FlowSpec, ...]
    traffic: TrafficModel = field(default_factory=TrafficModel)
    source: str = "custom"

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("spec needs at least one path")
        for index, path in enumerate(self.paths):
            if not path:
                raise ValueError(f"path {index} needs at least one hop")
        if not self.flows:
            raise ValueError("spec needs at least one flow")
        for flow in self.flows:
            if not 0 <= flow.path_id < len(self.paths):
                raise ValueError(
                    f"flow {flow.flow_id} references unknown path "
                    f"{flow.path_id}"
                )

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    def flow_objects(self, flow: FlowSpec) -> Tuple[Flow, Flow]:
        """(baseline, measured) :class:`Flow` pair for one spec flow."""
        return flow_pair(
            flow.message_bytes,
            self.traffic.packet_payload_bytes,
            flow.overhead_bytes,
            flow_id=flow.flow_id,
            header_bytes=self.traffic.header_bytes,
            mtu=self.traffic.mtu,
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def uniform(
        overhead_bytes: int,
        packet_payload_bytes: int = 1024,
        hops: int = E2E_HOPS,
        message_bytes: int = E2E_MESSAGE_BYTES,
        flows: int = 1,
        offered_load: Optional[float] = None,
    ) -> "SimulationSpec":
        """The classic scalar model: one flow over a uniform path.

        ``flows`` > 1 replicates the message into a population sharing
        the single path — identical per flow for the independent
        engines, but a queue for the contention engine to fill.
        """
        if flows <= 0:
            raise ValueError("flows must be positive")
        return SimulationSpec(
            paths=(tuple(uniform_path(hops)),),
            flows=tuple(
                FlowSpec(i, message_bytes, overhead_bytes)
                for i in range(flows)
            ),
            traffic=TrafficModel(
                packet_payload_bytes=packet_payload_bytes,
                message_bytes=message_bytes,
                offered_load=offered_load,
            ),
            source="uniform",
        )

    @staticmethod
    def uniform_sweep(
        overheads: Sequence[int],
        packet_payload_bytes: int = 1024,
        hops: int = E2E_HOPS,
        message_bytes: int = E2E_MESSAGE_BYTES,
    ) -> "SimulationSpec":
        """Fig. 2's shape: one flow per overhead, all on one path."""
        if not overheads:
            raise ValueError("sweep needs at least one overhead")
        return SimulationSpec(
            paths=(tuple(uniform_path(hops)),),
            flows=tuple(
                FlowSpec(i, message_bytes, overhead)
                for i, overhead in enumerate(overheads)
            ),
            traffic=TrafficModel(
                packet_payload_bytes=packet_payload_bytes,
                message_bytes=message_bytes,
            ),
            source="uniform-sweep",
        )

    @staticmethod
    def from_trace(
        trace: Sequence["TraceFlow"],
        path: Sequence[HopSpec],
        overhead_bytes: int,
        packet_payload_bytes: int = 1024,
    ) -> "SimulationSpec":
        """A generated flow trace over one hop chain."""
        if not trace:
            raise ValueError("empty trace")
        return SimulationSpec(
            paths=(tuple(path),),
            flows=tuple(
                FlowSpec(flow.flow_id, flow.message_bytes, overhead_bytes)
                for flow in trace
            ),
            traffic=TrafficModel(
                packet_payload_bytes=packet_payload_bytes
            ),
            source=f"trace:{len(trace)}",
        )

    @staticmethod
    def from_plan(
        plan: "DeploymentPlan",
        network: "Network",
        traffic: Optional[TrafficModel] = None,
        trace: Optional[Sequence["TraceFlow"]] = None,
    ) -> "SimulationSpec":
        """The plan-aware model: real routes, per-pair overheads.

        For every coordinating pair in
        :meth:`~repro.plan.DeploymentPlan.pair_metadata_bytes`, the
        plan's routed path is translated into a hop chain over the
        actual network links: each hop serializes at the link's
        bandwidth and carries the link's propagation latency plus the
        downstream switch's processing latency (the source switch's
        latency folds into the first hop), so the chain's total latency
        equals the path's ``t_p``.

        Without a ``trace``, one ``message_bytes`` flow runs per pair
        (the worst/mean over pairs generalizes the scalar ``A_max``
        model).  With a ``trace``, its flows are spread round-robin
        across the pairs.  A plan with no coordinating pairs degrades
        to a single zero-overhead flow over the uniform path.

        Raises :class:`~repro.plan.artifact.DeploymentError` (via the
        plan's routing accessors) if a coordinating pair has no routed
        path.
        """
        from repro.plan.artifact import DeploymentError

        traffic = traffic or TrafficModel()
        pair_bytes = plan.pair_metadata_bytes()
        if not pair_bytes:
            if trace is not None:
                if not trace:
                    raise ValueError("empty trace")
                idle_flows = tuple(
                    FlowSpec(f.flow_id, f.message_bytes, 0)
                    for f in trace
                )
            else:
                idle_flows = (FlowSpec(0, traffic.message_bytes, 0),)
            return SimulationSpec(
                paths=(tuple(uniform_path(E2E_HOPS)),),
                flows=idle_flows,
                traffic=traffic,
                source="plan:idle",
            )
        routing = plan.routing
        paths: List[Tuple[HopSpec, ...]] = []
        pairs: List[Tuple[Tuple[str, str], int]] = []
        for pair in sorted(pair_bytes):
            path = routing.get(pair)
            if path is None:
                raise DeploymentError(
                    f"pair {pair} coordinates but has no routed path"
                )
            paths.append(hop_chain(network, path.switches))
            pairs.append((pair, pair_bytes[pair]))
        flows: List[FlowSpec]
        if trace is None:
            flows = [
                FlowSpec(i, traffic.message_bytes, overhead, path_id=i,
                         pair=pair)
                for i, (pair, overhead) in enumerate(pairs)
            ]
        else:
            if not trace:
                raise ValueError("empty trace")
            flows = [
                FlowSpec(
                    flow.flow_id,
                    flow.message_bytes,
                    pairs[i % len(pairs)][1],
                    path_id=i % len(pairs),
                    pair=pairs[i % len(pairs)][0],
                )
                for i, flow in enumerate(trace)
            ]
        return SimulationSpec(
            paths=tuple(paths),
            flows=tuple(flows),
            traffic=traffic,
            source=f"plan:{len(pairs)}pairs",
        )


def hop_chain(
    network: "Network", switches: Sequence[str]
) -> Tuple[HopSpec, ...]:
    """A routed switch sequence as a store-and-forward hop chain.

    Hop ``i`` is the link ``switches[i] -> switches[i+1]``: it
    serializes at the link's bandwidth and delays by the link's
    propagation latency plus the downstream switch's processing
    latency.  The source switch's latency is folded into the first
    hop, so ``sum(hop.latency_us) == path_latency_us(network,
    switches)`` exactly.
    """
    if len(switches) < 2:
        # A degenerate single-switch "path" (self-pair): one hop at
        # default rate, delayed only by that switch.
        latency = network.switch(switches[0]).latency_us if switches else 0.0
        return (HopSpec(latency_us=latency),)
    hops: List[HopSpec] = []
    for i, (u, v) in enumerate(zip(switches, switches[1:])):
        link = network.link(u, v)
        latency = link.latency_us + network.switch(v).latency_us
        if i == 0:
            latency += network.switch(u).latency_us
        hops.append(
            HopSpec(rate_gbps=link.bandwidth_gbps, latency_us=latency)
        )
    return tuple(hops)


__all__ = [
    "DiurnalLoad",
    "E2E_HOPS",
    "E2E_MESSAGE_BYTES",
    "FlowSpec",
    "SimulationSpec",
    "TrafficModel",
    "hop_chain",
]
