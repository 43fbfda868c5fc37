"""The mutable world the reconciler deploys against.

:class:`WorldState` tracks what the scenario has done to the substrate
and the workload: which switches are failed or drained, which links
were retuned, which switches had their programmability flipped, and
which programs joined or left.  :meth:`WorldState.current_network`
derives a fresh :class:`~repro.network.topology.Network` from the base
topology plus those overlays — failed switches disappear with their
links, drained switches keep forwarding but lose their pipeline
(modeled as ``programmable=False``), latency overrides apply — so the
deployment machinery always sees an ordinary network and never learns
about churn.

The derived network keeps the *base network's name*: a world that
churns away from the base and then recovers back produces a network
(and therefore plan fingerprints) identical to the original, which is
what the convergence tests assert.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Set, Tuple

from repro.dataplane.program import Program
from repro.network.switch import Switch
from repro.network.topology import Network
from repro.runtime.scenario import EventKind, NetworkEvent, ScenarioError
from repro.workloads.synthetic import synthetic_program


class WorldState:
    """Base network + workload, with the scenario's overlays applied."""

    def __init__(
        self, network: Network, programs: Sequence[Program]
    ) -> None:
        self.base = network
        self._programs: Dict[str, Program] = {}
        for program in programs:
            if program.name in self._programs:
                raise ScenarioError(
                    f"duplicate program name {program.name!r}"
                )
            self._programs[program.name] = program
        self.failed: Set[str] = set()
        self.drained: Set[str] = set()
        self.latency_overrides: Dict[Tuple[str, str], float] = {}
        self.programmable_overrides: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: NetworkEvent) -> None:
        """Fold one scenario event into the world."""
        kind = event.kind
        if kind == EventKind.SWITCH_FAIL:
            self._require_switch(event.target)
            self.failed.add(event.target)
        elif kind == EventKind.SWITCH_RECOVER:
            self._require_switch(event.target)
            self.failed.discard(event.target)
            self.drained.discard(event.target)
        elif kind == EventKind.SWITCH_DRAIN:
            self._require_switch(event.target)
            self.drained.add(event.target)
        elif kind == EventKind.LINK_LATENCY:
            u, v = event.link
            self.base.link(u, v)  # raises KeyError for unknown links
            if event.value is None or event.value < 0:
                raise ScenarioError(
                    f"link_latency needs a latency >= 0, "
                    f"got {event.value!r}"
                )
            key = (u, v) if u <= v else (v, u)
            self.latency_overrides[key] = float(event.value)
        elif kind == EventKind.SET_PROGRAMMABLE:
            self._require_switch(event.target)
            self.programmable_overrides[event.target] = bool(event.value)
        elif kind == EventKind.WORKLOAD_ADD:
            if event.target in self._programs:
                raise ScenarioError(
                    f"workload_add: program {event.target!r} already "
                    "deployed"
                )
            self._programs[event.target] = _churn_program(
                event.target, int(event.value or 0)
            )
        elif kind == EventKind.WORKLOAD_REMOVE:
            if event.target not in self._programs:
                raise ScenarioError(
                    f"workload_remove: no program {event.target!r}"
                )
            del self._programs[event.target]
        else:  # pragma: no cover - NetworkEvent validates kinds
            raise ScenarioError(f"unknown event kind {kind!r}")

    def _require_switch(self, name: str) -> None:
        if name not in self.base:
            raise ScenarioError(
                f"event targets unknown switch {name!r}"
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def current_programs(self) -> List[Program]:
        """The live workload, in stable insertion order."""
        return list(self._programs.values())

    def current_network(self) -> Network:
        """The substrate as the deployment machinery should see it."""
        net = Network(self.base.name)
        for switch in self.base.switches:
            if switch.name in self.failed:
                continue
            programmable = self._programmable(switch)
            if programmable != switch.programmable:
                switch = replace(switch, programmable=programmable)
            net.add_switch(switch)
        for link in self.base.links:
            if link.u in self.failed or link.v in self.failed:
                continue
            latency = self.latency_overrides.get(link.key)
            if latency is not None and latency != link.latency_ms:
                link = replace(link, latency_ms=latency)
            net.add_link(link)
        return net

    def _programmable(self, switch: Switch) -> bool:
        """Whether a live base switch has a pipeline under the overlays."""
        if switch.name in self.drained:
            return False
        return self.programmable_overrides.get(
            switch.name, switch.programmable
        )

    def hostable_switches(self) -> List[str]:
        """Names of switches that can currently host MATs, in the order
        :meth:`current_network` lists them, without building it."""
        return [
            switch.name
            for switch in self.base.switches
            if switch.name not in self.failed and self._programmable(switch)
        ]

    def vanished_hosts(self, occupied: Sequence[str]) -> Set[str]:
        """Which of ``occupied`` can no longer host MATs.

        The set feeding :class:`~repro.control.migration.MatMove`'s
        forced/optimization split: a MAT whose old host is in here had
        no choice but to move.
        """
        hostable = set(self.hostable_switches())
        return {s for s in occupied if s not in hostable}

    def is_quiescent(self) -> bool:
        """Whether every overlay is back to the base state."""
        return not (
            self.failed
            or self.drained
            or self.latency_overrides
            or self.programmable_overrides
        )


def _churn_program(name: str, seed: int) -> Program:
    """The deterministic synthetic program a ``workload_add`` injects."""
    generated = synthetic_program(name, seed)
    assert generated.name == name
    return generated
