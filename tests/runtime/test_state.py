"""Unit tests for the event-folded world state."""

import pytest

from repro.network.generators import random_wan
from repro.runtime import EventKind, NetworkEvent, ScenarioError, WorldState
from tests.conftest import make_sketch_program


@pytest.fixture
def network():
    return random_wan(10, 14, seed=2)


@pytest.fixture
def world(network):
    return WorldState(network, [make_sketch_program("p0")])


def ev(kind, target="", value=None, t=1.0):
    return NetworkEvent(t, kind, target, value)


class TestApply:
    def test_fail_removes_switch_and_links(self, world, network):
        victim = network.switch_names[0]
        world.apply(ev(EventKind.SWITCH_FAIL, victim))
        current = world.current_network()
        assert victim not in current
        assert all(
            victim not in (link.u, link.v) for link in current.links
        )
        assert current.num_switches == network.num_switches - 1

    def test_recover_restores_base(self, world, network):
        victim = network.switch_names[0]
        world.apply(ev(EventKind.SWITCH_FAIL, victim))
        world.apply(ev(EventKind.SWITCH_RECOVER, victim, t=2.0))
        current = world.current_network()
        assert current.num_switches == network.num_switches
        assert current.num_links == network.num_links
        assert world.is_quiescent()

    def test_recovered_network_keeps_base_name(self, world, network):
        """Plan fingerprints embed the network name, so a recovered
        world must produce a name-identical network."""
        victim = network.switch_names[0]
        world.apply(ev(EventKind.SWITCH_FAIL, victim))
        assert world.current_network().name == network.name
        world.apply(ev(EventKind.SWITCH_RECOVER, victim, t=2.0))
        assert world.current_network().name == network.name

    def test_drain_keeps_forwarding_but_not_hosting(self, world, network):
        victim = next(
            s.name for s in network.programmable_switches()
        )
        world.apply(ev(EventKind.SWITCH_DRAIN, victim))
        current = world.current_network()
        assert victim in current  # still forwards
        assert victim not in current.programmable_names()

    def test_link_latency_override(self, world, network):
        link = network.links[0]
        world.apply(
            ev(EventKind.LINK_LATENCY, f"{link.u}|{link.v}", 42.5)
        )
        assert world.current_network().link(
            link.u, link.v
        ).latency_ms == 42.5

    def test_link_latency_rejects_negative(self, world, network):
        link = network.links[0]
        with pytest.raises(ScenarioError, match=">= 0"):
            world.apply(
                ev(EventKind.LINK_LATENCY, f"{link.u}|{link.v}", -1.0)
            )

    def test_set_programmable_toggle(self, world, network):
        non_prog = next(
            s.name
            for s in network.switches
            if not s.programmable
        )
        world.apply(ev(EventKind.SET_PROGRAMMABLE, non_prog, 1.0))
        assert non_prog in world.current_network().programmable_names()

    def test_workload_add_remove(self, world):
        world.apply(ev(EventKind.WORKLOAD_ADD, "churn0", 3.0))
        assert "churn0" in [p.name for p in world.current_programs()]
        world.apply(ev(EventKind.WORKLOAD_REMOVE, "churn0", t=2.0))
        assert "churn0" not in [
            p.name for p in world.current_programs()
        ]

    def test_workload_add_duplicate_rejected(self, world):
        with pytest.raises(ScenarioError, match="already"):
            world.apply(ev(EventKind.WORKLOAD_ADD, "p0", 1.0))

    def test_workload_remove_unknown_rejected(self, world):
        with pytest.raises(ScenarioError, match="no program"):
            world.apply(ev(EventKind.WORKLOAD_REMOVE, "ghost"))

    def test_unknown_switch_rejected(self, world):
        with pytest.raises(ScenarioError, match="unknown switch"):
            world.apply(ev(EventKind.SWITCH_FAIL, "ghost"))


class TestDerived:
    def test_vanished_hosts(self, world, network):
        prog = [s.name for s in network.programmable_switches()]
        world.apply(ev(EventKind.SWITCH_FAIL, prog[0]))
        world.apply(ev(EventKind.SWITCH_DRAIN, prog[1], t=2.0))
        vanished = world.vanished_hosts(prog[:3])
        assert vanished == {prog[0], prog[1]}

    def test_hostable_switches_match_current_network(self, world, network):
        """The names come from the overlays, without building the
        network, and must equal the built network's, in its order."""
        prog = [s.name for s in network.programmable_switches()]
        non_prog = [s.name for s in network.switches if not s.programmable]
        link = network.links[0]
        events = [
            ev(EventKind.SWITCH_FAIL, prog[0]),
            ev(EventKind.SWITCH_DRAIN, prog[1]),
            # A drain outranks a programmability override.
            ev(EventKind.SET_PROGRAMMABLE, prog[1], 1.0),
            ev(EventKind.SET_PROGRAMMABLE, prog[2], 0.0),
            ev(EventKind.SET_PROGRAMMABLE, non_prog[0], 1.0),
            ev(EventKind.LINK_LATENCY, f"{link.u}|{link.v}", 7.0),
            ev(EventKind.WORKLOAD_ADD, "churn0", 3.0),
            ev(EventKind.WORKLOAD_REMOVE, "churn0"),
            ev(EventKind.SWITCH_RECOVER, prog[1]),
            ev(EventKind.SWITCH_RECOVER, prog[0]),
        ]
        assert {e.kind for e in events} == set(EventKind.ALL)
        for event in events:
            world.apply(event)
            assert (
                world.hostable_switches()
                == world.current_network().programmable_names()
            ), event

    def test_base_network_never_mutated(self, world, network):
        before = (network.num_switches, network.num_links)
        world.apply(ev(EventKind.SWITCH_FAIL, network.switch_names[0]))
        world.current_network()
        assert (network.num_switches, network.num_links) == before
