"""Tests for structural plan diffing (repro.plan.diff)."""

import json

from plan_builder_oracle import PlanBuilder

from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.paths import PathEnumerator
from repro.network.switch import Switch
from repro.network.topology import Link, Network
from repro.plan import diff_plans
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg


def make_network():
    net = Network("difnet")
    for name in ("s0", "s1", "s2"):
        net.add_switch(Switch(name, num_stages=8, stage_capacity=4.0))
    net.add_link(Link("s0", "s1", 1.0, 10.0))
    net.add_link(Link("s1", "s2", 2.0, 10.0))
    return net


def make_tdg():
    tdg = Tdg("dif")
    for name in ("a", "b", "c"):
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=0.2))
    tdg.add_edge("a", "b", DependencyType.MATCH, 16)
    tdg.add_edge("b", "c", DependencyType.MATCH, 8)
    return tdg


def build_plan(hosts, stages=None):
    net = make_network()
    builder = PlanBuilder(make_tdg(), net)
    order = {"a": 1, "b": 2, "c": 3}
    for name, switch in hosts.items():
        builder.place(name, switch, (stages or {}).get(name, (order[name],)))
    builder.route_shortest(PathEnumerator(net))
    return builder.build()


class TestIdenticalPlans:
    def test_empty_diff(self):
        plan = build_plan({"a": "s0", "b": "s0", "c": "s1"})
        diff = diff_plans(plan, plan)
        assert diff.is_empty
        assert not diff.moved and not diff.added and not diff.removed
        assert diff.overhead_delta_bytes == 0
        assert "identical" in diff.summary()


class TestMoves:
    def test_move_detected_with_pair_and_route_changes(self):
        old = build_plan({"a": "s0", "b": "s0", "c": "s1"})
        new = build_plan({"a": "s0", "b": "s1", "c": "s1"})
        diff = diff_plans(old, new)
        assert [c.mat_name for c in diff.moved] == ["b"]
        assert diff.moved[0].old_switch == "s0"
        assert diff.moved[0].new_switch == "s1"
        assert diff.moved[0].moved
        # Old cut: b->c across (s0, s1) = 8 B; new cut: a->b = 16 B.
        assert diff.changed_pairs == {("s0", "s1"): (8, 16)}
        assert diff.old_overhead_bytes == 8
        assert diff.new_overhead_bytes == 16
        assert diff.overhead_delta_bytes == 8
        assert "1 MAT(s) moved" in diff.summary()

    def test_restage_in_place_is_not_a_move(self):
        old = build_plan({"a": "s0", "b": "s0", "c": "s1"})
        new = build_plan(
            {"a": "s0", "b": "s0", "c": "s1"}, stages={"b": (3,)}
        )
        diff = diff_plans(old, new)
        assert not diff.moved
        assert [c.mat_name for c in diff.restaged] == ["b"]
        assert not diff.restaged[0].moved
        assert not diff.is_empty
        assert "re-staged" in diff.summary()


class TestAddedRemoved:
    def test_new_none_reports_everything_removed(self):
        old = build_plan({"a": "s0", "b": "s1", "c": "s2"})
        diff = diff_plans(old, None)
        assert diff.removed == ("a", "b", "c")
        assert diff.new_overhead_bytes == 0
        assert diff.old_overhead_bytes == old.max_metadata_bytes()
        assert all(new == 0 for _, new in diff.changed_pairs.values())


class TestSerialization:
    def test_to_dict_is_json_serializable(self):
        old = build_plan({"a": "s0", "b": "s0", "c": "s1"})
        new = build_plan({"a": "s0", "b": "s1", "c": "s1"})
        doc = diff_plans(old, new).to_dict()
        json.dumps(doc)
        assert doc["identical"] is False
        assert doc["moved"][0]["mat"] == "b"
        assert doc["overhead_delta_bytes"] == 8

    def test_identity_flag_round_trips(self):
        plan = build_plan({"a": "s0", "b": "s0", "c": "s1"})
        assert diff_plans(plan, plan).to_dict()["identical"] is True


class TestRerouted:
    def test_changed_path_reported(self):
        plan = build_plan({"a": "s0", "b": "s1", "c": "s1"})
        # Same placements, but route (s0, s1) the long way around.
        from repro.network.paths import Path

        detour = Path(("s0", "s1"), latency_us=999.0)
        rerouted = plan.with_routing({("s0", "s1"): detour})
        # Identical switch sequence => not a reroute, just a latency
        # difference the diff ignores by design.
        assert diff_plans(plan, rerouted).rerouted == ()
        # A genuinely different switch sequence is a reroute.
        detour = Path(("s0", "s2", "s1"), latency_us=999.0)
        rerouted = plan.with_routing({("s0", "s1"): detour})
        assert diff_plans(plan, rerouted).rerouted == (("s0", "s1"),)
