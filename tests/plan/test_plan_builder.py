"""Differential tests: PlanBuilder's incremental metrics vs recompute.

The builder maintains pair byte totals, ``A_max``, total bytes, stage
loads and switch occupancy incrementally across arbitrary
place/move/unplace sequences.  These tests drive random mutation
sequences (Hypothesis) and check, after every operation, that the
incremental state equals a from-scratch recomputation — and that
``undo`` restores the exact prior state.  The builder is the oracle of
``tests/plan_builder_oracle.py`` that the other differentials build
their reference plans with.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from plan_builder_oracle import PlanBuilder

from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.switch import Switch
from repro.network.topology import Link, Network
from repro.plan import DeploymentError, DeploymentPlan
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg

SWITCHES = ("s0", "s1", "s2")


def make_network():
    net = Network("prop")
    for name in SWITCHES:
        net.add_switch(Switch(name, num_stages=12, stage_capacity=10.0))
    net.add_link(Link("s0", "s1", 1.0, 10.0))
    net.add_link(Link("s1", "s2", 1.0, 10.0))
    return net


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def random_tdg(draw, max_nodes=7):
    """A forward-edge DAG with byte-annotated dependencies."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    tdg = Tdg("prop")
    demands = draw(
        st.lists(
            st.sampled_from([0.1, 0.25, 0.5, 1.0]),
            min_size=n,
            max_size=n,
        )
    )
    for i, demand in enumerate(demands):
        tdg.add_node(
            Mat(f"m{i}", actions=[no_op()], resource_demand=demand)
        )
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                tdg.add_edge(
                    f"m{i}",
                    f"m{j}",
                    DependencyType.MATCH,
                    draw(st.integers(min_value=0, max_value=64)),
                )
    return tdg


def draw_stages(draw):
    start = draw(st.integers(min_value=1, max_value=10))
    span = draw(st.integers(min_value=1, max_value=2))
    return tuple(range(start, start + span))


# ----------------------------------------------------------------------
# From-scratch reference of the builder's incremental state
# ----------------------------------------------------------------------
def reference_state(tdg, placements):
    """Recompute every metric the builder maintains incrementally."""
    pair_bytes = {}
    for edge in tdg.edges:
        up = placements.get(edge.upstream)
        down = placements.get(edge.downstream)
        if up is None or down is None or up.switch == down.switch:
            continue
        key = (up.switch, down.switch)
        pair_bytes[key] = pair_bytes.get(key, 0) + edge.metadata_bytes
    loads = {}
    for placement in placements.values():
        share = tdg.node(placement.mat_name).resource_demand / len(
            placement.stages
        )
        per_switch = loads.setdefault(placement.switch, {})
        for stage in placement.stages:
            per_switch[stage] = per_switch.get(stage, 0.0) + share
    return {
        "pair_bytes": pair_bytes,
        "amax": max(pair_bytes.values()) if pair_bytes else 0,
        "total": sum(pair_bytes.values()),
        "switches": {p.switch for p in placements.values()},
        "loads": loads,
    }


def assert_matches_reference(builder, tdg):
    ref = reference_state(tdg, builder.placements)
    assert builder.pair_metadata_bytes() == ref["pair_bytes"]
    assert builder.max_metadata_bytes() == ref["amax"]
    assert builder.total_metadata_bytes() == ref["total"]
    assert set(builder.occupied_switches()) == ref["switches"]
    assert builder.num_occupied_switches() == len(ref["switches"])
    for switch in SWITCHES:
        got = builder.stage_utilization(switch)
        want = ref["loads"].get(switch, {})
        assert got.keys() == want.keys(), switch
        for stage, load in want.items():
            assert got[stage] == pytest.approx(load), (switch, stage)


def apply_random_op(draw, builder, tdg):
    """One randomly chosen valid mutation; returns its undo token."""
    placed = sorted(builder.placements)
    unplaced = sorted(set(tdg.node_names) - set(placed))
    choices = []
    if unplaced:
        choices.append("place")
    if placed:
        choices.extend(["unplace", "move"])
    op = draw(st.sampled_from(choices))
    if op == "place":
        name = draw(st.sampled_from(unplaced))
        switch = draw(st.sampled_from(SWITCHES))
        return builder.place(name, switch, draw_stages(draw))
    if op == "unplace":
        return builder.unplace(draw(st.sampled_from(placed)))
    name = draw(st.sampled_from(placed))
    switch = draw(st.sampled_from(SWITCHES))
    stages = draw_stages(draw) if draw(st.booleans()) else None
    return builder.move(name, switch, stages)


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(tdg=random_tdg(), data=st.data())
def test_incremental_metrics_equal_recompute(tdg, data):
    builder = PlanBuilder(tdg, make_network())
    draw = data.draw
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        apply_random_op(draw, builder, tdg)
        assert_matches_reference(builder, tdg)


@settings(max_examples=60, deadline=None)
@given(tdg=random_tdg(), data=st.data())
def test_undo_restores_exact_state(tdg, data):
    builder = PlanBuilder(tdg, make_network())
    draw = data.draw
    # A random prefix to start from a non-trivial state.
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        apply_random_op(draw, builder, tdg)
    before = {
        "placements": builder.placements,
        "pair_bytes": builder.pair_metadata_bytes(),
        "amax": builder.max_metadata_bytes(),
        "total": builder.total_metadata_bytes(),
        "switches": sorted(builder.occupied_switches()),
        "loads": {s: builder.stage_utilization(s) for s in SWITCHES},
    }
    token = apply_random_op(draw, builder, tdg)
    builder.undo(token)
    assert builder.placements == before["placements"]
    assert builder.pair_metadata_bytes() == before["pair_bytes"]
    assert builder.max_metadata_bytes() == before["amax"]
    assert builder.total_metadata_bytes() == before["total"]
    assert sorted(builder.occupied_switches()) == before["switches"]
    for switch in SWITCHES:
        got = builder.stage_utilization(switch)
        want = before["loads"][switch]
        assert got.keys() == want.keys()
        for stage, load in want.items():
            assert got[stage] == pytest.approx(load)


@settings(max_examples=40, deadline=None)
@given(tdg=random_tdg(), data=st.data())
def test_fully_placed_builder_matches_plan(tdg, data):
    """With every MAT placed, builder metrics equal DeploymentPlan's."""
    builder = PlanBuilder(tdg, make_network())
    draw = data.draw
    for name in draw(st.permutations(sorted(tdg.node_names))):
        builder.place(name, draw(st.sampled_from(SWITCHES)), draw_stages(draw))
    plan = DeploymentPlan(tdg, make_network(), builder.placements)
    assert builder.pair_metadata_bytes() == plan.pair_metadata_bytes()
    assert builder.max_metadata_bytes() == plan.max_metadata_bytes()
    assert builder.total_metadata_bytes() == plan.total_metadata_bytes()
    assert builder.num_occupied_switches() == plan.num_occupied_switches()
    for switch in SWITCHES:
        assert builder.stage_utilization(switch) == pytest.approx(
            plan.stage_utilization(switch)
        )


# ----------------------------------------------------------------------
# Unit behavior
# ----------------------------------------------------------------------
def simple_tdg():
    tdg = Tdg("unit")
    for name in ("a", "b", "c"):
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=0.3))
    tdg.add_edge("a", "b", DependencyType.MATCH, 8)
    tdg.add_edge("b", "c", DependencyType.MATCH, 4)
    return tdg


class TestBuilderBasics:
    def test_double_place_rejected(self):
        builder = PlanBuilder(simple_tdg(), make_network())
        builder.place("a", "s0", (1,))
        with pytest.raises(DeploymentError, match="already placed"):
            builder.place("a", "s1", (1,))

    def test_unplace_missing_rejected(self):
        builder = PlanBuilder(simple_tdg(), make_network())
        with pytest.raises(DeploymentError, match="not placed"):
            builder.unplace("a")

    def test_move_missing_rejected(self):
        builder = PlanBuilder(simple_tdg(), make_network())
        with pytest.raises(DeploymentError, match="not placed"):
            builder.move("a", "s1")

    def test_move_keeps_stages_by_default(self):
        builder = PlanBuilder(simple_tdg(), make_network())
        builder.place("a", "s0", (2, 3))
        builder.move("a", "s1")
        assert builder.placements["a"].stages == (2, 3)
        assert builder.placements["a"].switch == "s1"

    def test_zero_byte_pair_still_tracked(self):
        """Pairs linked only by 0-byte edges must still demand a route."""
        tdg = Tdg("zero")
        for name in ("a", "b"):
            tdg.add_node(Mat(name, actions=[no_op()], resource_demand=0.1))
        tdg.add_edge("a", "b", DependencyType.MATCH, 0)
        builder = PlanBuilder(tdg, make_network())
        builder.place("a", "s0", (1,))
        builder.place("b", "s1", (1,))
        assert builder.pair_metadata_bytes() == {("s0", "s1"): 0}
        builder.unplace("b")
        assert builder.pair_metadata_bytes() == {}

    def test_build_validates_by_default(self):
        builder = PlanBuilder(simple_tdg(), make_network())
        builder.place("a", "s0", (1,))
        with pytest.raises(DeploymentError, match="unplaced"):
            builder.build()

    def test_route_shortest_and_build(self):
        from repro.network.paths import PathEnumerator

        net = make_network()
        builder = PlanBuilder(simple_tdg(), net)
        builder.place("a", "s0", (1,))
        builder.place("b", "s1", (1,))
        builder.place("c", "s2", (1,))
        builder.route_shortest(PathEnumerator(net))
        plan = builder.build()
        assert plan.max_metadata_bytes() == 8
        assert set(plan.routing) == {("s0", "s1"), ("s1", "s2")}

    def test_prune_routes_drops_stale_pairs(self):
        from repro.network.paths import PathEnumerator

        net = make_network()
        builder = PlanBuilder(simple_tdg(), net)
        builder.place("a", "s0", (1,))
        builder.place("b", "s1", (1,))
        builder.place("c", "s2", (1,))
        builder.route_shortest(PathEnumerator(net))
        builder.move("c", "s1", (2,))
        builder.prune_routes()
        assert set(builder.routing) == {("s0", "s1")}

    def test_from_plan_round_trip(self):
        from repro.network.paths import PathEnumerator

        net = make_network()
        builder = PlanBuilder(simple_tdg(), net)
        builder.place("a", "s0", (1,))
        builder.place("b", "s1", (1,))
        builder.place("c", "s2", (1,))
        builder.route_shortest(PathEnumerator(net))
        plan = builder.build()
        again = PlanBuilder.from_plan(plan).build()
        assert again.placements == plan.placements
        assert again.max_metadata_bytes() == plan.max_metadata_bytes()
