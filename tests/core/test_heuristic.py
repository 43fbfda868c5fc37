"""Unit tests for the greedy heuristic (Algorithm 2)."""

import gc
import pickle
import weakref

import pytest

import repro.core.heuristic as heuristic
from repro.core.analyzer import ProgramAnalyzer
from repro.core.heuristic import (
    GreedyHeuristic,
    select_switches,
    split_tdg,
)
from repro.core.replication import replicate_cheap_hubs
from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.generators import linear_topology, random_wan
from repro.network.paths import PathEnumerator
from repro.network.switch import Switch
from repro.plan import plan_fingerprint
from repro.plan.artifact import DeploymentError
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg
from repro.workloads.switchp4 import real_programs
from tests.conftest import make_sketch_program


def weighted_chain(weights, demand=0.5):
    """n+1 MATs in a chain; edge i carries weights[i] bytes."""
    tdg = Tdg("chain")
    names = [f"m{i}" for i in range(len(weights) + 1)]
    for name in names:
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=demand))
    for i, weight in enumerate(weights):
        tdg.add_edge(names[i], names[i + 1], DependencyType.MATCH, weight)
    return tdg


class TestSplitTdg:
    def test_fitting_tdg_untouched(self):
        tdg = weighted_chain([4, 4], demand=0.2)
        segments = split_tdg(tdg, Switch("ref", num_stages=4))
        assert len(segments) == 1
        assert len(segments[0]) == 3

    def test_split_cuts_cheapest_edge(self):
        # Chain of 4 MATs (2.0 demand) on 1-stage-capacity switches
        # with 2 stages (capacity 2x0.75=1.5): must split once; the
        # cheapest edge is in the middle.
        tdg = weighted_chain([9, 1, 9], demand=0.5)
        ref = Switch("ref", num_stages=2, stage_capacity=0.75)
        segments = split_tdg(tdg, ref)
        assert len(segments) == 2
        names = [set(s.node_names) for s in segments]
        assert names == [{"m0", "m1"}, {"m2", "m3"}]

    def test_independent_programs_split_for_free(self):
        programs = [make_sketch_program(f"p{i}") for i in range(4)]
        tdg = ProgramAnalyzer().analyze(programs)
        ref = Switch("ref", num_stages=4, stage_capacity=1.0)
        segments = split_tdg(tdg, ref)
        # Each segment boundary should cut zero bytes.
        for left, right in zip(segments, segments[1:]):
            assert tdg.cut_bytes(left.node_names, right.node_names) == 0

    def test_segments_are_chain_ordered(self):
        tdg = weighted_chain([4, 4, 4, 4, 4], demand=0.6)
        ref = Switch("ref", num_stages=2, stage_capacity=1.0)
        segments = split_tdg(tdg, ref)
        seen = set()
        for segment in segments:
            for edge in tdg.edges:
                if edge.downstream in segment.node_names:
                    # upstream must be in this or an earlier segment
                    assert (
                        edge.upstream in segment.node_names
                        or edge.upstream in seen
                    )
            seen.update(segment.node_names)

    def test_segments_partition_nodes(self):
        tdg = weighted_chain([1] * 9, demand=0.4)
        ref = Switch("ref", num_stages=3, stage_capacity=1.0)
        segments = split_tdg(tdg, ref)
        names = [n for s in segments for n in s.node_names]
        assert sorted(names) == sorted(tdg.node_names)
        assert len(names) == len(set(names))

    def test_unfittable_single_mat_raises(self):
        tdg = Tdg("t")
        tdg.add_node(Mat("big", actions=[no_op()], resource_demand=50.0))
        with pytest.raises(DeploymentError, match="alone"):
            split_tdg(tdg, Switch("ref", num_stages=4))

    def test_segment_count_near_capacity_bound(self):
        programs = [make_sketch_program(f"p{i}") for i in range(20)]
        tdg = ProgramAnalyzer().analyze(programs)
        ref = Switch("ref", num_stages=12, stage_capacity=1.0)
        segments = split_tdg(tdg, ref)
        lower_bound = tdg.total_resource_demand() / ref.total_capacity
        assert len(segments) <= max(3, 3 * lower_bound)


class TestSelectSwitches:
    def test_orders_by_latency_from_anchor(self):
        net = linear_topology(4, link_latency_ms=1.0)
        paths = PathEnumerator(net)
        assert select_switches("s0", net, paths) == ["s0", "s1", "s2", "s3"]

    def test_epsilon2_caps_count(self):
        net = linear_topology(4)
        paths = PathEnumerator(net)
        assert len(select_switches("s0", net, paths, epsilon2=2)) == 2

    def test_epsilon1_filters_far_switches(self):
        net = linear_topology(3, link_latency_ms=10.0)  # 10ms per hop
        paths = PathEnumerator(net)
        near = select_switches("s0", net, paths, epsilon1=15_000.0)
        assert near == ["s0", "s1"]

    def test_anchor_always_first(self):
        net = random_wan(20, 30, seed=3)
        paths = PathEnumerator(net)
        anchor = net.programmable_names()[0]
        assert select_switches(anchor, net, paths)[0] == anchor


class TestGreedyHeuristic:
    def test_deploys_and_validates(self, six_programs, small_line):
        tdg = ProgramAnalyzer().analyze(six_programs)
        plan = GreedyHeuristic().deploy(tdg, small_line)
        plan.validate()
        assert len(plan.placements) == len(tdg)

    def test_independent_programs_get_zero_overhead(
        self, six_programs, small_line
    ):
        tdg = ProgramAnalyzer().analyze(six_programs)
        plan = GreedyHeuristic().deploy(tdg, small_line)
        assert plan.max_metadata_bytes() == 0

    def test_prefers_keeping_heavy_edges_local(self):
        # One chain with a single cheap edge among expensive ones.
        tdg = weighted_chain([50, 50, 2, 50, 50], demand=0.6)
        net = linear_topology(2, num_stages=3, stage_capacity=1.0)
        plan = GreedyHeuristic().deploy(tdg, net)
        assert plan.max_metadata_bytes() == 2

    def test_respects_epsilon2(self, six_programs):
        net = linear_topology(4, num_stages=4, stage_capacity=1.0)
        tdg = ProgramAnalyzer().analyze(six_programs)
        plan = GreedyHeuristic(epsilon2=3).deploy(tdg, net)
        assert plan.num_occupied_switches() <= 3

    def test_fails_when_epsilon2_too_tight(self, six_programs):
        net = linear_topology(4, num_stages=4, stage_capacity=1.0)
        tdg = ProgramAnalyzer().analyze(six_programs)
        with pytest.raises(DeploymentError):
            GreedyHeuristic(epsilon2=1).deploy(tdg, net)

    def test_no_programmable_switches(self, six_programs):
        net = linear_topology(3, programmable=False)
        tdg = ProgramAnalyzer().analyze(six_programs)
        with pytest.raises(DeploymentError):
            GreedyHeuristic().deploy(tdg, net)

    def test_rejects_bad_epsilons(self):
        with pytest.raises(ValueError):
            GreedyHeuristic(epsilon1=0)
        with pytest.raises(ValueError):
            GreedyHeuristic(epsilon2=0)

    def test_routing_covers_all_pairs(self):
        tdg = weighted_chain([4] * 5, demand=0.6)
        net = linear_topology(3, num_stages=2, stage_capacity=1.0)
        plan = GreedyHeuristic().deploy(tdg, net)
        for pair in plan.pair_metadata_bytes():
            assert pair in plan.routing

    def test_works_on_wan(self):
        programs = [make_sketch_program(f"p{i}") for i in range(10)]
        tdg = ProgramAnalyzer().analyze(programs)
        net = random_wan(30, 40, seed=11)
        plan = GreedyHeuristic().deploy(tdg, net)
        plan.validate()

    def test_failed_split_keeps_no_cycle_to_the_plan(self):
        """The min-cut deploy fails here, so the chain plan is returned
        after a caught error.  Dropping the plan frees it at once: no
        traceback kept from that error holds the frame that built
        it."""
        tdg = ProgramAnalyzer().analyze(real_programs(10))
        net = random_wan(16, 24, seed=2, num_stages=4)
        with pytest.raises(DeploymentError):
            GreedyHeuristic()._deploy_min_cut(tdg, net, PathEnumerator(net))
        gc.collect()
        gc.disable()
        try:
            plan = GreedyHeuristic().deploy(tdg, net)
            ref = weakref.ref(plan)
            del plan
            assert ref() is None
        finally:
            gc.enable()


class TestSplitMemo:
    """The default split is memoized on the TDG, keyed by the reference
    switch's shape and the fill floor; a deploy that hits the memo must
    give the plan a freshly analysed copy of the workload gives."""

    @pytest.fixture
    def split_calls(self, monkeypatch):
        """The graphs ``split_tdg`` is called on, in call order."""
        calls = []
        original = heuristic.split_tdg

        def recording(tdg, reference, fill_floor=None):
            calls.append(tdg)
            return original(tdg, reference, fill_floor)

        monkeypatch.setattr(heuristic, "split_tdg", recording)
        return calls

    @staticmethod
    def deploy_both(programs, tdg, network, **kwargs):
        """Deploy ``tdg`` and a fresh analysis of ``programs``; both
        plans must be the same."""
        memoized = GreedyHeuristic(**kwargs).deploy(tdg, network)
        fresh = GreedyHeuristic(**kwargs).deploy(
            ProgramAnalyzer().analyze(programs), network
        )
        assert list(memoized.placements.items()) == list(
            fresh.placements.items()
        )
        assert list(memoized.routing.items()) == list(fresh.routing.items())
        assert plan_fingerprint(memoized) == plan_fingerprint(fresh)
        return memoized

    @staticmethod
    def wan(num_stages):
        return random_wan(16, 24, seed=2, num_stages=num_stages)

    def test_same_and_different_reference_shapes(self, split_calls):
        programs = real_programs(10)
        tdg = ProgramAnalyzer().analyze(programs)
        networks = {stages: self.wan(stages) for stages in (4, 6)}
        for stages in (4, 4, 6, 4, 6):
            self.deploy_both(programs, tdg, networks[stages])
        # One split per reference shape; the repeats hit the memo.
        assert sum(call is tdg for call in split_calls) == 2
        memo = tdg.memoized(heuristic._split_memo)
        assert sorted(key[0] for key in memo) == [4, 6]

    def test_epsilon2_resplit_goes_through_the_memo(self, split_calls):
        programs = real_programs(10)
        tdg = ProgramAnalyzer().analyze(programs)
        network = self.wan(6)
        for _ in range(2):
            self.deploy_both(programs, tdg, network, epsilon2=4)
        # The default floor and the raised one, each split once.
        assert sum(call is tdg for call in split_calls) == 2
        floors = sorted(key[2] for key in tdg.memoized(heuristic._split_memo))
        assert floors[0] == heuristic.FILL_FLOOR < floors[1]

    def test_patched_fill_floor_misses_the_memo(
        self, split_calls, monkeypatch
    ):
        programs = real_programs(10)
        tdg = ProgramAnalyzer().analyze(programs)
        network = self.wan(4)
        default = self.deploy_both(programs, tdg, network)
        reference = min(
            network.programmable_switches(), key=lambda s: s.total_capacity
        )
        assert len(split_tdg(tdg, reference, 0.7)) != len(
            split_tdg(tdg, reference)
        )
        monkeypatch.setattr(heuristic, "FILL_FLOOR", 0.7)
        split_calls.clear()
        patched = self.deploy_both(programs, tdg, network)
        assert sum(call is tdg for call in split_calls) == 1
        assert plan_fingerprint(patched) != plan_fingerprint(default)

    def test_one_segment_split_does_not_hold_the_graph(self, split_calls):
        programs = real_programs(2)
        tdg = ProgramAnalyzer().analyze(programs)
        network = self.wan(12)
        for _ in range(2):
            plan = self.deploy_both(programs, tdg, network)
        assert plan.num_occupied_switches() == 1
        assert sum(call is tdg for call in split_calls) == 1
        (entry,) = tdg.memoized(heuristic._split_memo).values()
        assert not isinstance(entry, list)

    def test_one_segment_split_survives_pickling(self):
        """The one-segment marker must still read as one after the
        graph, memo included, is pickled and loaded."""
        programs = real_programs(2)
        tdg = ProgramAnalyzer().analyze(programs)
        network = self.wan(12)
        plan = GreedyHeuristic().deploy(tdg, network)
        assert plan.num_occupied_switches() == 1
        copy = pickle.loads(pickle.dumps(tdg))
        again = GreedyHeuristic().deploy(copy, network)
        assert plan_fingerprint(again) == plan_fingerprint(plan)
        assert tdg.memoized(heuristic._split_memo) == copy.memoized(
            heuristic._split_memo
        )

    def test_custom_splitter_bypasses_the_memo(self):
        programs = real_programs(10)
        tdg = ProgramAnalyzer().analyze(programs)
        calls = []

        def splitter(graph, reference):
            calls.append(graph)
            return split_tdg(graph, reference)

        for _ in range(2):
            GreedyHeuristic(splitter=splitter).deploy(tdg, self.wan(4))
        assert len(calls) == 2
        assert not tdg.memoized(heuristic._split_memo)

    @pytest.mark.parametrize("replicate_hubs", (True, "auto"))
    def test_replicated_graph_is_split_once(
        self, split_calls, replicate_hubs
    ):
        """The hub-replicated graph is memoized on the source graph, so
        its split memo outlives a deploy."""
        programs = real_programs(10)
        tdg = ProgramAnalyzer().analyze(programs)
        network = self.wan(4)
        solver = GreedyHeuristic(replicate_hubs=replicate_hubs)
        plans = [solver.deploy(tdg, network) for _ in range(3)]
        replicated = [call for call in split_calls if call is not tdg]
        assert len(replicated) == 1
        assert replicated[0] is tdg.memoized(replicate_cheap_hubs)
        # "auto" also deploys the graph unreplicated, split once too.
        assert sum(call is tdg for call in split_calls) == (
            1 if replicate_hubs == "auto" else 0
        )
        fresh = GreedyHeuristic(replicate_hubs=replicate_hubs).deploy(
            ProgramAnalyzer().analyze(programs), network
        )
        for plan in plans:
            assert plan_fingerprint(plan) == plan_fingerprint(fresh)
