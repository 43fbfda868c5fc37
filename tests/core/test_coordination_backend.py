"""Unit tests for coordination analysis and the backend."""

import pytest

from repro.core.analyzer import ProgramAnalyzer
from repro.core.backend import Backend
from repro.core.coordination import CoordinationAnalysis, edge_metadata_fields
from repro.core.heuristic import GreedyHeuristic
from repro.dataplane.actions import modify, no_op
from repro.dataplane.fields import header_field, metadata_field
from repro.dataplane.mat import Mat
from repro.network.generators import linear_topology, random_wan
from repro.tdg.dependencies import DependencyType
from repro.workloads.switchp4 import real_programs
from tests.conftest import make_sketch_program


@pytest.fixture
def split_plan():
    """A deployment guaranteed to cross switches."""
    programs = [make_sketch_program(f"p{i}", index_bytes=4) for i in range(4)]
    tdg = ProgramAnalyzer().analyze(programs)
    # Two stages per switch but three-MAT chains: every program is
    # forced to split across switches.
    net = linear_topology(8, num_stages=2, stage_capacity=1.0)
    plan = GreedyHeuristic().deploy(tdg, net)
    assert plan.max_metadata_bytes() > 0, "fixture must cross switches"
    return plan


class TestEdgeMetadataFields:
    def test_match_returns_upstream_metadata(self):
        meta = metadata_field("m.x", 32)
        hdr = header_field("h", 32)
        up = Mat("u", actions=[modify(meta), modify(hdr)])
        down = Mat("d", match_fields=[meta], actions=[no_op()])
        fields = edge_metadata_fields(up, down, DependencyType.MATCH)
        assert fields.names == frozenset({"m.x"})

    def test_reverse_returns_empty(self):
        up = Mat("u", actions=[no_op()])
        down = Mat("d", actions=[no_op()])
        assert not edge_metadata_fields(up, down, DependencyType.REVERSE)


class TestCoordinationAnalysis:
    def test_declared_matches_plan_metric(self, split_plan):
        analysis = CoordinationAnalysis(split_plan)
        assert (
            analysis.max_declared_bytes()
            == split_plan.max_metadata_bytes()
        )
        assert (
            analysis.total_declared_bytes()
            == split_plan.total_metadata_bytes()
        )

    def test_channels_cover_all_communicating_pairs(self, split_plan):
        analysis = CoordinationAnalysis(split_plan)
        assert set(analysis.channels) == set(
            split_plan.pair_metadata_bytes()
        )

    def test_layout_never_exceeds_declared(self, split_plan):
        analysis = CoordinationAnalysis(split_plan)
        for channel in analysis.channels.values():
            assert channel.layout_bytes <= channel.declared_bytes
            # Offsets are contiguous and ordered.
            offset = 0
            for field, off in channel.layout:
                assert off == offset
                offset += field.size_bytes
            assert offset == channel.layout_bytes

    def test_channel_lookup(self, split_plan):
        analysis = CoordinationAnalysis(split_plan)
        pair = next(iter(analysis.channels))
        assert analysis.channel(*pair) is analysis.channels[pair]
        with pytest.raises(KeyError):
            analysis.channel("ghost", "ghost2")

    def test_empty_plan_has_no_channels(self):
        programs = [make_sketch_program("solo")]
        tdg = ProgramAnalyzer().analyze(programs)
        net = linear_topology(1, num_stages=4)
        plan = GreedyHeuristic().deploy(tdg, net)
        analysis = CoordinationAnalysis(plan)
        assert len(analysis) == 0
        assert analysis.max_declared_bytes() == 0
        assert analysis.max_layout_bytes() == 0


class TestBackend:
    def test_configs_for_every_occupied_switch(self, split_plan):
        configs = Backend().compile(split_plan)
        assert set(configs) == set(split_plan.occupied_switches())

    def test_stage_programs_match_placements(self, split_plan):
        configs = Backend().compile(split_plan)
        for name, config in configs.items():
            stage_mats = [
                m for sp in config.stages for m in sp.mat_names
            ]
            assert sorted(set(stage_mats)) == sorted(
                split_plan.mats_on(name)
            )

    def test_emit_and_extract_are_symmetric(self, split_plan):
        configs = Backend().compile(split_plan)
        for name, config in configs.items():
            for peer, layout in config.emit_headers.items():
                assert configs[peer].extract_headers[name] == layout

    def test_forwarding_next_hop_on_path(self, split_plan):
        configs = Backend().compile(split_plan)
        for config in configs.values():
            for entry in config.forwarding:
                assert entry.path[0] == config.switch
                assert entry.next_hop == entry.path[1]
                assert entry.path[-1] == entry.destination_switch

    def test_configs_ignore_the_routing_order(self):
        """Forwarding entries come out in pair order, however the
        routing was built."""
        tdg = ProgramAnalyzer().analyze(real_programs(10))
        net = random_wan(16, 24, seed=3, num_stages=4)
        plan = GreedyHeuristic().deploy(tdg, net)
        backwards = plan.with_routing(
            dict(reversed(list(plan.routing.items())))
        )

        def compiled(plan):
            configs = Backend().compile(plan)
            return [(name, c.to_dict()) for name, c in configs.items()]

        assert max(len(c["forwarding"]) for _n, c in compiled(plan)) > 1
        assert compiled(backwards) == compiled(plan)

    def test_to_dict_is_json_ready(self, split_plan):
        import json

        configs = Backend().compile(split_plan)
        for config in configs.values():
            json.dumps(config.to_dict())

    def test_stage_loads_within_capacity(self, split_plan):
        configs = Backend().compile(split_plan)
        for name, config in configs.items():
            capacity = split_plan.network.switch(name).stage_capacity
            for stage_program in config.stages:
                assert stage_program.load <= capacity + 1e-9
