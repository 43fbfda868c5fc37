"""Unit tests for metadata-size analysis (Algorithm 1)."""

from repro.dataplane.actions import modify, no_op
from repro.dataplane.fields import header_field, metadata_field
from repro.dataplane.mat import Mat
from repro.tdg.analysis import annotate_metadata_sizes, edge_metadata_bytes
from repro.tdg.builder import build_tdg
from repro.tdg.dependencies import DependencyType
from repro.dataplane.program import Program


META4 = metadata_field("m.four", 32)
META6 = metadata_field("m.six", 48)
HDR = header_field("ipv4.src", 32)


class TestEdgeMetadataBytes:
    def test_match_counts_upstream_metadata_writes(self):
        up = Mat("u", actions=[modify(META4), modify(META6)])
        down = Mat("d", match_fields=[META4], actions=[no_op()])
        assert (
            edge_metadata_bytes(up, down, DependencyType.MATCH) == 4 + 6
        )

    def test_match_ignores_header_writes(self):
        up = Mat("u", actions=[modify(HDR), modify(META4)])
        down = Mat("d", match_fields=[META4], actions=[no_op()])
        assert edge_metadata_bytes(up, down, DependencyType.MATCH) == 4

    def test_action_counts_union(self):
        up = Mat("u", actions=[modify(META4)])
        down = Mat("d", actions=[modify(META4), modify(META6)])
        assert (
            edge_metadata_bytes(up, down, DependencyType.ACTION) == 4 + 6
        )

    def test_reverse_is_free(self):
        up = Mat("u", match_fields=[META4], actions=[no_op()])
        down = Mat("d", actions=[modify(META4)])
        assert edge_metadata_bytes(up, down, DependencyType.REVERSE) == 0

    def test_successor_counts_upstream_writes(self):
        up = Mat("u", actions=[modify(META6)])
        down = Mat("d", match_fields=[HDR], actions=[no_op()])
        assert edge_metadata_bytes(up, down, DependencyType.SUCCESSOR) == 6

    def test_header_only_edge_is_free(self):
        up = Mat("u", actions=[modify(HDR)])
        down = Mat("d", match_fields=[HDR], actions=[no_op()])
        assert edge_metadata_bytes(up, down, DependencyType.MATCH) == 0


class TestAnnotate:
    def test_annotates_in_place_and_returns_graph(self, sketch_program):
        tdg = build_tdg(sketch_program)
        assert all(e.metadata_bytes == 0 for e in tdg.edges)
        result = annotate_metadata_sizes(tdg)
        assert result is tdg
        edge = tdg.edge("sk.hash", "sk.update")
        assert edge.metadata_bytes == 4  # 32-bit index

    def test_sizes_follow_field_widths(self):
        wide = metadata_field("m.wide", 96)
        up = Mat("u", actions=[modify(wide)])
        down = Mat("d", match_fields=[wide], actions=[no_op()])
        tdg = build_tdg(Program("p", [up, down]))
        annotate_metadata_sizes(tdg)
        assert tdg.edge("p.u", "p.d").metadata_bytes == 12

    def test_idempotent(self, sketch_program):
        tdg = annotate_metadata_sizes(build_tdg(sketch_program))
        before = {e.key: e.metadata_bytes for e in tdg.edges}
        annotate_metadata_sizes(tdg)
        assert {e.key: e.metadata_bytes for e in tdg.edges} == before
