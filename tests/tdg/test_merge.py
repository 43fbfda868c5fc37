"""Unit tests for SPEED-style TDG merging."""

import pytest

from repro.dataplane.actions import hash_compute, modify, no_op
from repro.dataplane.fields import header_field, metadata_field
from repro.dataplane.mat import Mat
from repro.dataplane.program import Program
from repro.tdg.builder import build_tdg
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import CycleError, Tdg
from repro.tdg.merge import merge_pair, merge_tdgs


HDR = header_field("ipv4.src", 32)
SHARED_IDX = metadata_field("shared.idx", 32)


def shared_hash_mat():
    return Mat(
        "hash",
        match_fields=[HDR],
        actions=[hash_compute(SHARED_IDX, [HDR])],
        capacity=16,
        resource_demand=0.2,
    )


def program_with_shared_hash(name, value_bits=32):
    value = metadata_field(f"{name}.val", value_bits)
    consumer = Mat(
        "consume",
        match_fields=[SHARED_IDX],
        actions=[modify(value)],
        capacity=64,
        resource_demand=0.3,
    )
    return Program(name, [shared_hash_mat(), consumer])


class TestMergePair:
    def test_union_without_redundancy(self, six_programs):
        t1 = build_tdg(six_programs[0])
        t2 = build_tdg(six_programs[1])
        merged = merge_pair(t1, t2)
        assert len(merged) == len(t1) + len(t2)
        assert len(merged.edges) == len(t1.edges) + len(t2.edges)

    def test_redundant_mats_deduplicated(self):
        t1 = build_tdg(program_with_shared_hash("a"))
        t2 = build_tdg(program_with_shared_hash("b"))
        merged = merge_pair(t1, t2)
        # 4 nodes minus 1 duplicated hash.
        assert len(merged) == 3

    def test_dedup_redirects_edges(self):
        t1 = build_tdg(program_with_shared_hash("a"))
        t2 = build_tdg(program_with_shared_hash("b"))
        merged = merge_pair(t1, t2)
        # The surviving hash MAT feeds both consumers.
        hash_nodes = [
            n for n in merged.node_names if n.endswith(".hash")
        ]
        assert len(hash_nodes) == 1
        assert len(merged.successors(hash_nodes[0])) == 2

    def test_merged_graph_stays_acyclic(self):
        t1 = build_tdg(program_with_shared_hash("a"))
        t2 = build_tdg(program_with_shared_hash("b"))
        merge_pair(t1, t2).topological_order()

    def test_dedup_skipped_when_it_would_create_cycle(self):
        # g1: X -> A ; g2: B -> X'  with X, X' redundant and A, B
        # arranged so collapsing X' into X would need B -> X while
        # X -> ... -> B exists.
        shared = Mat("x", actions=[no_op()], resource_demand=0.1)
        a = Mat("a", actions=[no_op("na")], capacity=2)
        b = Mat("b", actions=[no_op("nb")], capacity=3)
        g1 = Tdg("g1")
        g1.add_node(shared)
        g1.add_node(a)
        g1.add_edge("x", "a", DependencyType.SUCCESSOR)
        g1.add_edge("a", "b2_placeholder", DependencyType.SUCCESSOR) if False else None
        g2 = Tdg("g2")
        dup = Mat("x2", actions=[no_op()], resource_demand=0.1)
        g2.add_node(dup)
        g2.add_node(b)
        g2.add_edge("b", "x2", DependencyType.SUCCESSOR)
        merged = merge_pair(g1, g2)
        # Either deduplicated safely or kept both; graph must be a DAG.
        merged.topological_order()

    def test_union_with_a_shared_node_keeps_the_checks(self):
        """Graphs that share a node still go through ``add_edge``: an
        edge both hold is kept once, and a t2 edge that closes a cycle
        through the shared node raises."""
        x = Mat("x", actions=[no_op()], resource_demand=0.1)
        a = Mat("a", actions=[no_op("na")], capacity=2)
        b = Mat("b", actions=[no_op("nb")], capacity=3)
        g1 = Tdg("g1")
        for mat in (x, a, b):
            g1.add_node(mat)
        g1.add_edge("x", "a", DependencyType.SUCCESSOR, 4)
        g1.add_edge("a", "b", DependencyType.SUCCESSOR)
        g2 = Tdg("g2")
        g2.add_node(x)
        g2.add_node(a)
        g2.add_edge("x", "a", DependencyType.SUCCESSOR, 4)
        merged = merge_pair(g1, g2)
        assert [e.key for e in merged.edges] == [("x", "a"), ("a", "b")]
        g2.add_node(b)
        g2.add_edge("b", "x", DependencyType.SUCCESSOR)
        with pytest.raises(CycleError):
            merge_pair(g1, g2)


class TestMergeTdgs:
    def test_requires_input(self):
        with pytest.raises(ValueError):
            merge_tdgs([])

    def test_single_graph_passthrough(self, sketch_program):
        tdg = build_tdg(sketch_program)
        merged = merge_tdgs([tdg], name="T_m")
        assert merged.name == "T_m"
        assert len(merged) == len(tdg)

    def test_single_graph_is_copied_not_renamed(self, sketch_program):
        """One input comes back as a renamed copy; the caller's graph
        keeps its name, nodes and edges."""
        tdg = build_tdg(sketch_program)
        nodes, edges = tdg.node_names, tdg.edges
        merged = merge_tdgs([tdg], name="T_m")
        assert merged is not tdg
        assert tdg.name == sketch_program.name
        assert (tdg.node_names, tdg.edges) == (nodes, edges)
        assert (merged.node_names, merged.edges) == (nodes, edges)
        merged.remove_node(nodes[0])
        assert tdg.node_names == nodes

    def test_merges_many(self, six_programs):
        tdgs = [build_tdg(p) for p in six_programs]
        merged = merge_tdgs(tdgs)
        assert len(merged) == sum(len(t) for t in tdgs)
        merged.topological_order()

    def test_shared_mats_deduplicated_across_many(self):
        tdgs = [
            build_tdg(program_with_shared_hash(f"p{i}")) for i in range(5)
        ]
        merged = merge_tdgs(tdgs)
        # 10 nodes, 4 duplicate hashes removed.
        assert len(merged) == 6
        hash_nodes = [n for n in merged.node_names if n.endswith(".hash")]
        assert len(hash_nodes) == 1
        assert len(merged.successors(hash_nodes[0])) == 5

    def test_resource_demand_shrinks_with_dedup(self):
        tdgs = [
            build_tdg(program_with_shared_hash(f"p{i}")) for i in range(3)
        ]
        separate = sum(t.total_resource_demand() for t in tdgs)
        merged = merge_tdgs(tdgs)
        assert merged.total_resource_demand() < separate
