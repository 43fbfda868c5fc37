"""Unit tests for the TDG data structure."""

import pytest

from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import CycleError, Tdg


def mat(name, demand=0.2):
    return Mat(name, actions=[no_op()], resource_demand=demand)


def chain(*names, bytes_per_edge=4):
    tdg = Tdg("chain")
    for name in names:
        tdg.add_node(mat(name))
    for up, down in zip(names, names[1:]):
        tdg.add_edge(up, down, DependencyType.MATCH, bytes_per_edge)
    return tdg


class TestConstruction:
    def test_add_node_idempotent_for_equal_mat(self):
        tdg = Tdg()
        tdg.add_node(mat("a"))
        tdg.add_node(mat("a"))
        assert len(tdg) == 1

    def test_add_node_rejects_conflicting_mat(self):
        tdg = Tdg()
        tdg.add_node(mat("a"))
        with pytest.raises(ValueError, match="different MAT"):
            tdg.add_node(mat("a", demand=0.9))

    def test_add_edge_requires_nodes(self):
        tdg = Tdg()
        tdg.add_node(mat("a"))
        with pytest.raises(KeyError):
            tdg.add_edge("a", "ghost", DependencyType.MATCH)
        with pytest.raises(KeyError):
            tdg.add_edge("ghost", "a", DependencyType.MATCH)

    def test_rejects_self_loop(self):
        tdg = Tdg()
        tdg.add_node(mat("a"))
        with pytest.raises(CycleError):
            tdg.add_edge("a", "a", DependencyType.MATCH)

    def test_rejects_cycle(self):
        tdg = chain("a", "b", "c")
        with pytest.raises(CycleError):
            tdg.add_edge("c", "a", DependencyType.MATCH)

    def test_rejects_duplicate_edge(self):
        tdg = chain("a", "b")
        with pytest.raises(ValueError, match="already present"):
            tdg.add_edge("a", "b", DependencyType.ACTION)

    def test_rejects_negative_bytes(self):
        tdg = Tdg()
        tdg.add_node(mat("a"))
        tdg.add_node(mat("b"))
        with pytest.raises(ValueError, match="non-negative"):
            tdg.add_edge("a", "b", DependencyType.MATCH, -1)

    def test_remove_node_cleans_edges(self):
        tdg = chain("a", "b", "c")
        tdg.remove_node("b")
        assert "b" not in tdg
        assert not tdg.edges

    def test_remove_edge(self):
        tdg = chain("a", "b")
        tdg.remove_edge("a", "b")
        assert not tdg.has_edge("a", "b")
        with pytest.raises(KeyError):
            tdg.remove_edge("a", "b")


class TestQueries:
    def test_sources_and_sinks(self):
        tdg = chain("a", "b", "c")
        assert tdg.sources() == ["a"]
        assert tdg.sinks() == ["c"]

    def test_predecessors_successors(self):
        tdg = chain("a", "b", "c")
        assert tdg.successors("a") == {"b"}
        assert tdg.predecessors("c") == {"b"}

    def test_has_path(self):
        tdg = chain("a", "b", "c")
        assert tdg.has_path("a", "c")
        assert tdg.has_path("a", "a")
        assert not tdg.has_path("c", "a")
        assert not tdg.has_path("a", "ghost")

    def test_in_out_edges(self):
        tdg = chain("a", "b", "c")
        assert [e.downstream for e in tdg.out_edges("a")] == ["b"]
        assert [e.upstream for e in tdg.in_edges("c")] == ["b"]

    def test_totals(self):
        tdg = chain("a", "b", "c", bytes_per_edge=5)
        assert tdg.total_metadata_bytes() == 10
        assert tdg.total_resource_demand() == pytest.approx(0.6)

    def test_node_lookup_errors(self):
        tdg = Tdg("g")
        with pytest.raises(KeyError, match="no MAT"):
            tdg.node("ghost")
        with pytest.raises(KeyError, match="no edge"):
            tdg.edge("a", "b")


class TestTopologicalOrder:
    def test_kahn_respects_edges(self):
        tdg = chain("a", "b", "c")
        order = tdg.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_dfs_respects_edges(self):
        tdg = chain("a", "b", "c")
        order = tdg.topological_order(strategy="dfs")
        assert order.index("a") < order.index("b") < order.index("c")

    def test_dfs_keeps_components_contiguous(self):
        tdg = Tdg()
        for name in ("a1", "b1", "a2", "b2"):
            tdg.add_node(mat(name))
        tdg.add_edge("a1", "a2", DependencyType.MATCH)
        tdg.add_edge("b1", "b2", DependencyType.MATCH)
        order = tdg.topological_order(strategy="dfs")
        a_positions = [order.index("a1"), order.index("a2")]
        b_positions = [order.index("b1"), order.index("b2")]
        # One component entirely before the other.
        assert max(a_positions) < min(b_positions) or max(
            b_positions
        ) < min(a_positions)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            Tdg().topological_order(strategy="magic")


class TestDerivation:
    def test_copy_is_independent(self):
        tdg = chain("a", "b")
        clone = tdg.copy("clone")
        clone.remove_node("a")
        assert "a" in tdg

    def test_subgraph_keeps_internal_edges(self):
        tdg = chain("a", "b", "c")
        sub = tdg.subgraph(["a", "b"])
        assert sub.has_edge("a", "b")
        assert len(sub) == 2
        assert not sub.has_edge("b", "c")

    def test_subgraph_rejects_unknown(self):
        with pytest.raises(KeyError, match="unknown"):
            chain("a", "b").subgraph(["a", "ghost"])

    def test_cut_bytes(self):
        tdg = chain("a", "b", "c", bytes_per_edge=7)
        assert tdg.cut_bytes(["a"], ["b", "c"]) == 7
        assert tdg.cut_bytes(["a", "b"], ["c"]) == 7
        assert tdg.cut_bytes(["c"], ["a"]) == 0


def _edge_keys(tdg):
    return [edge.key for edge in tdg.edges]


class TestMemo:
    def test_assigning_the_same_name_keeps_the_memo(self):
        tdg = chain("a", "b", "c")
        keys = tdg.memoized(_edge_keys)
        tdg.name = tdg.name
        assert tdg.memoized(_edge_keys) is keys

    def test_a_rename_clears_the_memo(self):
        tdg = chain("a", "b", "c")
        keys = tdg.memoized(_edge_keys)
        tdg.name = "renamed"
        again = tdg.memoized(_edge_keys)
        assert again == keys and again is not keys

    def test_one_switch_heuristic_deploy_keeps_the_memo(self):
        """The splitter names the last segment after the graph; when the
        graph fits one switch that segment is the graph itself."""
        from repro.core.heuristic import GreedyHeuristic
        from repro.network.generators import linear_topology

        tdg = chain("a", "b", "c")
        keys = tdg.memoized(_edge_keys)
        plan = GreedyHeuristic().deploy(tdg, linear_topology(3))
        assert plan.num_occupied_switches() == 1
        assert tdg.memoized(_edge_keys) is keys
