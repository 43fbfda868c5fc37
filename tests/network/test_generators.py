"""Unit tests for topology generators and the Table III zoo."""

import pytest

from repro.network.generators import fat_tree, linear_topology, random_wan
from repro.network.topozoo import TABLE_III_TOPOLOGIES, topology_zoo_wan


class TestLinear:
    def test_shape(self):
        net = linear_topology(5)
        assert net.num_switches == 5
        assert net.num_links == 4
        assert net.is_connected()
        assert net.degree("s0") == 1
        assert net.degree("s2") == 2

    def test_single_switch(self):
        net = linear_topology(1)
        assert net.num_links == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            linear_topology(0)

    def test_non_programmable_option(self):
        net = linear_topology(3, programmable=False)
        assert not net.programmable_switches()


class TestFatTree:
    def test_k4_shape(self):
        net = fat_tree(4)
        # 4 cores + 4 pods x (2 agg + 2 edge) = 20
        assert net.num_switches == 20
        assert net.is_connected()

    def test_core_is_fixed_function(self):
        net = fat_tree(4)
        assert not net.switch("core0").programmable
        assert net.switch("pod0_agg0").programmable
        assert net.switch("pod0_edge1").programmable

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            fat_tree(3)


class TestRandomWan:
    def test_is_connected_and_sized(self):
        net = random_wan(30, 45, seed=1)
        assert net.num_switches == 30
        assert net.num_links == 45
        assert net.is_connected()

    def test_deterministic_per_seed(self):
        a = random_wan(20, 30, seed=5)
        b = random_wan(20, 30, seed=5)
        assert {link.key for link in a.links} == {link.key for link in b.links}
        assert a.programmable_names() == b.programmable_names()

    def test_different_seeds_differ(self):
        a = random_wan(20, 30, seed=5)
        b = random_wan(20, 30, seed=6)
        assert {link.key for link in a.links} != {link.key for link in b.links}

    def test_programmable_fraction(self):
        net = random_wan(40, 50, seed=2, programmable_fraction=0.5)
        assert len(net.programmable_switches()) == 20

    def test_at_least_one_programmable(self):
        net = random_wan(10, 12, seed=3, programmable_fraction=0.0)
        assert len(net.programmable_switches()) == 1

    def test_link_latencies_in_paper_range(self):
        net = random_wan(20, 30, seed=4)
        for link in net.links:
            assert 1.0 <= link.latency_ms <= 10.0

    def test_edge_count_validation(self):
        with pytest.raises(ValueError):
            random_wan(10, 5, seed=0)  # below spanning tree
        with pytest.raises(ValueError):
            random_wan(4, 7, seed=0)  # above complete graph
        with pytest.raises(ValueError):
            random_wan(0, 0, seed=0)


class TestTopologyZoo:
    def test_table_iii_has_ten_entries(self):
        assert sorted(TABLE_III_TOPOLOGIES) == list(range(1, 11))

    @pytest.mark.parametrize("topology_id", sorted(TABLE_III_TOPOLOGIES))
    def test_matches_table_counts(self, topology_id):
        nodes, edges = TABLE_III_TOPOLOGIES[topology_id]
        net = topology_zoo_wan(topology_id)
        assert net.num_switches == nodes
        assert net.num_links == edges
        assert net.is_connected()

    def test_deterministic(self):
        a = topology_zoo_wan(4)
        b = topology_zoo_wan(4)
        assert {link.key for link in a.links} == {link.key for link in b.links}

    def test_rejects_unknown_id(self):
        with pytest.raises(ValueError):
            topology_zoo_wan(11)

    def test_half_programmable(self):
        net = topology_zoo_wan(1)
        frac = len(net.programmable_switches()) / net.num_switches
        assert 0.4 <= frac <= 0.6
