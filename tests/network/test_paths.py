"""Unit tests for path enumeration."""

import pytest

from repro.network.catalog import resolve
from repro.network.generators import linear_topology
from repro.network.paths import (
    Path,
    PathEnumerator,
    k_shortest_paths,
    path_latency_us,
    shortest_path,
)
from repro.network.switch import Switch
from repro.network.topology import Network


def diamond():
    """a - b - d and a - c - d with c-side slower."""
    net = Network("diamond")
    for name in "abcd":
        net.add_switch(Switch(name, latency_us=1.0))
    net.connect("a", "b", latency_ms=1.0)
    net.connect("b", "d", latency_ms=1.0)
    net.connect("a", "c", latency_ms=5.0)
    net.connect("c", "d", latency_ms=5.0)
    return net


class TestPath:
    def test_properties(self):
        p = Path(("a", "b", "c"), 10.0)
        assert p.source == "a"
        assert p.destination == "c"
        assert p.hop_count == 2
        assert p.links() == [("a", "b"), ("b", "c")]
        assert p.contains("b")
        assert p.contains_link("b", "a")
        assert not p.contains_link("a", "c")

    def test_rejects_revisits(self):
        with pytest.raises(ValueError, match="revisits"):
            Path(("a", "b", "a"), 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Path((), 0.0)


class TestShortestPath:
    def test_prefers_low_latency(self):
        net = diamond()
        path = shortest_path(net, "a", "d")
        assert path.switches == ("a", "b", "d")

    def test_latency_sums_switches_and_links(self):
        net = diamond()
        path = shortest_path(net, "a", "d")
        # 3 switches x 1 us + 2 links x 1000 us
        assert path.latency_us == pytest.approx(2003.0)
        assert path_latency_us(net, path.switches) == pytest.approx(2003.0)

    def test_unreachable_returns_none(self):
        net = diamond()
        net.add_switch(Switch("island"))
        assert shortest_path(net, "a", "island") is None


class TestKShortest:
    def test_returns_distinct_paths_in_order(self):
        net = diamond()
        paths = k_shortest_paths(net, "a", "d", 5)
        assert len(paths) == 2
        assert paths[0].latency_us <= paths[1].latency_us
        assert paths[0].switches != paths[1].switches

    def test_k_limits_output(self):
        net = diamond()
        assert len(k_shortest_paths(net, "a", "d", 1)) == 1

    def test_zero_k(self):
        assert k_shortest_paths(diamond(), "a", "d", 0) == []

    def test_line_has_single_path(self):
        net = linear_topology(4)
        paths = k_shortest_paths(net, "s0", "s3", 3)
        assert len(paths) == 1
        assert paths[0].switches == ("s0", "s1", "s2", "s3")


class TestPathEnumerator:
    def test_caches_and_returns_sorted(self):
        net = diamond()
        enum = PathEnumerator(net, k=3)
        first = enum.paths("a", "d")
        assert first is enum.paths("a", "d")  # cached object
        latencies = [p.latency_us for p in first]
        assert latencies == sorted(latencies)

    def test_self_path_is_trivial(self):
        enum = PathEnumerator(diamond(), k=2)
        trivial = enum.paths("a", "a")
        assert len(trivial) == 1
        assert trivial[0].switches == ("a",)

    def test_shortest_and_reachable(self):
        net = diamond()
        net.add_switch(Switch("island"))
        enum = PathEnumerator(net)
        assert enum.shortest("a", "d").switches == ("a", "b", "d")
        assert enum.shortest("a", "island") is None
        assert enum.reachable("a", "d")
        assert not enum.reachable("a", "island")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            PathEnumerator(diamond(), k=0)


def diamond_with_island():
    net = diamond()
    net.add_switch(Switch("island"))
    return net


@pytest.mark.parametrize(
    "make",
    [
        # fattree:4 has many equal-latency ties between paths.
        pytest.param(lambda: resolve("fattree:4"), id="fattree4"),
        pytest.param(lambda: resolve("linear:6"), id="linear6"),
        pytest.param(lambda: resolve("wan:20:30:7"), id="wan20"),
        pytest.param(lambda: resolve("wan:72:88:5"), id="wan72"),
        pytest.param(lambda: resolve("zoo:1"), id="zoo1"),
        pytest.param(diamond_with_island, id="diamond-island"),
    ],
)
def test_shortest_tree_matches_yen_first_path(make):
    """``shortest`` reads a full Dijkstra tree per source; it must give
    every ordered pair the first path of Yen's list, bit for bit.

    ``PathEnumerator(net, k=3).paths(u, v)`` is
    ``k_shortest_paths(net, u, v, 3)`` (the trivial path for u == v),
    so one Yen's run per pair serves as the reference.  Pairs
    alternate which of ``shortest`` and ``paths`` is asked first, and
    ``reachable`` is asked first on a second enumerator.
    """
    net = make()
    names = net.switch_names
    enum = PathEnumerator(net, k=3)
    fresh = PathEnumerator(net, k=3)
    for index, (u, v) in enumerate((u, v) for u in names for v in names):
        reachable = fresh.reachable(u, v)
        if index % 2:
            path = enum.shortest(u, v)
            yen = enum.paths(u, v)
        else:
            yen = enum.paths(u, v)
            path = enum.shortest(u, v)
        assert reachable == bool(yen), (u, v)
        if not yen:
            assert path is None, (u, v)
            continue
        assert path == yen[0], (u, v)
        assert repr(path.latency_us) == repr(yen[0].latency_us), (u, v)
        assert fresh.shortest(u, v) == path, (u, v)
