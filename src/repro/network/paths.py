"""Path enumeration: the path sets ``P(u, v)`` and latencies ``t_p(p)``.

The MILP formulation routes inter-switch traffic over explicit paths,
so the framework needs, for every ordered switch pair, a set of
candidate paths together with their latencies.  Enumerating *all*
simple paths is exponential; following standard practice we enumerate
the ``k`` shortest loop-free paths by latency (Yen's algorithm on top
of Dijkstra) and let ``k`` bound the decision-variable blow-up.
Shortest-path queries, which the heuristics make for most pairs, read
one cached Dijkstra tree per source instead.

``t_p(p)`` sums the switch latencies ``t_s`` and link latencies ``t_l``
along the path, matching the paper's definition.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.network.topology import Network


@dataclass(frozen=True)
class Path:
    """A loop-free switch sequence with its total latency.

    Attributes:
        switches: Ordered switch names from source to destination.
        latency_us: ``t_p(p)`` — sum of ``t_s`` over switches and
            ``t_l`` over links, in microseconds.
    """

    switches: Tuple[str, ...]
    latency_us: float

    def __post_init__(self) -> None:
        if len(self.switches) < 1:
            raise ValueError("a path needs at least one switch")
        if len(set(self.switches)) != len(self.switches):
            raise ValueError(f"path revisits a switch: {self.switches}")

    @property
    def source(self) -> str:
        return self.switches[0]

    @property
    def destination(self) -> str:
        return self.switches[-1]

    @property
    def hop_count(self) -> int:
        return len(self.switches) - 1

    def links(self) -> List[Tuple[str, str]]:
        return [
            (self.switches[i], self.switches[i + 1])
            for i in range(len(self.switches) - 1)
        ]

    def contains(self, element: str) -> bool:
        """Whether a switch name lies on this path (``E(a, p)`` = 1)."""
        return element in self.switches

    def contains_link(self, u: str, v: str) -> bool:
        pairs = set(self.links())
        return (u, v) in pairs or (v, u) in pairs


def path_latency_us(network: Network, switches: Sequence[str]) -> float:
    """``t_p`` for an explicit switch sequence."""
    total = sum(network.switch(s).latency_us for s in switches)
    for i in range(len(switches) - 1):
        total += network.link(switches[i], switches[i + 1]).latency_us
    return total


def _dijkstra(
    network: Network,
    source: str,
    target: Optional[str] = None,
    banned_nodes: Optional[Set[str]] = None,
    banned_links: Optional[Set[Tuple[str, str]]] = None,
) -> Dict[str, Optional[str]]:
    """Latency-shortest-path tree from ``source`` avoiding banned
    nodes/links: every settled switch mapped to its predecessor (the
    source to None).

    With a ``target`` the search stops once the target is settled.
    Switches settle in the same heap order either way and a settled
    switch's predecessor never changes, so the target's path is the
    same in the full tree and in the early-stopped one.
    """
    banned_nodes = banned_nodes or set()
    banned_links = banned_links or set()
    if source in banned_nodes or target in banned_nodes:
        return {}
    # Node cost model: entering a switch costs t_s, traversing a link
    # costs t_l; the source's t_s is added up front.
    dist: Dict[str, float] = {source: network.switch(source).latency_us}
    prev: Dict[str, Optional[str]] = {source: None}
    heap: List[Tuple[float, str]] = [(dist[source], source)]
    settled: Dict[str, Optional[str]] = {}
    while heap:
        d, current = heapq.heappop(heap)
        if current in settled:
            continue
        settled[current] = prev[current]
        if current == target:
            break
        for nxt in network.neighbors(current):
            if nxt in banned_nodes or nxt in settled:
                continue
            key = (current, nxt) if current <= nxt else (nxt, current)
            if key in banned_links:
                continue
            link = network.link(current, nxt)
            cand = d + link.latency_us + network.switch(nxt).latency_us
            if cand < dist.get(nxt, float("inf")):
                dist[nxt] = cand
                prev[nxt] = current
                heapq.heappush(heap, (cand, nxt))
    return settled


def _tree_path(
    tree: Dict[str, Optional[str]], target: str
) -> Optional[List[str]]:
    """The switch sequence from a tree's source to ``target``, or None
    if the search never settled ``target``."""
    if target not in tree:
        return None
    order = [target]
    parent = tree[target]
    while parent is not None:
        order.append(parent)
        parent = tree[parent]
    order.reverse()
    return order


def shortest_path(network: Network, source: str, target: str) -> Optional[Path]:
    """The latency-shortest path between two switches, or None."""
    nodes = _tree_path(_dijkstra(network, source, target), target)
    if nodes is None:
        return None
    return Path(tuple(nodes), path_latency_us(network, nodes))


def k_shortest_paths(
    network: Network, source: str, target: str, k: int
) -> List[Path]:
    """Yen's algorithm: up to ``k`` loop-free shortest paths by latency."""
    if k <= 0:
        return []
    first = shortest_path(network, source, target)
    if first is None:
        return []
    found: List[Path] = [first]
    candidates: List[Tuple[float, Tuple[str, ...]]] = []
    seen: Set[Tuple[str, ...]] = {first.switches}

    while len(found) < k:
        last = found[-1].switches
        for i in range(len(last) - 1):
            spur_node = last[i]
            root = last[: i + 1]
            banned_links: Set[Tuple[str, str]] = set()
            for path in found:
                if path.switches[: i + 1] == root and len(path.switches) > i + 1:
                    u, v = path.switches[i], path.switches[i + 1]
                    banned_links.add((u, v) if u <= v else (v, u))
            banned_nodes = set(root[:-1])
            spur = _tree_path(
                _dijkstra(
                    network, spur_node, target, banned_nodes, banned_links
                ),
                target,
            )
            if spur is None:
                continue
            total = root[:-1] + tuple(spur)
            if total in seen:
                continue
            seen.add(total)
            heapq.heappush(
                candidates, (path_latency_us(network, total), total)
            )
        if not candidates:
            break
        latency, nodes = heapq.heappop(candidates)
        found.append(Path(nodes, latency))
    return found


class PathEnumerator:
    """Cached per-pair path enumeration.

    :meth:`paths` runs Yen's algorithm once per ordered pair.
    :meth:`shortest` and :meth:`reachable` read one full Dijkstra tree
    per source instead, which gives every target the path
    ``paths(u, v)[0]`` would (see :func:`_dijkstra`).

    Args:
        network: The substrate network.
        k: Maximum candidate paths per ordered switch pair.
    """

    def __init__(self, network: Network, k: int = 3) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.network = network
        self.k = k
        self._cache: Dict[Tuple[str, str], List[Path]] = {}
        self._trees: Dict[str, Dict[str, Optional[str]]] = {}
        self._shortest: Dict[Tuple[str, str], Optional[Path]] = {}

    def paths(self, source: str, target: str) -> List[Path]:
        """``P(u, v)`` — candidate paths, shortest first.

        ``P(u, u)`` is the trivial single-switch path.
        """
        key = (source, target)
        if key not in self._cache:
            if source == target:
                self._cache[key] = [
                    Path(
                        (source,),
                        self.network.switch(source).latency_us,
                    )
                ]
            else:
                self._cache[key] = k_shortest_paths(
                    self.network, source, target, self.k
                )
        return self._cache[key]

    def shortest(self, source: str, target: str) -> Optional[Path]:
        """``paths(source, target)[0]``, or None if unreachable."""
        key = (source, target)
        if key in self._shortest:
            return self._shortest[key]
        tree = self._trees.get(source)
        if tree is None:
            tree = self._trees[source] = _dijkstra(self.network, source)
        nodes = _tree_path(tree, target)
        path = (
            None
            if nodes is None
            else Path(tuple(nodes), path_latency_us(self.network, nodes))
        )
        self._shortest[key] = path
        return path

    def reachable(self, source: str, target: str) -> bool:
        return self.shortest(source, target) is not None
