"""The TDG data structure.

A :class:`Tdg` is a directed acyclic multigraph-free graph: at most one
edge per ordered MAT pair, carrying a :class:`DependencyType` and the
metadata byte count ``A(a, b)``.  Nodes are identified by their (unique)
MAT names; the :class:`~repro.dataplane.mat.Mat` objects themselves are
stored as node payloads.

The structure is deliberately self-contained (no networkx dependency)
so its invariants — acyclicity, consistent adjacency, edge uniqueness —
are enforced locally and are easy to property-test.

Values derived from the whole graph can be cached on it with
:meth:`Tdg.memoized`; every mutator (node and edge insertion and
removal, a rename to a different name, :meth:`Tdg.set_metadata_bytes`)
clears the cache.
Edges are frozen and MATs never change after construction, so those
mutators are the only way the graph's content can change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.dataplane.mat import Mat
from repro.tdg.dependencies import DependencyType


T = TypeVar("T")


class CycleError(ValueError):
    """Raised when an operation would make the TDG cyclic."""


@dataclass(frozen=True)
class TdgEdge:
    """A dependency edge ``(upstream -> downstream)``.

    Attributes:
        upstream: Name of the upstream MAT (``a``).
        downstream: Name of the downstream MAT (``b``).
        dep_type: The dependency type ``T(a, b)``.
        metadata_bytes: ``A(a, b)`` — metadata bytes that must ride on
            each packet if the endpoints are placed on different
            switches.  Computed by the analyzer; defaults to 0 until
            :func:`repro.tdg.analysis.annotate_metadata_sizes` runs,
            which sets it through :meth:`Tdg.set_metadata_bytes`.
    """

    upstream: str
    downstream: str
    dep_type: DependencyType
    metadata_bytes: int = 0

    @property
    def key(self) -> Tuple[str, str]:
        return (self.upstream, self.downstream)


class Tdg:
    """A table dependency graph."""

    def __init__(self, name: str = "tdg") -> None:
        self._memo: Dict[Callable[["Tdg"], Any], Any] = {}
        self._name = name
        self._nodes: Dict[str, Mat] = {}
        self._edges: Dict[Tuple[str, str], TdgEdge] = {}
        self._succ: Dict[str, Set[str]] = {}
        self._pred: Dict[str, Set[str]] = {}

    @property
    def name(self) -> str:
        return self._name

    @name.setter
    def name(self, value: str) -> None:
        if value != self._name:
            self._memo.clear()
        self._name = value

    def memoized(
        self,
        derive: Callable[["Tdg"], T],
        compute: Optional[Callable[[], T]] = None,
    ) -> T:
        """``derive(self)``, computed once until the graph next changes.

        ``derive`` must depend only on the graph's name, MATs and edges;
        every mutator clears the cache.  ``compute``, when given, stands
        in for ``derive(self)`` on a miss: a caller already holding what
        ``derive`` would build passes a cheaper way to the same value.
        The plan document's canonical TDG section is kept here, so plans
        that share a graph serialize it once.
        """
        try:
            return self._memo[derive]
        except KeyError:
            value = derive(self) if compute is None else compute()
            self._memo[derive] = value
            return value

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, mat: Mat) -> None:
        """Add a MAT node; re-adding the identical MAT is a no-op."""
        existing = self._nodes.get(mat.name)
        if existing is not None:
            if existing is mat or (
                existing == mat
                and existing.resource_demand == mat.resource_demand
            ):
                return
            raise ValueError(
                f"TDG {self.name!r} already has a different MAT named "
                f"{mat.name!r}"
            )
        self._memo.clear()
        self._nodes[mat.name] = mat
        self._succ[mat.name] = set()
        self._pred[mat.name] = set()

    def add_edge(
        self,
        upstream: str,
        downstream: str,
        dep_type: DependencyType,
        metadata_bytes: int = 0,
    ) -> TdgEdge:
        """Add a dependency edge, preserving acyclicity.

        Raises:
            KeyError: If either endpoint is not a node.
            CycleError: If the edge would create a cycle (including
                self-loops).
            ValueError: If an edge between the pair already exists.
        """
        if upstream not in self._nodes:
            raise KeyError(f"unknown upstream MAT {upstream!r}")
        if downstream not in self._nodes:
            raise KeyError(f"unknown downstream MAT {downstream!r}")
        if upstream == downstream:
            raise CycleError(f"self-dependency on {upstream!r}")
        key = (upstream, downstream)
        if key in self._edges:
            raise ValueError(f"edge {key} already present")
        if self.has_path(downstream, upstream):
            raise CycleError(
                f"edge {upstream!r}->{downstream!r} would create a cycle"
            )
        if metadata_bytes < 0:
            raise ValueError("metadata_bytes must be non-negative")
        return self._insert_edge(
            TdgEdge(upstream, downstream, dep_type, metadata_bytes)
        )

    def _insert_edge(self, edge: TdgEdge) -> TdgEdge:
        """Link ``edge``, replacing the pair's edge in place if there is
        one; the caller guarantees its endpoints are nodes and that the
        graph stays acyclic."""
        self._memo.clear()
        self._edges[edge.key] = edge
        self._succ[edge.upstream].add(edge.downstream)
        self._pred[edge.downstream].add(edge.upstream)
        return edge

    def remove_node(self, name: str) -> Mat:
        """Remove a node and all its incident edges."""
        mat = self._nodes.pop(name, None)
        if mat is None:
            raise KeyError(f"unknown MAT {name!r}")
        self._memo.clear()
        for succ in list(self._succ[name]):
            del self._edges[(name, succ)]
            self._pred[succ].discard(name)
        for pred in list(self._pred[name]):
            del self._edges[(pred, name)]
            self._succ[pred].discard(name)
        del self._succ[name]
        del self._pred[name]
        return mat

    def remove_edge(self, upstream: str, downstream: str) -> TdgEdge:
        edge = self._edges.pop((upstream, downstream), None)
        if edge is None:
            raise KeyError(f"no edge {upstream!r}->{downstream!r}")
        self._memo.clear()
        self._succ[upstream].discard(downstream)
        self._pred[downstream].discard(upstream)
        return edge

    def set_metadata_bytes(
        self, upstream: str, downstream: str, metadata_bytes: int
    ) -> TdgEdge:
        """Re-annotate an edge's ``A(a, b)``; the edge keeps its place
        in the edge order.

        Raises:
            KeyError: If there is no such edge.
            ValueError: If ``metadata_bytes`` is negative.
        """
        edge = self._edges.get((upstream, downstream))
        if edge is None:
            raise KeyError(f"no edge {upstream!r}->{downstream!r}")
        if metadata_bytes < 0:
            raise ValueError("metadata_bytes must be non-negative")
        return self._insert_edge(
            TdgEdge(upstream, downstream, edge.dep_type, metadata_bytes)
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_names(self) -> List[str]:
        return list(self._nodes)

    @property
    def mats(self) -> List[Mat]:
        return list(self._nodes.values())

    @property
    def edges(self) -> List[TdgEdge]:
        return list(self._edges.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Mat:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"TDG {self.name!r} has no MAT {name!r}") from None

    def edge(self, upstream: str, downstream: str) -> TdgEdge:
        try:
            return self._edges[(upstream, downstream)]
        except KeyError:
            raise KeyError(f"no edge {upstream!r}->{downstream!r}") from None

    def has_edge(self, upstream: str, downstream: str) -> bool:
        return (upstream, downstream) in self._edges

    def successors(self, name: str) -> Set[str]:
        return set(self._succ[name])

    def predecessors(self, name: str) -> Set[str]:
        return set(self._pred[name])

    def out_edges(self, name: str) -> List[TdgEdge]:
        return [self._edges[(name, s)] for s in sorted(self._succ[name])]

    def in_edges(self, name: str) -> List[TdgEdge]:
        return [self._edges[(p, name)] for p in sorted(self._pred[name])]

    def sources(self) -> List[str]:
        """Nodes with no predecessors, in insertion order."""
        return [n for n in self._nodes if not self._pred[n]]

    def sinks(self) -> List[str]:
        """Nodes with no successors, in insertion order."""
        return [n for n in self._nodes if not self._succ[n]]

    def has_path(self, start: str, goal: str) -> bool:
        """Whether ``goal`` is reachable from ``start`` (inclusive)."""
        if start not in self._nodes or goal not in self._nodes:
            return False
        if start == goal:
            return True
        stack = [start]
        seen = {start}
        while stack:
            current = stack.pop()
            for nxt in self._succ[current]:
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def topological_order(self, strategy: str = "kahn") -> List[str]:
        """A topological order of the nodes.

        Args:
            strategy: ``"kahn"`` (default) gives breadth-first level
                order; ``"dfs"`` gives depth-first reverse postorder,
                which keeps independent components and chains
                contiguous — the property the greedy splitter relies on
                to find zero-metadata cut points between unrelated
                programs.
        """
        if strategy == "kahn":
            return self._topological_kahn()
        if strategy == "dfs":
            return self._topological_dfs()
        raise ValueError(f"unknown topological strategy {strategy!r}")

    def _topological_kahn(self) -> List[str]:
        in_deg = {n: len(self._pred[n]) for n in self._nodes}
        ready = [n for n in self._nodes if in_deg[n] == 0]
        order: List[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for nxt in sorted(self._succ[current]):
                in_deg[nxt] -= 1
                if in_deg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self._nodes):
            raise CycleError(f"TDG {self.name!r} contains a cycle")
        return order

    def _topological_dfs(self) -> List[str]:
        postorder: List[str] = []
        visited: Set[str] = set()
        for root in self._nodes:
            if root in visited:
                continue
            stack: List[Tuple[str, Iterator[str]]] = [
                (root, iter(sorted(self._succ[root])))
            ]
            visited.add(root)
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if child not in visited:
                        visited.add(child)
                        stack.append(
                            (child, iter(sorted(self._succ[child])))
                        )
                        advanced = True
                        break
                if not advanced:
                    postorder.append(node)
                    stack.pop()
        order = list(reversed(postorder))
        # A DAG's reverse postorder is always topological; edges were
        # checked for cycles at insertion, so no recheck is needed.
        return order

    def total_resource_demand(self) -> float:
        """``sum_a R(a)`` over every MAT in the graph."""
        return sum(m.resource_demand for m in self._nodes.values())

    def total_metadata_bytes(self) -> int:
        """Sum of ``A(a, b)`` across all edges."""
        return sum(e.metadata_bytes for e in self._edges.values())

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    # MATs and edges are immutable, and a copy (or induced subgraph) of
    # a DAG is acyclic, so both share this graph's MATs and edges and
    # build their dicts in bulk, in this graph's node and edge order.
    def copy(self, name: Optional[str] = None) -> "Tdg":
        clone = Tdg(name or self.name)
        clone._nodes = dict(self._nodes)
        clone._edges = dict(self._edges)
        clone._succ = {n: set(s) for n, s in self._succ.items()}
        clone._pred = {n: set(p) for n, p in self._pred.items()}
        return clone

    def subgraph(self, names: Iterable[str], name: str = "segment") -> "Tdg":
        """The induced subgraph on ``names`` (edges inside the set only)."""
        keep = set(names)
        missing = keep - self._nodes.keys()
        if missing:
            raise KeyError(f"unknown MATs in subgraph request: {sorted(missing)}")
        sub = Tdg(name)
        sub._nodes = {n: m for n, m in self._nodes.items() if n in keep}
        sub._edges = {
            key: edge
            for key, edge in self._edges.items()
            if key[0] in keep and key[1] in keep
        }
        sub._succ = {n: self._succ[n] & keep for n in sub._nodes}
        sub._pred = {n: self._pred[n] & keep for n in sub._nodes}
        return sub

    def cut_bytes(self, left: Iterable[str], right: Iterable[str]) -> int:
        """Metadata bytes crossing from ``left`` to ``right``.

        This is the quantity the greedy heuristic minimizes when
        choosing where to split a TDG: ``sum A(a, b)`` over edges with
        ``a`` in ``left`` and ``b`` in ``right``.
        """
        left_set, right_set = set(left), set(right)
        return sum(
            e.metadata_bytes
            for e in self._edges.values()
            if e.upstream in left_set and e.downstream in right_set
        )

    def __iter__(self) -> Iterator[Mat]:
        return iter(self._nodes.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Tdg({self.name!r}, {len(self._nodes)} nodes, "
            f"{len(self._edges)} edges)"
        )
