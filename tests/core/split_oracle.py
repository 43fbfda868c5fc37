"""Algorithm 2's min-cut split as it was before segments were peeled off
one working graph, kept as the tests' reference model.

``repro.core.heuristic.split_tdg`` now drops a prefix's last MAT with
``remove_node`` when the prefix has no stage layout, removes each
accepted prefix from one working copy of the rest, keeps
``split_order``'s ready buckets as heaps and sums ``_prefix_candidates``'
edge bytes straight from the adjacency; ``Tdg.subgraph`` builds its
dicts in bulk.  It must return what this code returned: segments with
the same names, nodes and edges in the same order, or the same
exception type and message.

This module is that code, copied, not imported: ``legacy_split_order``,
``legacy_prefix_candidates`` and ``legacy_split_tdg`` are the old
functions of :mod:`repro.core.heuristic` (``_choose_prefix_size`` did
not change and is imported), and ``legacy_subgraph`` is the old
``Tdg.subgraph``, which the old split induced every segment and every
rest graph with.

Import it as a plain module (``from split_oracle import ...``); it
deliberately contains no tests of its own.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.heuristic import _choose_prefix_size
from repro.core.stages import segment_fits
from repro.network.switch import Switch
from repro.plan.artifact import DeploymentError
from repro.tdg.graph import Tdg


def legacy_subgraph(
    tdg: Tdg, names: Iterable[str], name: str = "segment"
) -> Tdg:
    """The induced subgraph on ``names`` (edges inside the set only)."""
    keep = set(names)
    missing = keep - set(tdg._nodes)
    if missing:
        raise KeyError(f"unknown MATs in subgraph request: {sorted(missing)}")
    sub = Tdg(name)
    for node_name in tdg._nodes:
        if node_name in keep:
            sub.add_node(tdg._nodes[node_name])
    for edge in tdg._edges.values():
        if edge.upstream in keep and edge.downstream in keep:
            sub._insert_edge(edge)
    return sub


def legacy_split_order(tdg: Tdg) -> List[str]:
    """The node order the prefix sweep runs over."""
    dfs = tdg.topological_order(strategy="dfs")
    rank = {name: i for i, name in enumerate(dfs)}

    def program_of(name: str) -> str:
        return name.split(".", 1)[0]

    hubs = {
        name
        for name in dfs
        if any(
            program_of(s) != program_of(name)
            for s in tdg.successors(name)
        )
    }
    for hub in hubs:
        rank[hub] = -len(dfs) + rank[hub]  # emit hubs first

    def group_of(name: str) -> str:
        return "__hubs__" if name in hubs else program_of(name)

    in_deg = {name: len(tdg.predecessors(name)) for name in dfs}
    ready: Dict[str, List[str]] = {}
    for name in dfs:
        if in_deg[name] == 0:
            ready.setdefault(group_of(name), []).append(name)
    for bucket in ready.values():
        bucket.sort(key=lambda n: rank[n], reverse=True)  # pop() = min

    order: List[str] = []
    current: Optional[str] = None
    while ready:
        if current not in ready:
            # Jump to the group holding the earliest-ranked ready node.
            current = min(
                ready, key=lambda g: rank[ready[g][-1]]
            )
        node = ready[current].pop()
        if not ready[current]:
            del ready[current]
        order.append(node)
        for succ in sorted(tdg.successors(node), key=lambda n: rank[n]):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                bucket = ready.setdefault(group_of(succ), [])
                bucket.append(succ)
                bucket.sort(key=lambda n: rank[n], reverse=True)
    return order


def legacy_prefix_candidates(
    tdg: Tdg, topo: List[str]
) -> List[Tuple[int, float, float]]:
    """Sweep all prefixes: (size, cut_bytes, prefix_demand)."""
    out_bytes = {
        name: sum(e.metadata_bytes for e in tdg.out_edges(name))
        for name in topo
    }
    in_bytes = {
        name: sum(e.metadata_bytes for e in tdg.in_edges(name))
        for name in topo
    }
    candidates: List[Tuple[int, float, float]] = []
    cut = 0.0
    demand = 0.0
    for idx, name in enumerate(topo[:-1]):
        cut += out_bytes[name] - in_bytes[name]
        demand += tdg.node(name).resource_demand
        candidates.append((idx + 1, cut, demand))
    return candidates


def legacy_split_tdg(
    tdg: Tdg, reference: Switch, fill_floor: float = None
) -> List[Tdg]:
    """Split ``tdg`` into single-switch segments (Algorithm 2 lines 1-17)."""
    segments: List[Tdg] = []
    remaining = tdg
    piece = 0
    while not segment_fits(remaining, reference):
        topo = legacy_split_order(remaining)
        if len(topo) < 2:
            raise DeploymentError(
                f"MAT {topo[0]!r} alone does not fit switch "
                f"{reference.name!r}"
            )
        candidates = legacy_prefix_candidates(remaining, topo)
        size = _choose_prefix_size(
            candidates, reference.total_capacity, fill_floor
        )
        prefix = legacy_subgraph(
            remaining, topo[:size], name=f"{tdg.name}/{piece}"
        )
        # Aggregate capacity can admit prefixes whose dependency chains
        # exceed the stage count; shrink until a stage layout exists.
        while size > 1 and not segment_fits(prefix, reference):
            size -= 1
            prefix = legacy_subgraph(
                remaining, topo[:size], name=f"{tdg.name}/{piece}"
            )
        if size == 1 and not segment_fits(prefix, reference):
            raise DeploymentError(
                f"MAT {topo[0]!r} alone does not fit switch "
                f"{reference.name!r}"
            )
        segments.append(prefix)
        remaining = legacy_subgraph(
            remaining, topo[size:], name=f"{tdg.name}/rest"
        )
        piece += 1
    remaining.name = f"{tdg.name}/{piece}" if segments else tdg.name
    segments.append(remaining)
    return segments
