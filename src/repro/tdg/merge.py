"""TDG merging with redundancy elimination (SPEED-style).

Different programs exhibit redundancy: e.g. several sketch programs all
compute the same hash index.  Following SPEED (and Algorithm 1 lines
4-8), merging proceeds pairwise — two TDGs are taken from the pool,
merged, and the result returned to the pool until one graph remains.

Merging two TDGs ``T1`` and ``T2``:

1. identify redundant MATs — node pairs whose MATs have identical
   structural signatures;
2. initialize the merged graph as the union of nodes and edges;
3. eliminate each redundant node by redirecting its edges onto its
   canonical twin, skipping any elimination that would create a cycle
   (redundant tables reachable from each other in opposite directions
   cannot be shared without breaking program order).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.tdg.graph import CycleError, Tdg


def _union(t1: Tdg, t2: Tdg, name: str) -> Tdg:
    merged = t1.copy()
    merged.name = name  # copy(name) would keep t1's name for ""
    disjoint = not any(mat.name in merged for mat in t2.mats)
    for mat in t2.mats:
        merged.add_node(mat)
    for edge in t2.edges:
        if disjoint:
            # t2's edges join only t2's nodes, a component of their
            # own in the union, so they cannot close a cycle there:
            # share them unchecked, as ``Tdg.copy`` does.
            merged._insert_edge(edge)
        elif not merged.has_edge(edge.upstream, edge.downstream):
            merged.add_edge(
                edge.upstream,
                edge.downstream,
                edge.dep_type,
                edge.metadata_bytes,
            )
    return merged


def _redundant_pairs(t1: Tdg, t2: Tdg) -> List[Tuple[str, str]]:
    """Pairs ``(canonical, duplicate)`` of same-signature MATs across graphs."""
    by_signature: Dict[Tuple, str] = {}
    for mat in t1.mats:
        by_signature.setdefault(mat.signature(), mat.name)
    pairs: List[Tuple[str, str]] = []
    for mat in t2.mats:
        canonical = by_signature.get(mat.signature())
        if canonical is not None and canonical != mat.name:
            pairs.append((canonical, mat.name))
    return pairs


def _eliminate(merged: Tdg, canonical: str, duplicate: str) -> bool:
    """Redirect ``duplicate``'s edges onto ``canonical`` and drop it.

    Returns False (leaving the graph untouched) if any redirected edge
    would create a cycle.
    """
    if canonical not in merged or duplicate not in merged:
        return False
    incoming = merged.in_edges(duplicate)
    outgoing = merged.out_edges(duplicate)

    # Dry-run cycle check: canonical must not sit on the wrong side of
    # any neighbour of duplicate.
    for edge in incoming:
        if edge.upstream != canonical and merged.has_path(
            canonical, edge.upstream
        ):
            return False
    for edge in outgoing:
        if edge.downstream != canonical and merged.has_path(
            edge.downstream, canonical
        ):
            return False

    for edge in incoming:
        if edge.upstream == canonical:
            continue
        if not merged.has_edge(edge.upstream, canonical):
            try:
                merged.add_edge(
                    edge.upstream, canonical, edge.dep_type, edge.metadata_bytes
                )
            except CycleError:
                return False
    for edge in outgoing:
        if edge.downstream == canonical:
            continue
        if not merged.has_edge(canonical, edge.downstream):
            try:
                merged.add_edge(
                    canonical, edge.downstream, edge.dep_type, edge.metadata_bytes
                )
            except CycleError:
                return False
    merged.remove_node(duplicate)
    return True


def merge_pair(t1: Tdg, t2: Tdg, name: str = "merged") -> Tdg:
    """Merge two TDGs, eliminating redundant MATs where safe."""
    merged = _union(t1, t2, name)
    for canonical, duplicate in _redundant_pairs(t1, t2):
        _eliminate(merged, canonical, duplicate)
    return merged


def merge_tdgs(tdgs: Sequence[Tdg], name: str = "merged") -> Tdg:
    """Merge a set of TDGs into one (Algorithm 1, ``TDG_MERGING``).

    Args:
        tdgs: Non-empty sequence of TDGs with disjoint node names
            (use :func:`repro.tdg.builder.build_tdg`, which qualifies
            node names with the program name).
        name: Name of the resulting merged graph.

    Returns:
        The merged TDG ``T_m``: a new graph, even for one input, which
        is returned as a renamed copy; no input is changed.
    """
    pool: List[Tdg] = list(tdgs)
    if not pool:
        raise ValueError("merge_tdgs needs at least one TDG")
    if len(pool) == 1:
        pool[0] = pool[0].copy()
    while len(pool) > 1:
        t1 = pool.pop(0)
        t2 = pool.pop(0)
        pool.append(merge_pair(t1, t2, name))
    result = pool[0]
    result.name = name
    return result
