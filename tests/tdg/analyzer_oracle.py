"""Algorithm 1 (the program analyzer) as it was before each MAT's field
sets and signature were derived once, kept as the tests' reference
model.

Production now caches ``Action.read_set``/``write_set`` and
``Mat.signature()``, builds ``Mat.modified_fields``/``read_fields`` as
one ``FieldSet`` each, copies a MAT under its qualified name instead of
re-running ``Mat.__init__``, inserts ``build_tdg``'s edges without a
reachability search, builds ``Tdg.copy`` in bulk, re-annotates only
the edges whose byte count changes, and makes ``merge_tdgs`` of one
graph return a renamed copy.  Every TDG it builds must equal the one
this code builds: the same name, nodes and edges in the same order, and
the same canonical plan-document TDG section.

This module is that code, copied, not imported:

* ``legacy_read_set``/``legacy_write_set`` are the old ``Action``
  properties, and ``legacy_modified_fields``, ``legacy_read_fields`` and
  ``legacy_signature`` the old ``Mat`` ones (each recomputed on every
  call);
* ``legacy_requalify`` and ``legacy_build_tdg`` are the old
  ``repro.tdg.builder`` functions;
* ``legacy_copy`` is the old ``Tdg.copy``;
* ``legacy_merge_tdgs`` is the old ``repro.tdg.merge.merge_tdgs`` with
  the helpers that call ``copy`` or ``signature()`` (``_union``,
  ``_redundant_pairs``, ``merge_pair``); ``_eliminate`` did not change
  and is imported.  With one input it renames and returns that input;
* ``legacy_annotate_metadata_sizes`` re-inserts every edge;
* ``legacy_analyze`` is the old ``ProgramAnalyzer.analyze``.

Import it as a module (``from tests.tdg.analyzer_oracle import ...``);
it deliberately contains no tests of its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataplane.actions import Action
from repro.dataplane.fields import FieldSet
from repro.dataplane.mat import Mat
from repro.dataplane.program import Program
from repro.tdg.analysis import edge_metadata_bytes
from repro.tdg.builder import qualified_name
from repro.tdg.dependencies import classify_dependency
from repro.tdg.graph import Tdg
from repro.tdg.merge import _eliminate


# ----------------------------------------------------------------------
# The program model's derived values
# ----------------------------------------------------------------------
def legacy_read_set(action: Action) -> FieldSet:
    return FieldSet(action.reads)


def legacy_write_set(action: Action) -> FieldSet:
    return FieldSet(action.writes)


def legacy_modified_fields(mat: Mat) -> FieldSet:
    """``F^a``: the union of fields written by the MAT's actions."""
    result = FieldSet()
    for action in mat.actions:
        result = result.union(legacy_write_set(action))
    return result


def legacy_read_fields(mat: Mat) -> FieldSet:
    """Fields consumed either as match key or as action inputs."""
    result = mat.match_fields
    for action in mat.actions:
        result = result.union(legacy_read_set(action))
    return result


def legacy_signature(mat: Mat) -> Tuple:
    """A structural fingerprint for redundancy detection."""
    action_sig = tuple(
        sorted(
            (
                a.name,
                a.primitive.value,
                legacy_read_set(a).names,
                legacy_write_set(a).names,
            )
            for a in mat.actions
        )
    )
    rule_sig = tuple(
        sorted(
            (
                tuple(
                    (m.field_name, m.kind.value, m.value, m.mask_or_prefix)
                    for m in rule.matches
                ),
                rule.action_name,
                rule.priority,
            )
            for rule in mat.rules
        )
    )
    return (mat.match_fields.names, action_sig, mat.capacity, rule_sig)


# ----------------------------------------------------------------------
# Building a program's TDG
# ----------------------------------------------------------------------
def legacy_requalify(mat: Mat, new_name: str) -> Mat:
    """A copy of ``mat`` renamed for the merged namespace."""
    return Mat(
        name=new_name,
        match_fields=mat.match_fields,
        actions=mat.actions,
        capacity=mat.capacity,
        rules=mat.rules,
        resource_demand=mat.resource_demand,
        detailed_demand=mat.detailed_demand,
    )


def legacy_build_tdg(program: Program, name: Optional[str] = None) -> Tdg:
    """Convert ``program`` into its table dependency graph."""
    tdg = Tdg(name or program.name)
    renamed = {
        mat.name: legacy_requalify(
            mat, qualified_name(program.name, mat.name)
        )
        for mat in program.mats
    }
    for mat in program.mats:
        tdg.add_node(renamed[mat.name])

    mats = list(program.mats)
    for i, upstream in enumerate(mats):
        for downstream in mats[i + 1 :]:
            dep = classify_dependency(
                upstream,
                downstream,
                conditional=program.is_conditional(
                    upstream.name, downstream.name
                ),
            )
            if dep is None:
                continue
            tdg.add_edge(
                renamed[upstream.name].name,
                renamed[downstream.name].name,
                dep,
            )
    return tdg


def legacy_copy(tdg: Tdg, name: Optional[str] = None) -> Tdg:
    clone = Tdg(name or tdg.name)
    for mat in tdg._nodes.values():
        clone.add_node(mat)
    # Edges are immutable, and a copy (or induced subgraph) of a DAG
    # is acyclic, so both share this graph's edges unchecked.
    for edge in tdg._edges.values():
        clone._insert_edge(edge)
    return clone


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def _legacy_union(t1: Tdg, t2: Tdg, name: str) -> Tdg:
    merged = legacy_copy(t1)
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


def _legacy_redundant_pairs(t1: Tdg, t2: Tdg) -> List[Tuple[str, str]]:
    """Pairs ``(canonical, duplicate)`` of same-signature MATs across graphs."""
    by_signature: Dict[Tuple, str] = {}
    for mat in t1.mats:
        by_signature.setdefault(legacy_signature(mat), mat.name)
    pairs: List[Tuple[str, str]] = []
    for mat in t2.mats:
        canonical = by_signature.get(legacy_signature(mat))
        if canonical is not None and canonical != mat.name:
            pairs.append((canonical, mat.name))
    return pairs


def legacy_merge_pair(t1: Tdg, t2: Tdg, name: str = "merged") -> Tdg:
    """Merge two TDGs, eliminating redundant MATs where safe."""
    merged = _legacy_union(t1, t2, name)
    for canonical, duplicate in _legacy_redundant_pairs(t1, t2):
        _eliminate(merged, canonical, duplicate)
    return merged


def legacy_merge_tdgs(tdgs: Sequence[Tdg], name: str = "merged") -> Tdg:
    """Merge a set of TDGs into one (Algorithm 1, ``TDG_MERGING``)."""
    pool: List[Tdg] = list(tdgs)
    if not pool:
        raise ValueError("merge_tdgs needs at least one TDG")
    while len(pool) > 1:
        t1 = pool.pop(0)
        t2 = pool.pop(0)
        pool.append(legacy_merge_pair(t1, t2, name))
    result = pool[0]
    result.name = name
    return result


# ----------------------------------------------------------------------
# Annotation and the analyzer
# ----------------------------------------------------------------------
def legacy_annotate_metadata_sizes(tdg: Tdg) -> Tdg:
    """Fill in ``metadata_bytes`` on every edge of ``tdg`` (in place)."""
    for edge in tdg.edges:
        upstream = tdg.node(edge.upstream)
        downstream = tdg.node(edge.downstream)
        tdg.set_metadata_bytes(
            edge.upstream,
            edge.downstream,
            edge_metadata_bytes(upstream, downstream, edge.dep_type),
        )
    return tdg


def legacy_analyze(programs: Sequence[Program], merge: bool = True) -> Tdg:
    """Run Algorithm 1 over ``programs`` and return ``T_m``."""
    if not programs:
        raise ValueError("analyze() needs at least one program")
    names = [p.name for p in programs]
    if len(names) != len(set(names)):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate program names: {dupes}")
    tdgs = [legacy_build_tdg(program) for program in programs]
    if merge:
        merged = legacy_merge_tdgs(tdgs, name="T_m")
    else:
        merged = legacy_copy(tdgs[0], "T_m")
        for tdg in tdgs[1:]:
            for mat in tdg.mats:
                merged.add_node(mat)
            for edge in tdg.edges:
                merged.add_edge(
                    edge.upstream,
                    edge.downstream,
                    edge.dep_type,
                    edge.metadata_bytes,
                )
    return legacy_annotate_metadata_sizes(merged)
