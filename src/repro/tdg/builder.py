"""Building a TDG from a data plane program.

Following the paper's program analyzer, the builder "enumerates every
pair of the MATs defined in the program to obtain all the execution
dependencies": for each ordered pair where one table executes before
another, it classifies the dependency and adds the corresponding edge.

Node names are qualified as ``"<program>.<mat>"`` so that TDGs from
different programs can be merged without name collisions; redundancy
detection during merging works on MAT signatures, not names.
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.dataplane.mat import Mat
from repro.dataplane.program import Program
from repro.tdg.dependencies import classify_dependency
from repro.tdg.graph import Tdg, TdgEdge


def qualified_name(program_name: str, mat_name: str) -> str:
    """The TDG node name for a program's MAT."""
    return f"{program_name}.{mat_name}"


def _requalify(mat: Mat, new_name: str) -> Mat:
    """A copy of ``mat`` renamed for the merged namespace.

    The copy shares the MAT's immutable parts and the values derived
    from them (field sets, signature, resource demand), none of which
    reads the name, so ``Mat.__init__``'s validation and demand
    derivation do not run again.
    """
    renamed = copy.copy(mat)
    renamed.name = new_name
    return renamed


def build_tdg(program: Program, name: Optional[str] = None) -> Tdg:
    """Convert ``program`` into its table dependency graph.

    Every ordered pair of tables ``(a, b)`` with ``a`` earlier in the
    pipeline is examined; a TDG edge is added whenever a match, action,
    successor or reverse-match dependency exists between them.

    Args:
        program: The source program.
        name: Graph name; defaults to the program name.

    Returns:
        A DAG whose edges carry dependency types but not yet metadata
        sizes (see :func:`repro.tdg.analysis.annotate_metadata_sizes`).
    """
    tdg = Tdg(name or program.name)
    mats = [
        _requalify(mat, qualified_name(program.name, mat.name))
        for mat in program.mats
    ]
    for mat in mats:
        tdg.add_node(mat)

    # Every edge runs forward in program order, so none can close a
    # cycle, and each pair is visited once: insert them unchecked.
    for i, (source, upstream) in enumerate(zip(program.mats, mats)):
        for target, downstream in zip(program.mats[i + 1 :], mats[i + 1 :]):
            dep = classify_dependency(
                upstream,
                downstream,
                conditional=program.is_conditional(source.name, target.name),
            )
            if dep is not None:
                tdg._insert_edge(TdgEdge(upstream.name, downstream.name, dep))
    return tdg
