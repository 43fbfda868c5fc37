"""Metadata-size analysis (Algorithm 1, ``TDG_ANALYSIS``).

For every TDG edge ``(a, b)`` the analysis computes ``A(a, b)``: the
number of bytes of *metadata* that must be piggybacked on each packet
if ``a`` and ``b`` end up on different switches.  Header fields already
ride in the packet and contribute nothing; only pipeline metadata costs
wire bytes.

Per the paper:

* **Match dependency (ℳ)** — ``a`` passes its processing results in
  ``F^a_a`` to ``b``; the metadata fields of ``F^a_a`` are summed.
* **Action dependency (𝔸)** — both tables touch the shared write set;
  the metadata fields of ``F^a_a ∪ F^a_b`` are summed.
* **Reverse-match dependency (ℝ)** — no data flows downstream: zero.
* **Successor dependency (𝕊)** — ``a``'s result gates ``b``; the
  metadata fields of ``F^a_a`` are summed.
"""

from __future__ import annotations

from repro.dataplane.mat import Mat
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg


def edge_metadata_bytes(
    upstream: Mat,
    downstream: Mat,
    dep_type: DependencyType,
) -> int:
    """``A(a, b)`` for one dependency, per Algorithm 1 lines 10-18."""
    if dep_type is DependencyType.MATCH:
        return upstream.modified_fields.metadata_bytes()
    if dep_type is DependencyType.ACTION:
        shared = upstream.modified_fields.union(downstream.modified_fields)
        return shared.metadata_bytes()
    if dep_type is DependencyType.REVERSE:
        return 0
    if dep_type is DependencyType.SUCCESSOR:
        return upstream.modified_fields.metadata_bytes()
    raise AssertionError(f"unhandled dependency type {dep_type}")


def annotate_metadata_sizes(tdg: Tdg) -> Tdg:
    """Fill in ``metadata_bytes`` on every edge of ``tdg`` (in place).

    Returns the same graph for chaining, mirroring the paper's
    ``TDG_ANALYSIS(T_m)`` which returns the annotated ``T_m``.  Only
    the edges whose byte count changes are re-inserted; each keeps its
    place in the edge order.
    """
    for edge in tdg.edges:
        size = edge_metadata_bytes(
            tdg.node(edge.upstream), tdg.node(edge.downstream), edge.dep_type
        )
        if size != edge.metadata_bytes:
            tdg.set_metadata_bytes(edge.upstream, edge.downstream, size)
    return tdg
