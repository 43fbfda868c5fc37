"""Inter-switch coordination: metadata channels and header layouts.

After placement, every TDG edge whose endpoints sit on different
switches induces metadata that must ride on packets between those
switches.  This module materializes that coordination:

* a :class:`MetadataChannel` per communicating ordered switch pair,
  listing which fields are shipped, the declared byte count (the sum of
  ``A(a, b)`` charged by the paper's objective) and the packed header
  layout actually emitted by the backend (equal fields shipped once);
* :class:`CoordinationAnalysis`, the per-plan summary the experiments
  read their overhead numbers from.

What an edge ships depends only on the TDG, so each edge's field set
is memoized on the graph (:meth:`~repro.tdg.graph.Tdg.memoized`) the
first time a channel needs it; every plan of that graph reuses it, and
only the grouping of edges into channels is per plan.  That grouping
reads only the placements, so it is memoized on the plan
(:meth:`~repro.plan.artifact.DeploymentPlan.memoized`): the dataflow
verifier, the deploy document, the backend and the interpreter of one
plan, and of its ``with_routing`` siblings, share one channel build.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.dataplane.fields import Field, FieldSet
from repro.dataplane.mat import Mat
from repro.plan.artifact import DeploymentPlan
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg, TdgEdge


def edge_metadata_fields(
    upstream: Mat, downstream: Mat, dep_type: DependencyType
) -> FieldSet:
    """The metadata fields a dependency ships downstream.

    Mirrors :func:`repro.tdg.analysis.edge_metadata_bytes` but returns
    the fields themselves (for header layout) instead of their sizes.
    """
    if dep_type is DependencyType.MATCH:
        return upstream.modified_fields.metadata_only()
    if dep_type is DependencyType.ACTION:
        return upstream.modified_fields.union(
            downstream.modified_fields
        ).metadata_only()
    if dep_type is DependencyType.REVERSE:
        return FieldSet()
    if dep_type is DependencyType.SUCCESSOR:
        return upstream.modified_fields.metadata_only()
    raise AssertionError(f"unhandled dependency type {dep_type}")


@dataclass
class MetadataChannel:
    """Coordination between one ordered pair of switches.

    Attributes:
        source, destination: The switch pair.
        edges: The cross-switch TDG edges charged to this pair.
        declared_bytes: ``sum A(a, b)`` over those edges — the quantity
            the optimization minimizes (fields shipped per edge).
        layout: Packed header layout: (field, offset) pairs; a field
            needed by several edges occupies one slot.
        layout_bytes: Size of the packed layout.
    """

    source: str
    destination: str
    edges: List[TdgEdge]
    declared_bytes: int
    layout: List[Tuple[Field, int]]
    layout_bytes: int

    @property
    def field_names(self) -> List[str]:
        return [f.name for f, _offset in self.layout]


def _shipped_fields(tdg: Tdg) -> Dict[Tuple[str, str], FieldSet]:
    """Each edge's :func:`edge_metadata_fields`, by edge key.

    Memoized per graph and filled in as channels first need an edge, so
    an edge that never crosses switches is never derived (and a field
    conflict inside one surfaces only when it ships, as it always did).
    """
    return {}


def plan_channels(
    plan: DeploymentPlan,
) -> Dict[Tuple[str, str], MetadataChannel]:
    """Every coordination channel of ``plan``, by ordered switch pair.

    It reads only the plan's TDG and placements and holds no reference
    to the plan, so it is what :meth:`DeploymentPlan.memoized` keeps:
    ``plan.memoized(plan_channels)`` builds the channels once per plan
    and its ``with_routing`` siblings.  That value is shared; treat it
    as read-only (:class:`CoordinationAnalysis` hands out copies).
    """
    tdg = plan.tdg
    edges = tdg.edges
    hosts = {name: p.switch for name, p in plan.placements.items()}
    grouped: Dict[Tuple[str, str], List[TdgEdge]] = {}
    try:
        for edge in edges:
            u = hosts[edge.upstream]
            v = hosts[edge.downstream]
            if u == v or edge.metadata_bytes == 0:
                continue
            grouped.setdefault((u, v), []).append(edge)
    except KeyError:
        # Let the plan name the first unplaced endpoint.
        for edge in edges:
            plan.switch_of(edge.upstream)
            plan.switch_of(edge.downstream)
        raise

    shipped = tdg.memoized(_shipped_fields)

    def fields_of(edge: TdgEdge) -> FieldSet:
        fields = shipped.get(edge.key)
        if fields is None:
            fields = shipped[edge.key] = edge_metadata_fields(
                tdg.node(edge.upstream),
                tdg.node(edge.downstream),
                edge.dep_type,
            )
        return fields

    channels: Dict[Tuple[str, str], MetadataChannel] = {}
    for (u, v), pair_edges in grouped.items():
        # One FieldSet over the edges' fields in edge order keeps
        # each name's first definition and raises on a conflicting
        # one, as a chain of pairwise unions would; the generator
        # derives an edge only after the earlier ones passed.
        fields = FieldSet(
            field for edge in pair_edges for field in fields_of(edge)
        )
        declared = sum(edge.metadata_bytes for edge in pair_edges)
        layout: List[Tuple[Field, int]] = []
        offset = 0
        for field in sorted(fields, key=lambda f: f.name):
            layout.append((field, offset))
            offset += field.size_bytes
        channels[(u, v)] = MetadataChannel(
            source=u,
            destination=v,
            edges=pair_edges,
            declared_bytes=declared,
            layout=layout,
            layout_bytes=offset,
        )
    return channels


class CoordinationAnalysis:
    """Derives all coordination channels of a deployment plan.

    The channels are built once per plan (:func:`plan_channels`); each
    analysis holds its own copies, so editing one changes no other.
    """

    def __init__(self, plan: DeploymentPlan) -> None:
        self.plan = plan
        self.channels: Dict[Tuple[str, str], MetadataChannel] = {
            pair: replace(c, edges=list(c.edges), layout=list(c.layout))
            for pair, c in plan.memoized(plan_channels).items()
        }

    # ------------------------------------------------------------------
    # Summary metrics
    # ------------------------------------------------------------------
    def max_declared_bytes(self) -> int:
        """``A_max`` — matches ``plan.max_metadata_bytes()``."""
        if not self.channels:
            return 0
        return max(c.declared_bytes for c in self.channels.values())

    def max_layout_bytes(self) -> int:
        """The packed (deduplicated) worst pair overhead — what a real
        header would occupy; never exceeds the declared maximum."""
        if not self.channels:
            return 0
        return max(c.layout_bytes for c in self.channels.values())

    def total_declared_bytes(self) -> int:
        return sum(c.declared_bytes for c in self.channels.values())

    def channel(self, source: str, destination: str) -> MetadataChannel:
        try:
            return self.channels[(source, destination)]
        except KeyError:
            raise KeyError(
                f"no coordination between {source!r} and {destination!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.channels)
