"""Explaining a plan's byte overhead.

``A_max`` is one number; an operator staring at it wants to know *why*:
which switch pair is the bottleneck, which TDG edges (and therefore
which programs and metadata fields) pay for it, and what would help.
:func:`explain_overhead` answers those questions, including a
what-if ranking: for each edge crossing the worst pair, the ``A_max``
the plan would have if that edge were internalized (endpoints
co-located), everything else unchanged — the marginal value of fixing
exactly one decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.plan.artifact import DeploymentPlan


@dataclass(frozen=True)
class EdgeContribution:
    """One cross-switch edge's share of the worst pair."""

    upstream: str
    downstream: str
    metadata_bytes: int
    amax_if_internalized: int


@dataclass
class OverheadReport:
    """Structured answer to "where do my bytes go?".

    Attributes:
        a_max: The plan's per-packet byte overhead.
        worst_pair: The switch pair realizing it (None at 0 overhead).
        edges: Crossing edges of the worst pair, heaviest first, each
            with the counterfactual ``A_max`` were it internalized.
        by_program: Worst-pair bytes attributed to originating program.
        by_field: Worst-pair bytes attributed to metadata field names.
    """

    a_max: int
    worst_pair: Tuple[str, str] = None
    edges: List[EdgeContribution] = field(default_factory=list)
    by_program: Dict[str, int] = field(default_factory=dict)
    by_field: Dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable summary."""
        if self.worst_pair is None:
            return "A_max = 0 B: no inter-switch metadata at all."
        u, v = self.worst_pair
        lines = [
            f"A_max = {self.a_max} B, realized on {u} -> {v} "
            f"({len(self.edges)} crossing edges)",
            "",
            "heaviest crossing edges (A_max if co-located):",
        ]
        for contribution in self.edges[:8]:
            lines.append(
                f"  {contribution.upstream} -> "
                f"{contribution.downstream}: "
                f"{contribution.metadata_bytes} B "
                f"(-> {contribution.amax_if_internalized} B)"
            )
        lines.append("")
        lines.append("by program: " + ", ".join(
            f"{p}={b}B"
            for p, b in sorted(
                self.by_program.items(), key=lambda kv: -kv[1]
            )[:6]
        ))
        lines.append("by field: " + ", ".join(
            f"{f}={b}B"
            for f, b in sorted(
                self.by_field.items(), key=lambda kv: -kv[1]
            )[:6]
        ))
        return "\n".join(lines)


def _amax_with_override(
    plan: DeploymentPlan, co_locate: Tuple[str, str]
) -> int:
    """A_max if one edge's endpoints shared a switch (all else fixed).

    The upstream MAT is hypothetically moved next to the downstream
    one; pair sums are recomputed without re-running stage layout (this
    is a what-if attribution, not a feasibility claim).
    """
    upstream, downstream = co_locate
    hosts = {
        name: placement.switch
        for name, placement in plan.placements.items()
    }
    hosts[upstream] = hosts[downstream]
    totals: Dict[Tuple[str, str], int] = {}
    for edge in plan.tdg.edges:
        u, v = hosts[edge.upstream], hosts[edge.downstream]
        if u == v:
            continue
        totals[(u, v)] = totals.get((u, v), 0) + edge.metadata_bytes
    return max(totals.values()) if totals else 0


def explain_overhead(plan: DeploymentPlan) -> OverheadReport:
    """Attribute the plan's ``A_max`` to edges, programs and fields."""
    from repro.core.coordination import edge_metadata_fields

    pairs = plan.pair_metadata_bytes()
    if not pairs:
        return OverheadReport(a_max=0)
    worst_pair, a_max = max(pairs.items(), key=lambda kv: kv[1])
    u, v = worst_pair

    report = OverheadReport(a_max=a_max, worst_pair=worst_pair)
    for edge in sorted(
        (
            e
            for e in plan.tdg.edges
            if plan.switch_of(e.upstream) == u
            and plan.switch_of(e.downstream) == v
            and e.metadata_bytes > 0
        ),
        key=lambda e: e.metadata_bytes,
        reverse=True,
    ):
        report.edges.append(
            EdgeContribution(
                upstream=edge.upstream,
                downstream=edge.downstream,
                metadata_bytes=edge.metadata_bytes,
                amax_if_internalized=_amax_with_override(
                    plan, (edge.upstream, edge.downstream)
                ),
            )
        )
        program = edge.upstream.split(".", 1)[0]
        report.by_program[program] = (
            report.by_program.get(program, 0) + edge.metadata_bytes
        )
        fields = edge_metadata_fields(
            plan.tdg.node(edge.upstream),
            plan.tdg.node(edge.downstream),
            edge.dep_type,
        )
        for fld in fields:
            report.by_field[fld.name] = (
                report.by_field.get(fld.name, 0) + fld.size_bytes
            )
    return report
