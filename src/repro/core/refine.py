"""Local-search refinement of deployment plans.

Both portfolio constructions (min-cut split and first-fit chain) are
one-shot: once segments are placed, no decision is revisited.  This
pass polishes a finished plan with first-improvement local search on
the objective that actually matters — the per-pair maximum:

repeat up to ``max_moves`` times:
  1. find the worst switch pair ``(u, v)``;
  2. for each TDG edge crossing it (heaviest first), try moving one
     endpoint to the other side;
  3. rebuild the plan with the move applied; keep the move iff the
     plan stays valid and ``A_max`` strictly drops.

Every accepted move lowers ``A_max`` by at least one byte, so the
search terminates.

``A_max`` depends only on the MAT -> switch host map — never on stage
layouts or routing — so candidate moves are screened through a
:class:`~repro.plan.builder.PlanBuilder` *probe* first: apply the move
incrementally (O(degree)), read the candidate ``A_max``, undo.  Only
moves the probe proves improving pay for the full rebuild.  The filter
is exact — a probe-rejected candidate is precisely one the legacy
search would have rejected after rebuilding — so the accepted-move
sequence, and therefore the refined plan, is identical to the
historical implementation; only the wall-clock drops (see
``benchmarks/test_bench_plan.py``).

A trial costs one probe move and undo.  A rebuild lays out only the
switches whose MAT set this call has not laid out before, normally
the two the move touches: layouts, failures included, are memoized
per switch and MAT set.  It routes every occupied pair from the path
enumerator's cached shortest-path trees and pays in full for
``validate()`` and the dataflow verifier.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.stages import StageAssignmentError, assign_stages
from repro.network.paths import PathEnumerator
from repro.plan.artifact import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
)
from repro.plan.builder import PlanBuilder


#: Stage layouts memoized per ``(switch, frozenset(MAT names))``; None
#: records that the MATs do not fit.  ``Tdg.subgraph`` ignores the
#: order of the names, so the MAT set alone determines the layout.
Layouts = Dict[Tuple[str, FrozenSet[str]], Optional[Dict[str, MatPlacement]]]


def _rebuild(
    plan: DeploymentPlan,
    hosts: Dict[str, str],
    paths: PathEnumerator,
    layouts: Optional[Layouts] = None,
) -> Optional[DeploymentPlan]:
    """A full plan from a MAT->switch mapping, or None if infeasible.

    ``layouts`` carries stage layouts across calls on one TDG and
    network; without it every switch is laid out afresh.
    """
    layouts = {} if layouts is None else layouts
    builder = PlanBuilder(plan.tdg, plan.network)
    by_switch: Dict[str, List[str]] = {}
    for mat_name, switch in hosts.items():
        by_switch.setdefault(switch, []).append(mat_name)
    for switch, names in by_switch.items():
        key = (switch, frozenset(names))
        if key not in layouts:
            segment = plan.tdg.subgraph(names, name=f"ref_{switch}")
            try:
                layouts[key] = assign_stages(
                    segment, plan.network.switch(switch)
                )
            except StageAssignmentError:
                layouts[key] = None
        layout = layouts[key]
        if layout is None:
            return None
        for placement in layout.values():
            builder.place(
                placement.mat_name, placement.switch, placement.stages
            )
    try:
        builder.route_shortest(paths)
        candidate = builder.build()
    except DeploymentError:
        return None
    # Structural validity is not enough: a move can strand metadata
    # behind a recirculation (produced on a switch's first visit,
    # needed on its second — the PHV does not survive the loop).  Only
    # accept candidates the dataflow verifier can actually execute.
    from repro.core.verification import DataflowError, verify_dataflow

    try:
        verify_dataflow(candidate)
    except DataflowError:
        return None
    return candidate


def refine_plan(
    plan: DeploymentPlan,
    paths: Optional[PathEnumerator] = None,
    max_moves: int = 40,
    max_trials_per_move: int = 24,
) -> DeploymentPlan:
    """Polish ``plan`` with boundary-move local search.

    Args:
        plan: A validated plan; never mutated.
        paths: Shared path cache.
        max_moves: Accepted-move budget.
        max_trials_per_move: Candidate relocations examined per round.

    Returns:
        A plan with ``A_max`` less than or equal to the input's.
    """
    paths = paths or PathEnumerator(plan.network)
    layouts: Layouts = {}
    current = plan
    # Incremental A_max probe mirroring the current host map.  Stage
    # layouts in the probe go stale across accepted moves, which is
    # fine: the byte metrics never read them.
    probe = PlanBuilder.from_plan(plan)
    for _round in range(max_moves):
        pairs = current.pair_metadata_bytes()
        if not pairs:
            break
        best_amax = max(pairs.values())
        (u, v), _bytes = max(pairs.items(), key=lambda kv: kv[1])
        crossing = sorted(
            (
                e
                for e in current.tdg.edges
                if current.switch_of(e.upstream) == u
                and current.switch_of(e.downstream) == v
            ),
            key=lambda e: e.metadata_bytes,
            reverse=True,
        )
        hosts = {
            name: placement.switch
            for name, placement in current.placements.items()
        }
        improved = False
        trials = 0
        for edge in crossing:
            if trials >= max_trials_per_move or improved:
                break
            for mat_name, target in (
                (edge.upstream, v),
                (edge.downstream, u),
            ):
                trials += 1
                token = probe.move(mat_name, target)
                candidate_amax = probe.max_metadata_bytes()
                probe.undo(token)
                if candidate_amax >= best_amax:
                    continue
                trial_hosts = dict(hosts)
                trial_hosts[mat_name] = target
                candidate = _rebuild(
                    current, trial_hosts, paths, layouts
                )
                if (
                    candidate is not None
                    and candidate.max_metadata_bytes() < best_amax
                ):
                    current = candidate
                    probe.move(mat_name, target)
                    improved = True
                    break
        if not improved:
            break
    return current
