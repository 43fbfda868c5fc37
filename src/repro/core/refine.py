"""Local-search refinement of deployment plans.

Both portfolio constructions (min-cut split and first-fit chain) are
one-shot: once segments are placed, no decision is revisited.  This
pass polishes a finished plan with first-improvement local search on
the objective that actually matters — the per-pair maximum:

repeat up to ``max_moves`` times:
  1. find the worst switch pair ``(u, v)``;
  2. for each TDG edge crossing it (heaviest first), try moving one
     endpoint to the other side;
  3. build the plan with the move applied; keep the move iff the
     plan stays valid and ``A_max`` strictly drops.

Every accepted move lowers ``A_max`` by at least one byte, so the
search terminates.

``A_max`` depends only on the MAT -> switch host map — never on stage
layouts or routing — so each candidate move is screened first: the
moved MAT's edges are taken off their old switch pairs and added to
their new ones in the round's pair bytes, which gives the candidate's
``A_max`` in O(degree + pairs) integer arithmetic.  Only moves this
probe proves improving pay for a candidate plan.  The filter is exact
— a probe-rejected candidate is precisely one the historical search
would have rejected after rebuilding — so the accepted-move sequence,
and therefore the refined plan, is identical to the historical
implementation; only the wall-clock drops (see
``benchmarks/test_bench_plan.py``).

A candidate the probe passes is assembled, not rebuilt, and a rejected
one no longer pays for a rebuild.  Stage layouts, failures included,
are memoized per switch and MAT set, and every switch's layout is
looked up before anything is placed: only switches whose MAT set this
call has not seen before (normally the two the move touches) are laid
out, and a layout that does not fit rejects the candidate at once.  A
feasible candidate is put together from the memoized placement
records, without routing, and the dataflow verifier runs on it first:
it reads only the TDG and the placements, and most candidates that
pass the layouts fail it (a move that strands metadata behind a
recirculation).  Only a verified candidate is routed from the path
enumerator's cached shortest-path trees and validated in full, so the
check order changes which check rejects a candidate, never whether it
is rejected (see :func:`_rebuild`).  The verifier reads tables memoized
on the TDG, so the candidates of one call derive them once, and its
report is memoized on the candidate, so verifying the refined plan
again costs nothing.  The rebuild-per-candidate search survives only
as the tests' oracle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.stages import StageAssignmentError, assign_stages
from repro.network.paths import PathEnumerator
from repro.plan.artifact import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
    route_all_pairs,
)
from repro.tdg.graph import Tdg


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
    network; without it every switch is laid out afresh.  The checks
    run cheapest-reject first:

    1. every switch's layout is looked up before anything is placed,
       so an infeasible one rejects the mapping at once;
    2. a feasible mapping is assembled from the memoized placement
       records, switch by switch in first-use order, into a plan
       without routing;
    3. the dataflow verifier runs on that plan;
    4. only a verified plan is routed by
       :func:`~repro.plan.artifact.route_all_pairs`, and its
       ``with_routing`` sibling is validated in full.

    The order is exact.  The verifier reads only the TDG and the
    placements (channels from the hosts, the visit order from the pair
    bytes and the occupied switches), never the routing or the
    network, so it rejects the same candidates before routing as
    after.  The routed sibling inherits the verifier's memo but not a
    validation record, so ``validate()`` checks it as it checked the
    directly built plan.  An error other than
    :class:`~repro.core.verification.DataflowError` from the verifier
    (a field defined two ways on one channel raises ``ValueError``)
    escapes only if routing and ``validate()`` pass, as when they ran
    first.
    """
    layouts = {} if layouts is None else layouts
    by_switch: Dict[str, List[str]] = {}
    for mat_name, switch in hosts.items():
        by_switch.setdefault(switch, []).append(mat_name)
    placements: Dict[str, MatPlacement] = {}
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
        placements.update(layout)

    # Structural validity is not enough: a move can strand metadata
    # behind a recirculation (produced on a switch's first visit,
    # needed on its second — the PHV does not survive the loop).  The
    # verifier needs no routing, so such a move is rejected unrouted.
    from repro.core.verification import DataflowError, verify_dataflow

    candidate = DeploymentPlan(plan.tdg, plan.network, placements)
    try:
        verify_dataflow(candidate)
    except DataflowError:
        return None
    except Exception:
        # Routing and validate() ran before the verifier once: a
        # candidate they reject is rejected whatever the verifier
        # raised, and only a valid one lets the error through.
        if _routed(candidate, paths) is None:
            return None
        raise
    return _routed(candidate, paths)


def _routed(
    candidate: DeploymentPlan, paths: PathEnumerator
) -> Optional[DeploymentPlan]:
    """``candidate`` routed by
    :func:`~repro.plan.artifact.route_all_pairs` and validated, or None
    if either fails."""
    try:
        routed = route_all_pairs(candidate, paths)
        routed.validate()
    except DeploymentError:
        return None
    return routed


def _moved_amax(
    tdg: Tdg,
    pairs: Dict[Tuple[str, str], int],
    hosts: Dict[str, str],
    mat_name: str,
    target: str,
) -> int:
    """``A_max`` once ``mat_name`` moves to ``target``, where ``hosts``
    is the MAT -> switch map before the move and ``pairs`` its pair
    bytes.

    Each of the MAT's edges leaves its old switch pair and joins its new
    one; a pair on one switch carries nothing.
    """
    source = hosts[mat_name]
    after = dict(pairs)

    def shift(old: Tuple[str, str], new: Tuple[str, str], size: int) -> None:
        if old[0] != old[1]:
            after[old] -= size
        if new[0] != new[1]:
            after[new] = after.get(new, 0) + size

    for edge in tdg.out_edges(mat_name):
        down = hosts[edge.downstream]
        shift((source, down), (target, down), edge.metadata_bytes)
    for edge in tdg.in_edges(mat_name):
        up = hosts[edge.upstream]
        shift((up, source), (up, target), edge.metadata_bytes)
    return max(after.values(), default=0)


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
                if (
                    _moved_amax(current.tdg, pairs, hosts, mat_name, target)
                    >= best_amax
                ):
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
                    improved = True
                    break
        if not improved:
            break
    return current
