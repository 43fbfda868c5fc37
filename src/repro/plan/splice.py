"""Splicing delta solutions into an existing deployment plan.

The warm replanning path never rebuilds a plan from scratch: a churn
event leaves most placements untouched, so the new plan is the old one
*rebased* onto the current network (same placements, routing re-derived)
with only the blast-radius MATs re-homed by the delta solve
(:mod:`repro.core.delta`).  This module is the plan-layer half of that
contract:

* :func:`rebase_plan` — the empty-blast-radius case: every placement
  survives verbatim; only the routing is recomputed on the current
  substrate.
* :func:`splice_plan` — apply a delta assignment (``MAT -> switch`` for
  the free MATs) on top of the surviving placements, fitting stages
  with the same window search the cheapest-patch fallback uses, and
  refuse the result when it is infeasible or its ``A_max`` blows an
  optional ``amax_cap``.

The stage-fitting helpers (:func:`stage_window`, :func:`fit_stages`,
:func:`cross_bytes`, :func:`neighbors_reachable`,
:func:`free_capacity`) live here so the plan layer owns them;
:mod:`repro.runtime.patch` imports them for its orphan re-homing.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.network.paths import PathEnumerator
from repro.network.switch import Switch
from repro.network.topology import Network
from repro.plan.artifact import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
    route_all_pairs,
)
from repro.tdg.graph import Tdg


def free_capacity(
    tdg: Tdg,
    hostable: Dict[str, Switch],
    placements: Mapping[str, MatPlacement],
) -> Dict[str, List[float]]:
    """Per-switch, per-stage capacity left after ``placements``."""
    free = {
        name: [switch.stage_capacity] * switch.num_stages
        for name, switch in hostable.items()
    }
    for placement in placements.values():
        if placement.switch not in free:
            continue
        share = tdg.node(placement.mat_name).resource_demand / len(
            placement.stages
        )
        stages = free[placement.switch]
        for stage in placement.stages:
            stages[stage - 1] -= share
    return free


def stage_window(
    tdg: Tdg,
    name: str,
    switch_name: str,
    switch: Switch,
    placements: Mapping[str, MatPlacement],
) -> Optional[Tuple[int, int]]:
    """Stage bounds (lo, hi) honoring same-switch dependency order."""
    lo, hi = 1, switch.num_stages
    for pred in tdg.predecessors(name):
        placement = placements.get(pred)
        if placement is not None and placement.switch == switch_name:
            lo = max(lo, placement.last_stage + 1)
    for succ in tdg.successors(name):
        placement = placements.get(succ)
        if placement is not None and placement.switch == switch_name:
            hi = min(hi, placement.first_stage - 1)
    if lo > hi:
        return None
    return lo, hi


def fit_stages(
    demand: float,
    free: List[float],
    lo: int,
    hi: int,
    tol: float = 1e-9,
) -> Optional[Tuple[int, ...]]:
    """Smallest consecutive stage window in [lo, hi] holding ``demand``.

    The demand splits evenly across the window (matching
    :func:`repro.core.stages.assign_stages` semantics); the earliest
    smallest window wins for determinism.
    """
    for width in range(1, hi - lo + 2):
        share = demand / width
        for start in range(lo, hi - width + 2):
            if all(
                free[stage - 1] + tol >= share
                for stage in range(start, start + width)
            ):
                return tuple(range(start, start + width))
    return None


def cross_bytes(
    tdg: Tdg,
    name: str,
    switch_name: str,
    placements: Mapping[str, MatPlacement],
) -> int:
    """Metadata bytes this placement sends across switch boundaries."""
    total = 0
    for edge in tdg.in_edges(name):
        placement = placements.get(edge.upstream)
        if placement is not None and placement.switch != switch_name:
            total += edge.metadata_bytes
    for edge in tdg.out_edges(name):
        placement = placements.get(edge.downstream)
        if placement is not None and placement.switch != switch_name:
            total += edge.metadata_bytes
    return total


def neighbors_reachable(
    tdg: Tdg,
    name: str,
    switch_name: str,
    placements: Mapping[str, MatPlacement],
    paths: PathEnumerator,
) -> bool:
    """Whether every placed TDG neighbor can still route to ``name``."""
    for pred in tdg.predecessors(name):
        placement = placements.get(pred)
        if placement is not None and not paths.reachable(
            placement.switch, switch_name
        ):
            return False
    for succ in tdg.successors(name):
        placement = placements.get(succ)
        if placement is not None and not paths.reachable(
            switch_name, placement.switch
        ):
            return False
    return True


def rebase_plan(
    old_plan: DeploymentPlan,
    network: Network,
    paths: Optional[PathEnumerator] = None,
    validate: bool = True,
) -> DeploymentPlan:
    """Carry every placement onto the current network unchanged.

    The empty-blast-radius replan: when no placement lost its host, the
    old plan is already placement-feasible on the new substrate and
    only the routing needs re-deriving (links may have changed).
    ``A_max`` is invariant under rebasing — pair bytes depend only on
    placements, never on links.  The placements are kept as they are,
    in their order, and routed by
    :func:`~repro.plan.artifact.route_all_pairs` on the new network.
    The rebased plan is a :meth:`DeploymentPlan.with_routing` sibling,
    so it inherits the old plan's placement metrics (pair bytes,
    ``A_max``, occupied switches, stage loads) and, when the old plan
    passed validation, skips the checks that read only the placements;
    hosts, stage capacity and routing are checked on ``network``.

    Raises:
        DeploymentError: When validation fails (a placement actually
            did lose its host, or a communicating pair is now
            disconnected) — the caller escalates to a full replan.
    """
    paths = paths or PathEnumerator(network)
    try:
        plan = route_all_pairs(old_plan.with_routing({}, network), paths)
        if validate:
            plan.validate()
        return plan
    except KeyError as exc:
        # Path queries and the validator index hosts by name; a vanished
        # one surfaces as a KeyError, which is this function's
        # infeasibility.
        raise DeploymentError(f"rebase: {exc.args[0]}") from exc


def splice_plan(
    old_plan: DeploymentPlan,
    network: Network,
    assignment: Mapping[str, str],
    paths: Optional[PathEnumerator] = None,
    amax_cap: Optional[int] = None,
    validate: bool = True,
) -> DeploymentPlan:
    """Apply a delta solution on top of the surviving placements.

    Every MAT outside ``assignment`` keeps its old placement verbatim;
    each MAT in ``assignment`` is re-homed onto its assigned switch in
    TDG-topological order, stages chosen by the same dependency-window
    search the patch fallback uses.  The plan holds the kept placements
    in the old plan's order, then the re-homed ones in that topological
    order.  When its ``A_max`` exceeds ``amax_cap`` (the delta model's
    predicted objective, when the caller knows it) the splice fails
    before routing — the model and the plan disagreeing means the delta
    abstraction leaked, and the caller must escalate rather than
    activate a mispriced plan.  Otherwise the plan is routed by
    :func:`~repro.plan.artifact.route_all_pairs`.

    Args:
        old_plan: The currently active plan; its TDG must still be the
            live workload (the caller escalates on workload change).
        network: The current substrate.
        assignment: ``MAT name -> switch name`` for the free MATs.
        paths: Optional shared enumerator for ``network``.
        amax_cap: Optional upper bound on the spliced plan's ``A_max``.
        validate: Validate the frozen artifact (default).

    Raises:
        DeploymentError: Unknown MATs/switches in the assignment, no
            feasible stage window, an unreachable placed neighbor, a
            busted ``amax_cap``, or artifact validation failure.
    """
    tdg = old_plan.tdg
    paths = paths or PathEnumerator(network)
    free = set(assignment)
    unknown = free - set(old_plan.placements)
    if unknown:
        raise DeploymentError(
            f"splice: assignment names unknown MATs {sorted(unknown)}"
        )
    hostable = {s.name: s for s in network.programmable_switches()}
    placements: Dict[str, MatPlacement] = {
        name: placement
        for name, placement in old_plan.placements.items()
        if name not in free
    }
    capacity = free_capacity(tdg, hostable, placements)
    for name in tdg.topological_order():
        if name not in free:
            continue
        switch_name = assignment[name]
        host = hostable.get(switch_name)
        if host is None:
            raise DeploymentError(
                f"splice: {name!r} assigned to non-hostable "
                f"switch {switch_name!r}"
            )
        window = stage_window(tdg, name, switch_name, host, placements)
        if window is None:
            raise DeploymentError(
                f"splice: no stage window for {name!r} on "
                f"{switch_name!r}"
            )
        stages = fit_stages(
            tdg.node(name).resource_demand,
            capacity[switch_name],
            window[0],
            window[1],
        )
        if stages is None:
            raise DeploymentError(
                f"splice: {name!r} does not fit on {switch_name!r}"
            )
        if not neighbors_reachable(tdg, name, switch_name, placements, paths):
            raise DeploymentError(
                f"splice: {name!r} on {switch_name!r} cannot reach "
                "a placed neighbor"
            )
        placements[name] = MatPlacement(name, switch_name, tuple(stages))
        share = tdg.node(name).resource_demand / len(stages)
        for stage in stages:
            capacity[switch_name][stage - 1] -= share
    plan = DeploymentPlan(tdg, network, placements)
    if amax_cap is not None and plan.max_metadata_bytes() > amax_cap:
        raise DeploymentError(
            f"splice: incremental A_max probe "
            f"{plan.max_metadata_bytes()} B exceeds the delta "
            f"model's prediction {amax_cap} B"
        )
    plan = route_all_pairs(plan, paths)
    if validate:
        plan.validate()
    return plan
