"""The reconciler's timeout fallback: a cheapest feasible local patch.

The normal replan path re-runs the global heuristic — deliberately, as
:mod:`repro.control.migration` explains, because a local patch can
strand heavy-metadata edges across the patch boundary and lose the
byte-overhead guarantee.  But a reconciler under a hard time budget
needs *some* valid plan now; :func:`cheapest_patch` is that degraded
mode.  It keeps every surviving placement exactly where it is, re-homes
only the orphaned MATs (those whose old host vanished or stopped being
able to host), greedily choosing for each orphan the feasible
(switch, stages) spot that adds the fewest cross-switch bytes, and
rebuilds the routing over latency-shortest paths on the current
network.  The result validates against every paper constraint; its
``A_max`` is merely not guaranteed to be minimal — exactly the
trade the time budget asked for.

The stage-fitting primitives (window search, capacity accounting,
neighbor reachability) are shared with the warm replanning splice and
live in :mod:`repro.plan.splice`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.network.paths import PathEnumerator
from repro.network.switch import Switch
from repro.network.topology import Network
from repro.plan.artifact import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
    route_all_pairs,
)
from repro.plan.splice import (
    cross_bytes as _cross_bytes,
    fit_stages,
    free_capacity as _free_capacity,
    neighbors_reachable as _neighbors_reachable,
    stage_window as _stage_window,
)
from repro.tdg.graph import Tdg


def cheapest_patch(
    old_plan: DeploymentPlan,
    network: Network,
    paths: Optional[PathEnumerator] = None,
) -> DeploymentPlan:
    """Re-home only the MATs whose old host can no longer serve.

    Args:
        old_plan: The currently active plan (its TDG must still be the
            live workload; the caller falls back to a full replan when
            the workload changed).
        network: The current substrate.
        paths: Optional shared path enumerator for ``network``.

    Returns:
        A validated plan with minimal placement churn.

    Raises:
        DeploymentError: If some orphan fits on no surviving switch.
    """
    tdg = old_plan.tdg
    paths = paths or PathEnumerator(network)
    hostable = {
        s.name: s for s in network.programmable_switches()
    }
    if not hostable:
        raise DeploymentError("patch: no programmable switches survive")

    surviving: Dict[str, MatPlacement] = {}
    orphans: List[str] = []
    for name, placement in old_plan.placements.items():
        host = hostable.get(placement.switch)
        if host is not None and placement.last_stage <= host.num_stages:
            surviving[name] = placement
        else:
            orphans.append(name)
    if not orphans:
        # Nothing to re-home; only the routing may need repair.
        return route_all_pairs(DeploymentPlan(tdg, network, surviving), paths)

    free = _free_capacity(tdg, hostable, surviving)
    placements = dict(surviving)
    for name in tdg.topological_order():
        if name not in set(orphans):
            continue
        placements[name] = _place_orphan(
            tdg, name, hostable, free, placements, paths
        )
    plan = route_all_pairs(DeploymentPlan(tdg, network, placements), paths)
    plan.validate()
    return plan


def _place_orphan(
    tdg: Tdg,
    name: str,
    hostable: Dict[str, Switch],
    free: Dict[str, List[float]],
    placements: Dict[str, MatPlacement],
    paths: PathEnumerator,
    tol: float = 1e-9,
) -> MatPlacement:
    """The cheapest feasible spot for one orphaned MAT.

    Candidates are scored by the metadata bytes the placement sends
    across switch boundaries (lower is cheaper); reachability of every
    already-placed neighbor is required so routing stays closed.  Ties
    break on the switch name, keeping the patch deterministic.
    """
    mat = tdg.node(name)
    best: Optional[Tuple[int, str, MatPlacement]] = None
    for switch_name in sorted(hostable):
        switch = hostable[switch_name]
        window = _stage_window(tdg, name, switch_name, switch, placements)
        if window is None:
            continue
        lo, hi = window
        stages = fit_stages(
            mat.resource_demand, free[switch_name], lo, hi, tol
        )
        if stages is None:
            continue
        cost = _cross_bytes(tdg, name, switch_name, placements)
        if not _neighbors_reachable(tdg, name, switch_name, placements, paths):
            continue
        candidate = MatPlacement(name, switch_name, stages)
        if best is None or (cost, switch_name) < (best[0], best[1]):
            best = (cost, switch_name, candidate)
    if best is None:
        raise DeploymentError(
            f"patch: orphaned MAT {name!r} fits on no surviving switch"
        )
    placement = best[2]
    share = mat.resource_demand / len(placement.stages)
    for stage in placement.stages:
        free[placement.switch][stage - 1] -= share
    return placement

