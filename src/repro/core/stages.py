"""Intra-switch stage assignment.

Once the global optimization decides *which switch* hosts each MAT, the
MATs on one switch must be laid out on its pipeline stages such that

* every dependency ``(a, b)`` satisfies ``rho_end(a) < rho_begin(b)``
  (constraint (8)), and
* no stage's resource load exceeds ``C_res`` (constraint (9)).

This is the classic TDG-to-pipeline layout problem (Jose et al.); we
use level-based list scheduling: process MATs in topological order,
start each at the earliest stage after all its predecessors, and let a
MAT whose demand exceeds one stage's remaining capacity span several
consecutive stages (the paper's ``R(a, i, u)`` spreading).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.switch import Switch
from repro.plan.artifact import MatPlacement
from repro.tdg.graph import Tdg


class StageAssignmentError(ValueError):
    """The MATs cannot be laid out on the switch's pipeline."""


def earliest_window(
    free: List[float],
    demand: float,
    earliest: int,
    num_stages: int,
    tol: float = 1e-9,
) -> Optional[Tuple[int, int]]:
    """Earliest-finishing stage window able to host ``demand``.

    Returns 1-based ``(start, end)`` such that every stage in the window
    has at least ``demand / window_size`` free capacity, preferring the
    smallest end stage (keeps dependency chains short), then the fewest
    stages.  ``free`` is 0-indexed remaining capacity per stage.

    For each end stage the window grows one stage to the left at a
    time, keeping the minimum free capacity it has read so far, so each
    candidate window costs one stage read and a search is O(S^2) in the
    stage count S.  Testing the minimum is exact: ``x + tol`` rounds
    monotonically in ``x``, so ``min(free) + tol >= share`` holds
    exactly when ``free[s] + tol >= share`` holds for every stage of
    the window.

    Shared by the intra-switch layout below and the virtual-pipeline
    chain scheduler in :mod:`repro.baselines.base` — both must pick
    windows by the same rule so a segment that fits on one switch fits
    identically when that switch appears in a chain.
    """
    for end in range(earliest, num_stages + 1):
        lowest = free[end - 1]
        for start in range(end, earliest - 1, -1):
            stage_free = free[start - 1]
            if stage_free < lowest:
                lowest = stage_free
            if lowest + tol >= demand / (end - start + 1):
                return start, end
    return None


def assign_stages(
    segment: Tdg,
    switch: Switch,
    order: Optional[Iterable[str]] = None,
) -> Dict[str, MatPlacement]:
    """Lay out every MAT of ``segment`` on ``switch``'s pipeline.

    Args:
        segment: The TDG segment to place (all of it goes on this
            switch).
        switch: The hosting switch; must be programmable.
        order: Optional explicit processing order; defaults to a
            topological order of the segment.

    Returns:
        MAT name -> :class:`MatPlacement` with 1-based stage tuples.

    Raises:
        StageAssignmentError: If a MAT cannot fit after its
            predecessors within ``switch.num_stages`` stages.
    """
    if not switch.programmable:
        raise StageAssignmentError(
            f"switch {switch.name!r} is not programmable"
        )
    topo = list(order) if order is not None else segment.topological_order()
    free = [switch.stage_capacity] * switch.num_stages
    placements: Dict[str, MatPlacement] = {}

    for mat_name in topo:
        mat = segment.node(mat_name)
        earliest = 1
        for pred in segment.predecessors(mat_name):
            pred_placement = placements.get(pred)
            if pred_placement is None:
                raise StageAssignmentError(
                    f"order places {mat_name!r} before its predecessor "
                    f"{pred!r}"
                )
            earliest = max(earliest, pred_placement.last_stage + 1)
        if earliest > switch.num_stages:
            raise StageAssignmentError(
                f"MAT {mat_name!r} needs a stage after "
                f"{earliest - 1}, but switch {switch.name!r} has only "
                f"{switch.num_stages} stages"
            )
        window = earliest_window(
            free, mat.resource_demand, earliest, switch.num_stages
        )
        if window is None:
            raise StageAssignmentError(
                f"MAT {mat_name!r} (demand {mat.resource_demand:.3f}) "
                f"does not fit on switch {switch.name!r} from stage "
                f"{earliest}"
            )
        start, end = window
        size = end - start + 1
        share = mat.resource_demand / size
        for stage in range(start, end + 1):
            free[stage - 1] -= share
        placements[mat_name] = MatPlacement(
            mat_name, switch.name, tuple(range(start, end + 1))
        )
    return placements


def segment_fits(segment: Tdg, switch: Switch) -> bool:
    """Whether a segment can be fully laid out on one switch.

    Used by the greedy heuristic's split test: a segment "satisfies
    switch resource limitations" when an actual stage layout exists —
    a stronger, sound version of the paper's aggregate test
    ``sum R(a) <= C_stage * C_res`` (which ignores dependency depth).
    """
    if not switch.programmable:
        return False
    if segment.total_resource_demand() > switch.total_capacity:
        return False
    try:
        assign_stages(segment, switch)
    except StageAssignmentError:
        return False
    return True
