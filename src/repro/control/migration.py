"""Move accounting for re-deployment on network change.

Production networks lose switches (failures, drains, upgrades).  The
deployment must follow: MATs hosted by a vanished switch need a new
home, and the overhead-minimizing structure of the surviving placement
may change entirely.  The lifecycle reconciler
(:class:`repro.runtime.Reconciler`) re-deploys the live workload on the
surviving network; :func:`compute_moves` reduces the old and new plans
to the set of MAT moves, and the rule replays they cost, that an
operator (or an automated controller) must execute.

Re-running the global heuristic instead of locally patching the hole is
deliberate: Algorithm 2's placement is chain-structured, so a local
patch can strand heavy-metadata edges across the patch boundary; the
global re-run keeps the byte-overhead guarantee, and the move set keeps
the disruption measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional

from repro.dataplane.rules import Rule
from repro.plan.artifact import DeploymentPlan


@dataclass(frozen=True)
class MatMove:
    """One MAT changing its physical location.

    ``source`` is None when the old hosting switch vanished (failure,
    drain, or loss of programmability) — the move was *forced*, not an
    optimization choice, and disruption accounting treats the two
    differently.
    """

    mat_name: str
    source: Optional[str]  # None = the hosting switch is gone
    destination: str
    rules_to_replay: int

    @property
    def forced(self) -> bool:
        """Whether the old host vanished (vs the optimizer choosing)."""
        return self.source is None


def compute_moves(
    old_plan: DeploymentPlan,
    new_plan: DeploymentPlan,
    installed_rules: Optional[Dict[str, List[Rule]]] = None,
    vanished: AbstractSet[str] = frozenset(),
) -> "tuple[List[MatMove], List[str]]":
    """The (moves, unchanged) split over the plans' *common* MATs.

    Workload changes between the plans are tolerated (added/removed
    MATs simply don't appear) — the lifecycle reconciler's case, where
    a ``workload_add`` event and a switch failure can land in the same
    replan batch.

    ``vanished`` names switches that can no longer host MATs; a MAT
    leaving one of them becomes a *forced* move (``source=None``).
    """
    moves: List[MatMove] = []
    unchanged: List[str] = []
    common = set(old_plan.placements) & set(new_plan.placements)
    for mat_name in old_plan.placements:
        if mat_name not in common:
            continue
        old_switch = old_plan.switch_of(mat_name)
        new_switch = new_plan.switch_of(mat_name)
        if old_switch == new_switch and old_switch not in vanished:
            unchanged.append(mat_name)
            continue
        if installed_rules is not None:
            replay = len(installed_rules.get(mat_name, []))
        else:
            replay = len(old_plan.tdg.node(mat_name).rules)
        moves.append(
            MatMove(
                mat_name=mat_name,
                source=None if old_switch in vanished else old_switch,
                destination=new_switch,
                rules_to_replay=replay,
            )
        )
    return moves, unchanged
