"""Structural comparison of deployment plans.

:func:`diff_plans` compares two plans for the "same" logical workload
and reports what actually changed: which MATs moved to a different
switch, which were re-staged in place, which appeared/disappeared,
which switch pairs now exchange different byte totals and which routes
changed.  This is the artifact the lifecycle reconciler's batch
outcomes (:class:`repro.runtime.EventOutcome`) expose to operators — a
failure-triggered re-deployment is judged by its
disruption (rules to move, routes to replay), not just the scalar
overhead delta — and what ``repro plan diff`` prints on the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.plan.artifact import DeploymentPlan

Pair = Tuple[str, str]


@dataclass(frozen=True)
class PlacementChange:
    """One MAT whose placement differs between two plans."""

    mat_name: str
    old_switch: str
    new_switch: str
    old_stages: Tuple[int, ...]
    new_stages: Tuple[int, ...]

    @property
    def moved(self) -> bool:
        """Whether the MAT changed hosting switch (vs re-staged only)."""
        return self.old_switch != self.new_switch


@dataclass(frozen=True)
class PlanDiff:
    """The structural delta between an old and a new plan.

    Attributes:
        moved: MATs hosted by a different switch in the new plan.
        restaged: MATs on the same switch but different stages.
        added: MAT names present only in the new plan.
        removed: MAT names present only in the old plan.
        changed_pairs: Ordered switch pairs whose metadata byte total
            differs, mapped to ``(old_bytes, new_bytes)`` (0 for a pair
            absent on one side).
        rerouted: Pairs routed in both plans but over different paths.
        old_overhead_bytes: ``A_max`` of the old plan.
        new_overhead_bytes: ``A_max`` of the new plan.
    """

    moved: Tuple[PlacementChange, ...] = ()
    restaged: Tuple[PlacementChange, ...] = ()
    added: Tuple[str, ...] = ()
    removed: Tuple[str, ...] = ()
    changed_pairs: Dict[Pair, Tuple[int, int]] = field(default_factory=dict)
    rerouted: Tuple[Pair, ...] = ()
    old_overhead_bytes: int = 0
    new_overhead_bytes: int = 0

    @property
    def overhead_delta_bytes(self) -> int:
        """``A_max`` change; negative means the new plan is cheaper."""
        return self.new_overhead_bytes - self.old_overhead_bytes

    @property
    def is_empty(self) -> bool:
        """Whether the two plans are placement- and route-identical."""
        return not (
            self.moved
            or self.restaged
            or self.added
            or self.removed
            or self.changed_pairs
            or self.rerouted
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable rendering (for the CLI and journals)."""
        return {
            "moved": [
                {
                    "mat": c.mat_name,
                    "old_switch": c.old_switch,
                    "new_switch": c.new_switch,
                    "old_stages": list(c.old_stages),
                    "new_stages": list(c.new_stages),
                }
                for c in self.moved
            ],
            "restaged": [
                {
                    "mat": c.mat_name,
                    "switch": c.new_switch,
                    "old_stages": list(c.old_stages),
                    "new_stages": list(c.new_stages),
                }
                for c in self.restaged
            ],
            "added": list(self.added),
            "removed": list(self.removed),
            "changed_pairs": [
                {
                    "pair": list(pair),
                    "old_bytes": old,
                    "new_bytes": new,
                }
                for pair, (old, new) in sorted(self.changed_pairs.items())
            ],
            "rerouted": [list(pair) for pair in self.rerouted],
            "old_overhead_bytes": self.old_overhead_bytes,
            "new_overhead_bytes": self.new_overhead_bytes,
            "overhead_delta_bytes": self.overhead_delta_bytes,
            "identical": self.is_empty,
        }

    def summary(self) -> str:
        """A one-paragraph human rendering of the delta."""
        if self.is_empty:
            return (
                f"plans are identical (A_max={self.new_overhead_bytes} B)"
            )
        parts: List[str] = []
        if self.moved:
            parts.append(f"{len(self.moved)} MAT(s) moved")
        if self.restaged:
            parts.append(f"{len(self.restaged)} MAT(s) re-staged")
        if self.added:
            parts.append(f"{len(self.added)} MAT(s) added")
        if self.removed:
            parts.append(f"{len(self.removed)} MAT(s) removed")
        if self.changed_pairs:
            parts.append(f"{len(self.changed_pairs)} pair byte-total(s) changed")
        if self.rerouted:
            parts.append(f"{len(self.rerouted)} pair(s) rerouted")
        sign = "+" if self.overhead_delta_bytes >= 0 else ""
        parts.append(
            f"A_max {self.old_overhead_bytes} -> "
            f"{self.new_overhead_bytes} B ({sign}{self.overhead_delta_bytes})"
        )
        return ", ".join(parts)


def diff_plans(
    old: DeploymentPlan, new: Optional[DeploymentPlan]
) -> PlanDiff:
    """Structural delta from ``old`` to ``new``.

    ``new=None`` (a failed re-deployment) reports every old MAT as
    removed and a zero new overhead.
    """
    if new is None:
        return PlanDiff(
            removed=tuple(sorted(old.placements)),
            changed_pairs={
                pair: (bytes_, 0)
                for pair, bytes_ in old.pair_metadata_bytes().items()
                if bytes_
            },
            old_overhead_bytes=old.max_metadata_bytes(),
            new_overhead_bytes=0,
        )
    old_p = dict(old.placements)
    new_p = dict(new.placements)
    moved: List[PlacementChange] = []
    restaged: List[PlacementChange] = []
    for name in sorted(set(old_p) & set(new_p)):
        before, after = old_p[name], new_p[name]
        if before.switch == after.switch and before.stages == after.stages:
            continue
        change = PlacementChange(
            name, before.switch, after.switch, before.stages, after.stages
        )
        (moved if change.moved else restaged).append(change)
    old_pairs = old.pair_metadata_bytes()
    new_pairs = new.pair_metadata_bytes()
    changed_pairs = {
        pair: (old_pairs.get(pair, 0), new_pairs.get(pair, 0))
        for pair in set(old_pairs) | set(new_pairs)
        if old_pairs.get(pair, 0) != new_pairs.get(pair, 0)
    }
    rerouted = tuple(
        sorted(
            pair
            for pair in set(old.routing) & set(new.routing)
            if old.routing[pair].switches != new.routing[pair].switches
        )
    )
    return PlanDiff(
        moved=tuple(moved),
        restaged=tuple(restaged),
        added=tuple(sorted(set(new_p) - set(old_p))),
        removed=tuple(sorted(set(old_p) - set(new_p))),
        changed_pairs=changed_pairs,
        rerouted=rerouted,
        old_overhead_bytes=old.max_metadata_bytes(),
        new_overhead_bytes=new.max_metadata_bytes(),
    )
