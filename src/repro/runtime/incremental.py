"""Warm-start incremental replanning: the reconciler's first rung.

A cold replan rebuilds the whole deployment from the current workload
and network — correct, memoryless, and wasteful: most churn events
leave nearly every placement valid.  :class:`IncrementalReplanner`
exploits that.  It tries the cheapest sound repair first and measures
the event's blast radius only when that fails, exactly the way the
cheapest-patch fallback does (a placement is *orphaned* when its host
vanished, stopped being programmable, or shrank below the placement's
last stage):

* **rebase** — tried first: the old placements carry over verbatim and
  only the routing is re-derived
  (:func:`repro.plan.splice.rebase_plan`).  Its validation checks every
  host against the orphan predicate, so it succeeds only when the blast
  radius is empty.  ``A_max`` depends only on placements, so a rebase
  preserves it *exactly* — this rung is byte-equivalent to a full
  replan whose optimizer would keep the same placements, and it costs
  microseconds.
* **delta** — small blast radius: the orphans are re-homed by the
  restricted MILP (:class:`repro.core.delta.DeltaFormulation`) and the
  solution spliced into the surviving placements
  (:func:`repro.plan.splice.splice_plan`) under the model's own
  ``A_max`` prediction as a cap.

Anything else raises :class:`IncrementalEscalation` and the reconciler
falls through to the cold rungs: a failed rebase with nothing
orphaned, a blast radius above ``max_blast_fraction`` (the delta
abstraction stops being cheaper or tighter than a cold solve), or any
``DeploymentError`` out of the delta / splice machinery.

Both repairs keep the old plan's TDG, so they are sound only while it
is still the live workload.  The caller establishes that before it
asks: the :class:`~repro.runtime.reconciler.Reconciler` compares the
live programs, by identity, with those its active plan was deployed
for (and escalates with reason ``"workload_changed"`` itself), and a
daemon session reaches the replanner only when the solve-relevant
params, workload spec and seed included, are unchanged.

The replanner is stateful on purpose: one instance serves a whole
scenario, so consecutive delta solves share the
:class:`~repro.milp.presolve.PresolveCache` sitting inside its
:class:`DeltaFormulation`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.delta import DeltaFormulation
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentError, DeploymentPlan
from repro.plan.splice import rebase_plan, splice_plan
from repro.telemetry import emit

#: The repair modes :meth:`IncrementalReplanner.replan` can return.
MODE_REBASE = "rebase"
MODE_DELTA = "delta"


class IncrementalEscalation(DeploymentError):
    """The incremental rung refuses; the caller must replan cold.

    Attributes:
        reason: Machine-readable escalation cause — one of
            ``"blast_fraction"``, ``"rebase_failed"``,
            ``"delta_failed"``, or ``"workload_changed"`` (raised by
            the reconciler, which judges the workload).
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


def find_orphans(
    old_plan: DeploymentPlan, network: Network
) -> List[str]:
    """Placements whose old host can no longer serve them.

    The same predicate :func:`repro.runtime.patch.cheapest_patch` uses:
    the host is gone, no longer programmable, or its pipeline shrank
    below the placement's last stage.  Order follows the plan's
    placement mapping for determinism.
    """
    hostable = {s.name: s for s in network.programmable_switches()}
    orphans: List[str] = []
    for name, placement in old_plan.placements.items():
        host = hostable.get(placement.switch)
        if host is None or placement.last_stage > host.num_stages:
            orphans.append(name)
    return orphans


class IncrementalReplanner:
    """Chooses and executes the cheapest sound warm repair.

    Args:
        max_blast_fraction: Orphaned fraction of the placements above
            which the delta mode escalates (the restricted model would
            no longer be small).
        delta: The delta formulation to solve with; defaults to a
            fresh :class:`DeltaFormulation` whose presolve cache then
            persists across this replanner's lifetime.
    """

    def __init__(
        self,
        max_blast_fraction: float = 0.3,
        delta: Optional[DeltaFormulation] = None,
    ) -> None:
        if not 0.0 <= max_blast_fraction <= 1.0:
            raise ValueError("max_blast_fraction must be in [0, 1]")
        self.max_blast_fraction = max_blast_fraction
        self.delta = delta or DeltaFormulation()

    def replan(
        self,
        network: Network,
        old_plan: DeploymentPlan,
        paths: Optional[PathEnumerator] = None,
    ) -> Tuple[DeploymentPlan, str]:
        """Repair ``old_plan`` onto ``network``; returns (plan, mode).

        ``old_plan``'s TDG must still be the live workload; the caller
        establishes that (see the module docstring).  ``mode`` is
        :data:`MODE_REBASE` or :data:`MODE_DELTA`.

        Raises:
            IncrementalEscalation: Whenever a cold replan is the only
                sound continuation; see the module docstring for the
                escalation causes.
        """
        paths = paths or PathEnumerator(network)
        # A rebase validates every host, so it succeeds only when no
        # placement is orphaned: try it first, and look for orphans
        # only when it fails.
        try:
            plan = rebase_plan(old_plan, network, paths)
        except DeploymentError as exc:
            orphans = find_orphans(old_plan, network)
            if not orphans:
                raise IncrementalEscalation(
                    "rebase_failed", f"incremental: rebase failed: {exc}"
                ) from exc
        else:
            emit(
                "runtime.replan.incremental",
                mode=MODE_REBASE,
                orphans=0,
                amax_bytes=plan.max_metadata_bytes(),
            )
            return plan, MODE_REBASE
        fraction = len(orphans) / len(old_plan.placements)
        if fraction > self.max_blast_fraction:
            raise IncrementalEscalation(
                "blast_fraction",
                f"incremental: blast radius {len(orphans)}/"
                f"{len(old_plan.placements)} placements exceeds "
                f"max_blast_fraction={self.max_blast_fraction}",
            )
        try:
            assignment = self.delta.solve(
                old_plan.tdg, network, old_plan, orphans, paths
            )
            plan = splice_plan(
                old_plan,
                network,
                assignment,
                paths,
                amax_cap=self.delta.last_predicted_amax,
            )
        except IncrementalEscalation:
            raise
        except DeploymentError as exc:
            raise IncrementalEscalation(
                "delta_failed", f"incremental: delta repair failed: {exc}"
            ) from exc
        emit(
            "runtime.replan.incremental",
            mode=MODE_DELTA,
            orphans=len(orphans),
            predicted_amax_bytes=self.delta.last_predicted_amax,
            amax_bytes=plan.max_metadata_bytes(),
        )
        return plan, MODE_DELTA
