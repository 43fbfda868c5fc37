"""The warm rung's replan as it was before it tried the rebase first,
kept as the tests' reference model.

:meth:`repro.runtime.incremental.IncrementalReplanner.replan` tries
:func:`~repro.plan.splice.rebase_plan` and looks for orphaned placements
only when the rebase fails.  It must decide what the orphan-first replan
decided: the same plan and mode, or the same escalation reason and
message.  This module is that code, copied, not imported:
``legacy_replan`` is the old ``replan``, called with the replanner as
``self``; the repairs it calls are imported.

Import it as a module (``from tests.runtime.replan_oracle import ...``);
it deliberately contains no tests of its own.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentError, DeploymentPlan
from repro.plan.splice import rebase_plan, splice_plan
from repro.runtime.incremental import (
    MODE_DELTA,
    MODE_REBASE,
    IncrementalEscalation,
    IncrementalReplanner,
    find_orphans,
)
from repro.telemetry import emit


def legacy_replan(
    self: IncrementalReplanner,
    network: Network,
    old_plan: DeploymentPlan,
    paths: Optional[PathEnumerator] = None,
) -> Tuple[DeploymentPlan, str]:
    """Repair ``old_plan`` onto ``network``; returns (plan, mode).

    ``old_plan``'s TDG must still be the live workload; the caller
    establishes that (see :mod:`repro.runtime.incremental`).  ``mode`` is
    :data:`MODE_REBASE` or :data:`MODE_DELTA`.

    Raises:
        IncrementalEscalation: Whenever a cold replan is the only
            sound continuation; see :mod:`repro.runtime.incremental`
            for the escalation causes.
    """
    paths = paths or PathEnumerator(network)
    orphans = find_orphans(old_plan, network)
    if not orphans:
        try:
            plan = rebase_plan(old_plan, network, paths)
        except DeploymentError as exc:
            raise IncrementalEscalation(
                "rebase_failed", f"incremental: rebase failed: {exc}"
            ) from exc
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
