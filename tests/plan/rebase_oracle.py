"""Rebasing as it was before it stopped building a ``PlanBuilder``, kept
as the tests' reference model.

:func:`repro.plan.splice.rebase_plan` keeps the old plan's placements as
they are and routes them with
:func:`repro.plan.artifact.first_meet_routing`.  It must return what the
builder-based rebase returned: the same placements and routing, both in
the same order, and so the same fingerprint and switch configurations,
or raise the same exception with the same message.  This module is that
code, copied, not imported: ``legacy_rebase_plan`` is the old
``rebase_plan``.

Import it as a plain module (``from rebase_oracle import ...``); it
deliberately contains no tests of its own.
"""

from __future__ import annotations

from typing import Optional

from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentError, DeploymentPlan
from plan_builder_oracle import PlanBuilder


def legacy_rebase_plan(
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
    placements, never on links.

    Raises:
        DeploymentError: When validation fails (a placement actually
            did lose its host, or a communicating pair is now
            disconnected) — the caller escalates to a full replan.
    """
    paths = paths or PathEnumerator(network)
    try:
        builder = PlanBuilder(old_plan.tdg, network, old_plan.placements)
        builder.route_shortest(paths)
        return builder.build(validate=validate)
    except KeyError as exc:
        # The builder and validator index hosts by name; a vanished one
        # surfaces as a KeyError, which is this function's
        # infeasibility.
        raise DeploymentError(f"rebase: {exc.args[0]}") from exc
