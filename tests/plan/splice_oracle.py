"""Splicing as it was before it stopped building a ``PlanBuilder``, kept
as the tests' reference model.

:func:`repro.plan.splice.splice_plan` collects the kept and the
re-homed placements itself, checks ``amax_cap`` against the plan they
make, and routes them with
:func:`repro.plan.artifact.first_meet_routing`.  It must return what the
builder-based splice returned: the same placements and routing, both in
the same order, and so the same fingerprint and switch configurations,
or raise the same exception with the same message.  This module is that
code, copied, not imported: ``legacy_splice_plan`` is the old
``splice_plan``, on the builder of :mod:`plan_builder_oracle`; the stage
fitting helpers it calls are unchanged and imported.

Import it as a plain module (``from splice_oracle import ...``); it
deliberately contains no tests of its own.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from plan_builder_oracle import PlanBuilder

from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentError, DeploymentPlan, MatPlacement
from repro.plan.splice import (
    fit_stages,
    free_capacity,
    neighbors_reachable,
    stage_window,
)


def legacy_splice_plan(
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
    search the patch fallback uses.  The placements are applied through
    a :class:`PlanBuilder`, whose incremental metrics give an exact
    O(degree) ``A_max`` probe; when the probe exceeds ``amax_cap`` (the
    delta model's predicted objective, when the caller knows it) every
    applied placement is undone and the splice fails — the model and
    the plan disagreeing means the delta abstraction leaked, and the
    caller must escalate rather than activate a mispriced plan.

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
    fixed = {
        name: placement
        for name, placement in old_plan.placements.items()
        if name not in free
    }
    builder = PlanBuilder(tdg, network, fixed)
    capacity = free_capacity(tdg, hostable, fixed)
    placements: Dict[str, MatPlacement] = dict(fixed)
    applied = []
    try:
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
            if not neighbors_reachable(
                tdg, name, switch_name, placements, paths
            ):
                raise DeploymentError(
                    f"splice: {name!r} on {switch_name!r} cannot reach "
                    "a placed neighbor"
                )
            applied.append(builder.place(name, switch_name, stages))
            placements[name] = MatPlacement(name, switch_name, tuple(stages))
            share = tdg.node(name).resource_demand / len(stages)
            for stage in stages:
                capacity[switch_name][stage - 1] -= share
        if (
            amax_cap is not None
            and builder.max_metadata_bytes() > amax_cap
        ):
            raise DeploymentError(
                f"splice: incremental A_max probe "
                f"{builder.max_metadata_bytes()} B exceeds the delta "
                f"model's prediction {amax_cap} B"
            )
    except DeploymentError:
        for token in reversed(applied):
            builder.undo(token)
        raise
    builder.route_shortest(paths)
    return builder.build(validate=validate)
