"""Refinement as it was before candidates were assembled from memoized
layouts, kept as the tests' reference model.

:func:`repro.core.refine._rebuild` takes every switch's stage layout
from the memo before it places anything and assembles a feasible
candidate straight from the memoized placement records, without a
:class:`~plan_builder_oracle.PlanBuilder`.  It must return what the
builder-based rebuild returned: None for the same host maps, and
otherwise a plan with the same placements, routing (both in the same
order), fingerprint and verifier report.  This module is that code,
copied, not imported: ``legacy_rebuild`` is the old ``_rebuild``,
which verifies through :mod:`verification_oracle`, and
``legacy_refine_plan`` the historical search that rebuilds every
candidate move without a probe or a layout memo.

Import it as a plain module (``from refine_oracle import ...``); it
deliberately contains no tests of its own.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from verification_oracle import legacy_verify_dataflow

from repro.core.stages import StageAssignmentError, assign_stages
from repro.core.verification import DataflowError
from repro.network.paths import PathEnumerator
from repro.plan.artifact import DeploymentError, DeploymentPlan, MatPlacement
from plan_builder_oracle import PlanBuilder

Layouts = Dict[Tuple[str, FrozenSet[str]], Optional[Dict[str, MatPlacement]]]


def legacy_rebuild(
    plan: DeploymentPlan,
    hosts: Dict[str, str],
    paths: PathEnumerator,
    layouts: Optional[Layouts] = None,
) -> Optional[DeploymentPlan]:
    """A full plan from a MAT->switch mapping, or None if infeasible.

    ``layouts`` carries stage layouts across calls on one TDG and
    network; without it every switch is laid out afresh.
    """
    layouts = {} if layouts is None else layouts
    builder = PlanBuilder(plan.tdg, plan.network)
    by_switch: Dict[str, List[str]] = {}
    for mat_name, switch in hosts.items():
        by_switch.setdefault(switch, []).append(mat_name)
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
        for placement in layout.values():
            builder.place(
                placement.mat_name, placement.switch, placement.stages
            )
    try:
        builder.route_shortest(paths)
        candidate = builder.build()
    except DeploymentError:
        return None
    try:
        legacy_verify_dataflow(candidate)
    except DataflowError:
        return None
    return candidate


def legacy_refine_plan(
    plan, paths=None, max_moves=40, max_trials_per_move=24
):
    """The historical refine loop: full rebuild per candidate move."""
    paths = paths or PathEnumerator(plan.network)
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
                trial_hosts = dict(hosts)
                trial_hosts[mat_name] = target
                candidate = legacy_rebuild(current, trial_hosts, paths)
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
