"""Differential tests: the warm rung tries the rebase first, and a
rebased plan skips only the checks its placements already passed.

``IncrementalReplanner.replan`` tries ``rebase_plan`` and looks for
orphaned placements only when the rebase fails; the oracle in
:mod:`tests.runtime.replan_oracle` is the orphan-first replan.  On every
batch the warm churn corpus (:mod:`tests.runtime.warm_corpus`) hands the
rung, and on crafted networks, both must return the same plan and mode,
or escalate with the same reason and message.  The oracle runs on a
replanner of its own, so the two delta formulations see the same solves
in the same order.

A ``with_routing`` sibling of a validated plan skips the coverage and
intra-switch order checks, which read only the TDG and the placements.
On every rebase of the corpus, the sibling's ``validate()`` must raise
exactly what a freshly constructed plan with the same placements,
routing and network raises, or both must pass.  A sibling of a plan
that was never validated still runs every check.
"""

from collections import Counter
from dataclasses import replace

import pytest

import repro.runtime.incremental as incremental
from repro.core import Hermes
from repro.network.generators import random_wan
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan import plan_fingerprint
from repro.plan.artifact import (
    DeploymentError,
    DeploymentPlan,
    route_all_pairs,
)
from repro.runtime.incremental import (
    IncrementalEscalation,
    IncrementalReplanner,
)
from tests.conftest import make_sketch_program
from tests.runtime.replan_oracle import legacy_replan
from tests.runtime.warm_corpus import replay_all


def _decide(replan, replanner, network, old_plan):
    """``(comparable outcome, what to hand back)`` of one replan: the
    mode, fingerprint and ordered placements and routing of the plan,
    or the escalation's reason and message."""
    try:
        plan, mode = replan(replanner, network, old_plan)
    except IncrementalEscalation as exc:
        return (exc.reason, str(exc)), exc
    outcome = (
        mode,
        plan_fingerprint(plan),
        list(plan.placements.items()),
        list(plan.routing.items()),
    )
    return outcome, (plan, mode)


@pytest.fixture
def decisions(monkeypatch):
    """Checks every ``IncrementalReplanner.replan`` against the oracle,
    run on a shadow replanner per production replanner; returns the
    decisions (modes and escalation reasons) in order."""
    production = IncrementalReplanner.replan
    shadows = {}
    decided = []

    def comparing(self, network, old_plan, paths=None):
        shadow = shadows.setdefault(
            self, IncrementalReplanner(self.max_blast_fraction)
        )
        expected, _ = _decide(legacy_replan, shadow, network, old_plan)
        actual, result = _decide(production, self, network, old_plan)
        assert actual == expected
        decided.append(actual[0])
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(IncrementalReplanner, "replan", comparing)
    return decided


def test_every_warm_replan_matches_the_orphan_first_oracle(decisions):
    replay_all()
    assert {"rebase", "delta", "delta_failed", "blast_fraction"} <= set(
        decisions
    )


# ----------------------------------------------------------------------
# Crafted networks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def network():
    return random_wan(12, 18, seed=4, num_stages=2, stage_capacity=1.0)


@pytest.fixture(scope="module")
def plan(network):
    """Chains too deep for one two-stage switch, so switches talk."""
    programs = [
        make_sketch_program(f"p{i}", index_bytes=2 + i, demands=(0.9,) * 3)
        for i in range(4)
    ]
    plan = Hermes().deploy(programs, network).plan
    assert plan.max_metadata_bytes() > 0
    return plan


def _rebuilt(network, change):
    """``network`` with ``change(switch)`` applied to every switch and
    every link kept unless ``change`` drops the switch (returns None)."""
    out = Network(network.name)
    for switch in network.switches:
        switch = change(switch)
        if switch is not None:
            out.add_switch(switch)
    for link in network.links:
        if link.u in out and link.v in out:
            out.add_link(link)
    return out


def _isolated(network, victim):
    """``network`` with ``victim`` kept but every link of it cut."""
    out = Network(network.name)
    for switch in network.switches:
        out.add_switch(switch)
    for link in network.links:
        if victim not in link.key:
            out.add_link(link)
    return out


def _variants(plan, network):
    """One network per occupied switch and way of breaking it."""
    for victim in plan.occupied_switches():
        yield "isolated", _isolated(network, victim)
        yield "vanished", _rebuilt(
            network, lambda s, v=victim: None if s.name == v else s
        )
        yield "drained", _rebuilt(
            network,
            lambda s, v=victim: (
                replace(s, programmable=False) if s.name == v else s
            ),
        )
        yield "shallow", _rebuilt(
            network,
            lambda s, v=victim: (
                replace(s, num_stages=1) if s.name == v else s
            ),
        )
        yield "narrow", _rebuilt(
            network,
            lambda s, v=victim: (
                replace(s, stage_capacity=0.5) if s.name == v else s
            ),
        )


def test_crafted_replans_match_the_orphan_first_oracle(
    decisions, plan, network
):
    replanner = IncrementalReplanner(max_blast_fraction=1.0)
    for _kind, variant in _variants(plan, network):
        try:
            replanner.replan(variant, plan)
        except IncrementalEscalation:
            pass
    decided = Counter(decisions)
    # Cut links and shrunk stage capacity orphan nothing, so the rebase
    # fails on its own; the other breaks orphan placements.
    assert decided["rebase_failed"] >= 2 * plan.num_occupied_switches()
    assert decided["delta"] + decided["delta_failed"] >= (
        2 * plan.num_occupied_switches()
    )


# ----------------------------------------------------------------------
# Checks a rebased plan carries
# ----------------------------------------------------------------------
def _validation(plan):
    """What ``plan.validate()`` raised (type and message), or None."""
    try:
        plan.validate()
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))
    return None


def assert_sibling_validates_like_fresh(old_plan, network):
    """The rebased sibling of ``old_plan`` on ``network`` against a
    fresh plan with the same placements, routing and network; returns
    the shared outcome, or ``"unroutable"``."""
    try:
        routing = route_all_pairs(
            old_plan.with_routing({}, network), PathEnumerator(network)
        ).routing
    except (DeploymentError, KeyError):
        return "unroutable"
    sibling = old_plan.with_routing(routing, network)
    fresh = DeploymentPlan(
        old_plan.tdg, network, old_plan.placements, routing
    )
    outcome = _validation(sibling)
    assert outcome == _validation(fresh)
    return outcome


def test_rebased_siblings_validate_like_fresh_plans(monkeypatch):
    outcomes = []
    validated = []
    production = incremental.rebase_plan

    def comparing(old_plan, network, paths=None):
        validated.append(old_plan._placements_checked)
        outcomes.append(assert_sibling_validates_like_fresh(old_plan, network))
        return production(old_plan, network, paths)

    monkeypatch.setattr(incremental, "rebase_plan", comparing)
    replay_all()
    # Rebases that pass and rebases that fail validation, of plans whose
    # placements were validated, so the sibling skipped the two checks.
    assert None in outcomes
    assert any(isinstance(outcome, tuple) for outcome in outcomes)
    assert all(validated)


def test_crafted_siblings_validate_like_fresh_plans(plan, network):
    plan.validate()
    outcomes = [
        assert_sibling_validates_like_fresh(plan, variant)
        for _kind, variant in _variants(plan, network)
    ]
    messages = [o[1] for o in outcomes if isinstance(o, tuple)]
    assert any("non-programmable" in m for m in messages)
    assert any("has only 1" in m for m in messages)
    assert any("overloaded" in m for m in messages)


def test_sibling_without_a_route_fails_like_a_fresh_plan(plan):
    plan.validate()
    sibling = plan.with_routing({})
    fresh = DeploymentPlan(plan.tdg, plan.network, plan.placements, {})
    outcome = _validation(sibling)
    assert outcome == _validation(fresh)
    assert outcome[1].startswith("no routed path")


def test_sibling_of_an_unvalidated_plan_runs_every_check(plan):
    """A plan missing a MAT was never validated, so its sibling still
    reports the coverage error."""
    missing = next(iter(plan.placements))
    partial = DeploymentPlan(
        plan.tdg,
        plan.network,
        {n: p for n, p in plan.placements.items() if n != missing},
    )
    sibling = partial.with_routing(dict(plan.routing))
    with pytest.raises(DeploymentError, match="unplaced MATs"):
        sibling.validate()
