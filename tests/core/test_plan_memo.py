"""The per-plan memo of the placement-only analyses.

``DeploymentPlan.memoized`` keeps the coordination channels
(``plan_channels``) and the dataflow verifier's report, and
``with_routing`` hands both to the plan's siblings.  These tests lock
its contract:

* siblings share the channels and the report, on the same network and
  on a rebase's new network, whichever plan derives them first;
* a memoized report and memoized channels equal a fresh run on the
  plan's serialized round trip (with the placements in the plan's
  order), for plans of every framework
  (``Optimal`` included) and the rebased and spliced plans of a churn
  run;
* a caller that edits what it received cannot change what a later
  call returns;
* a plan that fails verification raises the same error on every call;
* no memoized value refers to its plan, so a plan is freed by
  reference counting alone (with the cycle collector off), and a
  pickled plan carries no memo.
"""

import gc
import pickle
import weakref

import pytest

from repro.baselines import ALL_FRAMEWORKS
from repro.cli import parse_workload
from repro.core import Backend
from repro.core.analyzer import ProgramAnalyzer
from repro.core.coordination import CoordinationAnalysis, plan_channels
from repro.core.heuristic import GreedyHeuristic
from repro.core.verification import (
    DataflowError,
    _verified,
    verify_dataflow,
)
from repro.dataplane.actions import modify, no_op
from repro.dataplane.fields import metadata_field
from repro.dataplane.mat import Mat
from repro.network.generators import linear_topology, random_wan
from repro.plan.artifact import DeploymentPlan, MatPlacement
from repro.plan.serialize import plan_from_dict
from repro.plan.splice import rebase_plan
from repro.simulation.interpreter import PlanInterpreter
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg
from tests.core.test_rebuild_verify_differential import (
    SHAPES,
    _channels,
    _framework,
    _report,
    churn_plans,
)


def _network():
    return random_wan(16, 24, seed=2, num_stages=4)


def _deployed():
    """A ``real:10`` plan on six switches with eleven channels."""
    tdg = ProgramAnalyzer().analyze(parse_workload("real:10"))
    return GreedyHeuristic().deploy(tdg, _network())


def _analyses(plan):
    """The plan's report and channels, compared as in the verifier
    differential."""
    return (
        _report(verify_dataflow, plan),
        _channels(lambda p: CoordinationAnalysis(p).channels, plan),
    )


def fresh(plan):
    """``plan`` rebuilt from its serialized round trip: a new TDG and
    network, so nothing memoized on the originals is reused.  The
    document sorts placements by name, and the verifier's visit order
    follows first use, so the placements keep ``plan``'s order."""
    clone = plan_from_dict(plan.to_dict())
    return DeploymentPlan(
        clone.tdg,
        clone.network,
        {name: clone.placements[name] for name in plan.placements},
        clone.routing,
    )


def assert_memo_matches_a_fresh_run(plan):
    first = _analyses(plan)
    assert _analyses(plan) == first  # served from the memo
    assert first == _analyses(fresh(plan))


# ----------------------------------------------------------------------
# Siblings share the memo
# ----------------------------------------------------------------------
@pytest.mark.parametrize("derive_on", ["original", "rebased"])
def test_with_routing_siblings_share_channels_and_report(derive_on):
    plan = _deployed()
    sibling = plan.with_routing(dict(plan.routing))
    rebased = rebase_plan(plan, _network())
    assert rebased.network is not plan.network
    first = plan if derive_on == "original" else rebased
    verify_dataflow(first)
    for other in (sibling, rebased):
        assert other.memoized(plan_channels) is plan.memoized(plan_channels)
        assert other.memoized(_verified) is plan.memoized(_verified)
    assert _analyses(rebased) == _analyses(plan)


# ----------------------------------------------------------------------
# Memoized values equal a fresh run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", SHAPES)
@pytest.mark.parametrize("cls", ALL_FRAMEWORKS, ids=lambda c: c.name)
def test_framework_plans_memoize_what_a_fresh_run_gives(cls, make):
    programs, network = make()
    assert_memo_matches_a_fresh_run(
        _framework(cls).deploy(programs, network).plan
    )


def test_churn_plans_memoize_what_a_fresh_run_gives(monkeypatch):
    made = churn_plans(monkeypatch)
    for plan in made["rebase"] + made["splice"]:
        assert_memo_matches_a_fresh_run(plan)


# ----------------------------------------------------------------------
# Callers own what they receive
# ----------------------------------------------------------------------
def test_editing_a_result_changes_no_later_result():
    plan = _deployed()
    expected = _analyses(fresh(plan))

    report = verify_dataflow(plan)
    report.rounds = 99
    next(iter(report.shipped_fields.values())).append("m.bogus")
    report.shipped_fields.clear()
    report.execution_order.reverse()

    analysis = CoordinationAnalysis(plan)
    channel = next(iter(analysis.channels.values()))
    channel.edges.clear()
    channel.layout.clear()
    channel.declared_bytes = -1
    analysis.channels.clear()

    assert _analyses(plan) == expected
    assert len(CoordinationAnalysis(plan)) > 0


# ----------------------------------------------------------------------
# Failures are not stored
# ----------------------------------------------------------------------
def _stranded_plan():
    """``c`` on s0 reads ``m.f``, which ``a`` wrote on s0's first visit:
    the packet's second visit to s0 has lost it, and no channel brings
    it back, so the verifier cannot make progress."""
    f = metadata_field("m.f", 16)
    g = metadata_field("m.g", 16)
    tdg = Tdg("stranded")
    tdg.add_node(Mat("a", actions=[modify(f)], resource_demand=0.2))
    tdg.add_node(
        Mat("b", match_fields=[f], actions=[modify(g)], resource_demand=0.2)
    )
    tdg.add_node(
        Mat("c", match_fields=[f, g], actions=[no_op()], resource_demand=0.2)
    )
    tdg.add_edge("a", "b", DependencyType.MATCH, 2)
    tdg.add_edge("b", "c", DependencyType.MATCH, 2)
    return DeploymentPlan(
        tdg,
        linear_topology(2),
        {
            "a": MatPlacement("a", "s0", (1,)),
            "b": MatPlacement("b", "s1", (1,)),
            "c": MatPlacement("c", "s0", (2,)),
        },
    )


def test_a_failing_plan_raises_the_same_error_on_every_call():
    plan = _stranded_plan()
    raised = []
    for _ in range(3):
        with pytest.raises(DataflowError) as info:
            verify_dataflow(plan)
        raised.append(str(info.value))
    assert raised == [raised[0]] * 3
    assert "cannot make progress" in raised[0]
    # The channels the failed run built stay memoized; they were fine.
    assert plan.memoized(plan_channels)


# ----------------------------------------------------------------------
# No memoized value keeps its plan alive
# ----------------------------------------------------------------------
def test_a_plan_is_freed_without_the_cycle_collector():
    # Built from parts, so that only this test refers to it.
    deployed = _deployed()
    plan = DeploymentPlan(
        deployed.tdg, deployed.network, deployed.placements, deployed.routing
    )
    sibling = plan.with_routing(dict(plan.routing))
    Backend().compile(plan)
    PlanInterpreter(sibling)
    CoordinationAnalysis(plan)
    assert plan.memoized(_verified) is sibling.memoized(_verified)
    refs = [weakref.ref(plan), weakref.ref(sibling)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del plan, sibling
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_pickling_drops_the_memo():
    plan = _deployed()
    verify_dataflow(plan)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone.memoized(plan_channels) is not plan.memoized(plan_channels)
    assert _analyses(clone) == _analyses(plan)
