"""Differential tests: the builder-free splice against the code it
replaced.

``splice_plan`` collects the kept and the re-homed placements itself,
checks ``amax_cap`` against the plan they make and routes it with
``route_all_pairs``; the oracle in :mod:`splice_oracle` is the
``PlanBuilder``-based splice.  On every input both must give the same
placements in the same order, the same routing (as a mapping: the
oracle routes in the order its placements first meet the pairs, the
router in pair order), the same fingerprint and the same switch
configurations from ``Backend.compile``, or raise the same exception
type with the same message.

* Every splice of the warm churn corpus (:mod:`tests.runtime.warm_corpus`):
  default-mix and network-only runs, seeds 1-8.
* Crafted splices, one per way a splice fails: an unknown MAT, a
  non-hostable switch, no stage window, a MAT that does not fit, an
  unreachable neighbour, a busted ``amax_cap`` and a disconnected pair.
"""

import pytest
from splice_oracle import legacy_splice_plan

import repro.runtime.incremental as incremental
from repro.core.backend import Backend
from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.paths import PathEnumerator
from repro.network.switch import Switch
from repro.network.topology import Link, Network
from repro.plan import plan_fingerprint
from repro.plan.artifact import DeploymentError, DeploymentPlan, MatPlacement
from repro.plan.splice import splice_plan
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg
from tests.runtime.warm_corpus import replay_all


def _outcome(splice, old_plan, network, assignment, amax_cap):
    """What ``splice`` makes of ``assignment`` on ``old_plan``: the
    plan's ordered placements, routing, fingerprint and configs, or the
    type and message of what it raised."""
    try:
        plan = splice(
            old_plan,
            network,
            assignment,
            PathEnumerator(network),
            amax_cap=amax_cap,
        )
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))
    configs = Backend().compile(plan)
    return (
        list(plan.placements.items()),
        dict(plan.routing),
        plan_fingerprint(plan),
        [(name, config.to_dict()) for name, config in configs.items()],
    )


def assert_splices_agree(old_plan, network, assignment, amax_cap=None):
    outcome = _outcome(splice_plan, old_plan, network, assignment, amax_cap)
    assert outcome == _outcome(
        legacy_splice_plan, old_plan, network, assignment, amax_cap
    )
    return outcome


def test_every_churn_splice_matches_the_oracle(monkeypatch):
    compared = []
    production = incremental.splice_plan

    def comparing(old_plan, network, assignment, paths=None, amax_cap=None):
        compared.append(
            assert_splices_agree(old_plan, network, assignment, amax_cap)
        )
        return production(
            old_plan, network, assignment, paths, amax_cap=amax_cap
        )

    monkeypatch.setattr(incremental, "splice_plan", comparing)
    replay_all()
    # Both successful splices (4-tuples) and failed ones (2-tuples).
    assert {len(outcome) for outcome in compared} == {2, 4}


# ----------------------------------------------------------------------
# Crafted splices
# ----------------------------------------------------------------------
def _network(links=(("s0", "s1"), ("s1", "s2"))):
    """``s0``-``s1``-``s2`` in a line, an isolated programmable ``s3``
    and a non-programmable ``s4`` hanging off ``s2``; two stages of
    capacity 1.0 each."""
    network = Network("crafted")
    for name in ("s0", "s1", "s2", "s3"):
        network.add_switch(Switch(name, num_stages=2, stage_capacity=1.0))
    network.add_switch(Switch("s4", programmable=False))
    for u, v in (*links, ("s2", "s4")):
        network.add_link(Link(u, v, 1.0, 10.0))
    return network


@pytest.fixture(scope="module")
def plan():
    """``a -> b -> c`` with ``a`` and ``c`` on ``s0`` and ``b`` on
    ``s1``, and a heavy MAT ``h`` that fills ``s2``."""
    tdg = Tdg("crafted")
    for name in "abc":
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=0.5))
    tdg.add_node(Mat("h", actions=[no_op()], resource_demand=1.9))
    tdg.add_edge("a", "b", DependencyType.MATCH, 4)
    tdg.add_edge("b", "c", DependencyType.MATCH, 4)
    plan = DeploymentPlan(
        tdg,
        _network(),
        {
            "a": MatPlacement("a", "s0", (1,)),
            "b": MatPlacement("b", "s1", (1,)),
            "c": MatPlacement("c", "s0", (2,)),
            "h": MatPlacement("h", "s2", (1, 2)),
        },
    )
    plan = plan.with_routing(
        {
            pair: PathEnumerator(plan.network).shortest(*pair)
            for pair in plan.pair_metadata_bytes()
        }
    )
    plan.validate()
    return plan


@pytest.mark.parametrize(
    "assignment, amax_cap, message",
    [
        pytest.param({"zz": "s1"}, None, "unknown MATs", id="unknown-mat"),
        pytest.param({"b": "s4"}, None, "non-hostable", id="non-hostable"),
        pytest.param(
            {"b": "s0"}, None, "no stage window", id="no-stage-window"
        ),
        pytest.param({"b": "s2"}, None, "does not fit", id="does-not-fit"),
        pytest.param(
            {"b": "s3"}, None, "cannot reach", id="unreachable-neighbour"
        ),
        pytest.param({"b": "s1"}, 3, "A_max probe 4 B", id="busted-cap"),
    ],
)
def test_crafted_failures_match_the_oracle(
    plan, assignment, amax_cap, message
):
    kind, text = assert_splices_agree(
        plan, plan.network, assignment, amax_cap
    )
    assert kind is DeploymentError
    assert message in text


def test_disconnected_pair_fails_alike(plan):
    """``s0`` and ``s1`` lose their link: re-homing ``h`` succeeds, but
    the kept pair ``(s0, s1)`` cannot be routed."""
    network = _network(links=(("s1", "s2"),))
    kind, text = assert_splices_agree(plan, network, {"h": "s2"})
    assert kind is DeploymentError
    assert text.startswith("no path between communicating switches")


@pytest.mark.parametrize(
    "assignment, amax_cap",
    [
        pytest.param({"b": "s1"}, 4, id="identity-at-cap"),
        pytest.param({"b": "s1", "h": "s2"}, None, id="two-free"),
        pytest.param({"c": "s1"}, None, id="onto-a-neighbour"),
    ],
)
def test_crafted_splices_match_the_oracle(plan, assignment, amax_cap):
    outcome = assert_splices_agree(plan, plan.network, assignment, amax_cap)
    assert len(outcome) == 4
