"""Differential tests: the builder-free rebase against the code it
replaced.

``rebase_plan`` keeps the old plan's placements and routes them with
``route_all_pairs``; the oracle in :mod:`rebase_oracle` is the
``PlanBuilder``-based rebase.  On every input both must give the same
placements in the same order, the same routing, the same fingerprint
and the same switch configurations from ``Backend.compile`` (which
emits forwarding entries in pair order), or raise the same exception
type.  The routing is compared as a mapping: the oracle routes the
pairs in the order its placements first meet them, the router in pair
order.  When routing fails, the production message names the first
pair, in pair order, without a path, or the vanished host that pair
reads (see :func:`_routing_failure`); any other failure has the
oracle's message.

* Every rebase of six warm network-churn runs of the repo benchmark's
  churn shape: the three golden-pinned scenario seeds and seeds 1-3.
* Plans rebased onto their own network: a three-MAT plan whose last
  MAT meets two pairs at once, and a plan of the Exp#5 shape with many
  communicating pairs.
* Plans whose host vanished or lost its pipeline, one occupied switch
  at a time.
* Plans with a disconnected communicating pair: an occupied switch kept
  but cut off from every link.
"""

from dataclasses import replace

import pytest
from rebase_oracle import legacy_rebase_plan

import repro.runtime.incremental as incremental
from repro.cli import parse_topology, parse_workload
from repro.core import Hermes
from repro.core.analyzer import ProgramAnalyzer
from repro.core.backend import Backend
from repro.core.heuristic import GreedyHeuristic
from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.catalog import resolve
from repro.network.generators import linear_topology, random_wan
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan import plan_fingerprint
from repro.plan.artifact import DeploymentError, DeploymentPlan, MatPlacement
from repro.plan.splice import rebase_plan
from repro.runtime import generate_scenario
from repro.runtime.scenario import DEFAULT_EVENT_MIX, EventKind
from repro.server.ops import churn_op
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg
from tests.conftest import make_sketch_program

#: The repo benchmark's churn shape: network churn only on a fixed WAN.
WORKLOAD = "real:10"
TOPOLOGY = "wan:20:30:7"

#: The golden-pinned scenario seeds, then the first three.
SEEDS = (4, 11, 38, 1, 2, 3)


def _outcome(rebase, old_plan, network):
    """What ``rebase`` makes of ``old_plan`` on ``network``: the plan's
    ordered placements, routing, fingerprint and configs, or the type
    and message of what it raised."""
    try:
        plan = rebase(old_plan, network, PathEnumerator(network))
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))
    configs = Backend().compile(plan)
    return (
        list(plan.placements.items()),
        dict(plan.routing),
        plan_fingerprint(plan),
        [(name, config.to_dict()) for name, config in configs.items()],
    )


def _routing_failure(old_plan, network):
    """The router's contract for ``old_plan`` rebased onto ``network``:
    the message of the first pair in pair order whose host vanished or
    that has no path, or None when every pair routes."""
    paths = PathEnumerator(network)
    for pair in old_plan.pair_metadata_bytes():
        try:
            path = paths.shortest(*pair)
        except KeyError as exc:
            return f"rebase: {exc.args[0]}"
        if path is None:
            return f"no path between communicating switches {pair}"
    return None


def assert_rebases_agree(old_plan, network):
    outcome = _outcome(rebase_plan, old_plan, network)
    oracle = _outcome(legacy_rebase_plan, old_plan, network)
    failure = _routing_failure(old_plan, network)
    if failure is None:
        assert outcome == oracle
    else:
        # Both fail at routing, each at the first pair in its order.
        assert len(oracle) == 2 and outcome[0] is oracle[0]
        assert outcome == (DeploymentError, failure)
    return outcome


def _network_only_scenario(seed):
    scenario = generate_scenario(
        parse_topology(TOPOLOGY),
        num_events=16,
        seed=seed,
        workload_spec=WORKLOAD,
        topology_spec=TOPOLOGY,
        event_mix={
            kind: weight
            for kind, weight in DEFAULT_EVENT_MIX.items()
            if kind not in (EventKind.WORKLOAD_ADD, EventKind.WORKLOAD_REMOVE)
        },
    )
    return scenario.to_dict()


@pytest.mark.parametrize("seed", SEEDS)
def test_every_churn_rebase_matches_the_oracle(monkeypatch, seed):
    compared = []
    production = incremental.rebase_plan

    def comparing(old_plan, network, paths=None):
        compared.append(assert_rebases_agree(old_plan, network))
        return production(old_plan, network, paths)

    monkeypatch.setattr(incremental, "rebase_plan", comparing)
    churn_op({"scenario": _network_only_scenario(seed), "incremental": True})
    # At least one rebase succeeded (a failed one is a 2-tuple).
    assert any(len(outcome) == 4 for outcome in compared)


# ----------------------------------------------------------------------
# Failing rebases
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


def _without(network, victim, keep_switch):
    """``network`` without ``victim``'s links, and without ``victim``
    itself unless ``keep_switch``."""
    out = Network(network.name)
    for switch in network.switches:
        if keep_switch or switch.name != victim:
            out.add_switch(switch)
    for link in network.links:
        if victim not in link.key:
            out.add_link(link)
    return out


def test_rebase_onto_the_same_network_matches_the_oracle(plan, network):
    outcome = assert_rebases_agree(plan, network)
    assert list(plan.placements.items()) == outcome[0]


def test_pair_met_from_both_sides_matches_the_oracle():
    """``b``, placed last, meets its successor's switch and its
    predecessor's switch at once.  The builder routed ``(s1, s2)``
    first, as it visits out-edges before in-edges; the router routes
    in pair order, the TDG's edge order."""
    tdg = Tdg("both-sides")
    for name in "abc":
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=0.2))
    tdg.add_edge("a", "b", DependencyType.MATCH, 4)
    tdg.add_edge("b", "c", DependencyType.MATCH, 4)
    network = linear_topology(3)
    plan = DeploymentPlan(
        tdg,
        network,
        {
            "a": MatPlacement("a", "s0", (1,)),
            "c": MatPlacement("c", "s2", (1,)),
            "b": MatPlacement("b", "s1", (1,)),
        },
    )
    outcome = assert_rebases_agree(plan, network)
    assert list(outcome[1]) == [("s0", "s1"), ("s1", "s2")]


def test_many_pair_rebase_matches_the_oracle():
    """An Exp#5-scale plan: many communicating pairs, each first met
    from a successor or a predecessor."""
    network = resolve("wan:72:88:11")
    tdg = ProgramAnalyzer().analyze(parse_workload("real:10+synthetic:10"))
    plan = GreedyHeuristic().deploy(tdg, network)
    outcome = assert_rebases_agree(plan, network)
    assert len(outcome[1]) > 5


def _failures(plan, network, keep_switch):
    """The failed rebases with one occupied switch cut off in turn."""
    failures = []
    for victim in plan.occupied_switches():
        outcome = assert_rebases_agree(
            plan, _without(network, victim, keep_switch)
        )
        if len(outcome) == 2:
            failures.append(outcome)
    return failures


def test_vanished_hosts_fail_alike(plan, network):
    failures = _failures(plan, network, keep_switch=False)
    assert len(failures) == plan.num_occupied_switches()
    assert all(kind is DeploymentError for kind, _message in failures)
    assert any(message.startswith("rebase: ") for _kind, message in failures)


def test_hosts_that_lost_their_pipeline_fail_alike(plan, network):
    """A drained host keeps its links, so only validation rejects it."""
    for victim in plan.occupied_switches():
        drained = Network(network.name)
        for switch in network.switches:
            if switch.name == victim:
                switch = replace(switch, programmable=False)
            drained.add_switch(switch)
        for link in network.links:
            drained.add_link(link)
        kind, message = assert_rebases_agree(plan, drained)
        assert kind is DeploymentError
        assert "non-programmable" in message


def test_disconnected_pairs_fail_alike(plan, network):
    failures = _failures(plan, network, keep_switch=True)
    assert failures
    for kind, message in failures:
        assert kind is DeploymentError
        assert message.startswith("no path between communicating switches")
