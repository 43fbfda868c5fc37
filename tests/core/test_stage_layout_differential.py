"""Differential tests: the running-minimum window scan, Algorithm 2's
builder-free placement and the rebased plan's inherited metrics against
the code they replaced.

* ``earliest_window`` against the scan that re-reads every stage of
  every candidate window (:mod:`stages_oracle`), on 100,000 seeded
  random cases: pipelines of 1 to 16 stages, free capacities at a
  window's share or within (and just beyond) the tolerance of it,
  stages with no free capacity, demands larger than one stage, and
  every ``earliest`` from 1 to S + 1.
* ``assign_stages`` and ``schedule_on_chain`` on generated segments
  and chains, each run once more with the oracle scan patched in: the
  same placements in the same order, or the same exception.
* ``GreedyHeuristic._place`` against the ``PlanBuilder``-based
  placement for every anchor of the Exp#5 shape, on a segment that
  does not fit, on a disconnected pair, on segments that miss a MAT
  and on overlapping segments:
  the same placements in the same order, the same routing (as a
  mapping: the oracle routes in first-meet order, the router in pair
  order) and the same fingerprint, or the same exception type and
  message, raised after the same layouts.
* Rebased plans: pair bytes, ``A_max``, occupied switches and every
  switch's stage loads equal a freshly built plan's, ``t_e2e`` follows
  the new routing, and a rebase onto a network where a host lost stages
  or stage capacity fails validation with the fresh plan's error.
"""

import random
from dataclasses import replace

import pytest
import stages_oracle
from stages_oracle import legacy_earliest_window, legacy_place

import repro.baselines.base as base
import repro.core.heuristic as heuristic
import repro.core.stages as stages
from repro.baselines.base import schedule_on_chain
from repro.cli import parse_workload
from repro.core import Hermes
from repro.core.analyzer import ProgramAnalyzer
from repro.core.heuristic import GreedyHeuristic, select_switches, split_tdg
from repro.core.stages import assign_stages, earliest_window
from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.catalog import resolve
from repro.network.generators import random_wan
from repro.network.paths import PathEnumerator
from repro.network.switch import Switch
from repro.network.topology import Link, Network
from repro.plan import plan_fingerprint
from repro.plan.artifact import DeploymentError, DeploymentPlan
from repro.plan.artifact import route_all_pairs
from repro.plan.splice import rebase_plan
import repro.runtime.incremental as incremental
from repro.runtime import Reconciler, ReconcilerPolicy
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg
from tests.runtime.test_reconciler_differential import network_only

TOL = 1e-9
WARM = ReconcilerPolicy(incremental=True)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


# ----------------------------------------------------------------------
# The window scan
# ----------------------------------------------------------------------
def _window_case(rng):
    """Free capacities clustered at the shares of random window sizes,
    so many candidate windows sit on the tolerance boundary."""
    num_stages = rng.randint(1, 16)
    capacity = rng.choice((1.0, 0.75, 2.5))
    demand = capacity * rng.choice(
        (rng.uniform(0.01, 1.0), rng.uniform(1.0, 4.0), 1.0, 2.0, 0.5)
    )
    tol = rng.choice((TOL, TOL, TOL, 0.0, 1e-6))
    step = tol or TOL
    free = []
    for _ in range(num_stages):
        kind = rng.random()
        if kind < 0.15:
            free.append(0.0)
        elif kind < 0.25:
            free.append(capacity)
        elif kind < 0.4:
            free.append(rng.uniform(0.0, capacity))
        else:
            share = demand / rng.randint(1, num_stages)
            offset = rng.choice((0.0, 0.5, -0.5, 0.999, -0.999, 1.5, -1.5))
            free.append(share + offset * step)
    earliest = rng.randint(1, num_stages + 1)
    return free, demand, earliest, num_stages, tol


@pytest.mark.parametrize("seed", range(4))
def test_window_scan_matches_the_oracle(seed):
    rng = random.Random(seed)
    found = none = spanning = 0
    for _ in range(25_000):
        case = _window_case(rng)
        window = earliest_window(*case)
        assert window == legacy_earliest_window(*case), case
        if window is None:
            none += 1
        else:
            found += 1
            spanning += window[1] > window[0]
    # The cases reach every outcome, often.
    assert min(found, none, spanning) > 1_000


def test_tolerance_boundary_is_exact():
    """Stages within ``tol`` of the share fit; a hair beyond does not,
    wherever the short stage sits in the window."""
    for size in range(1, 9):
        share = 1.0 / size
        for short in range(size):
            for offset, fits in ((-0.999 * TOL, True), (-1.5 * TOL, False)):
                free = [share] * size
                free[short] = share + offset
                window = earliest_window(free, 1.0, 1, size)
                assert window == legacy_earliest_window(free, 1.0, 1, size)
                assert window == ((1, size) if fits else None)


# ----------------------------------------------------------------------
# Layouts that read the scan
# ----------------------------------------------------------------------
def _random_segment(rng, size):
    tdg = Tdg("generated")
    names = [f"m{i:02d}" for i in range(size)]
    for name in names:
        demand = rng.choice(
            (rng.uniform(0.02, 0.6), rng.uniform(0.6, 2.4), 1.0, 0.5)
        )
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=demand))
    for j, down in enumerate(names):
        for up in names[:j]:
            if rng.random() < 0.15:
                tdg.add_edge(up, down, DependencyType.MATCH, 4)
    return tdg


def _with_oracle_scan(monkeypatch, fn, *args):
    """``fn(*args)`` with the oracle scan in place of the production
    one, at both bindings the layouts read."""
    with monkeypatch.context() as patched:
        patched.setattr(stages, "earliest_window", legacy_earliest_window)
        patched.setattr(base, "earliest_window", legacy_earliest_window)
        return _outcome(fn, *args)


def _ordered(outcome):
    return list(outcome.items()) if isinstance(outcome, dict) else outcome


def test_assign_stages_matches_the_oracle(monkeypatch):
    rng = random.Random(7)
    laid_out = failed = 0
    for _ in range(600):
        segment = _random_segment(rng, rng.randint(1, 24))
        switch = Switch(
            "s",
            num_stages=rng.randint(1, 16),
            stage_capacity=rng.choice((1.0, 0.75, 2.5)),
        )
        args = (segment, switch)
        new = _ordered(_outcome(assign_stages, *args))
        old = _ordered(_with_oracle_scan(monkeypatch, assign_stages, *args))
        assert new == old
        if isinstance(new, tuple):
            failed += 1
        else:
            laid_out += 1
    assert laid_out > 100 and failed > 100


def _chain_network(rng, length):
    network = Network("chain")
    for i in range(length):
        network.add_switch(
            Switch(
                f"c{i}",
                num_stages=rng.randint(1, 12),
                stage_capacity=rng.choice((1.0, 0.75, 2.5)),
            )
        )
    return network


def test_schedule_on_chain_matches_the_oracle(monkeypatch):
    rng = random.Random(11)
    scheduled = failed = 0
    for _ in range(300):
        tdg = _random_segment(rng, rng.randint(1, 40))
        network = _chain_network(rng, rng.randint(1, 5))
        chain = [switch.name for switch in network.switches]
        rng.shuffle(chain)
        order = tdg.topological_order(strategy="kahn")
        args = (tdg, order, network, chain)
        new = _ordered(_outcome(schedule_on_chain, *args))
        old = _ordered(
            _with_oracle_scan(monkeypatch, schedule_on_chain, *args)
        )
        assert new == old
        if isinstance(new, tuple):
            failed += 1
        else:
            scheduled += 1
    assert scheduled > 50 and failed > 50


# ----------------------------------------------------------------------
# Algorithm 2's placement
# ----------------------------------------------------------------------
def _plan_outcome(place, tdg, network, segments, candidates):
    """What ``place`` makes of the segments, or the type and message of
    what it raised."""
    plan = _outcome(
        place, tdg, network, PathEnumerator(network), segments, candidates
    )
    if isinstance(plan, tuple):
        return plan
    return (
        list(plan.placements.items()),
        dict(plan.routing),
        plan_fingerprint(plan),
    )


def _production_place(tdg, network, paths, segments, candidates):
    return GreedyHeuristic()._place(tdg, network, paths, segments, candidates)


@pytest.fixture
def layouts(monkeypatch):
    """Counts the segment layouts each placement computes."""
    calls = []

    def counting(original):
        def wrapped(segment, switch, order=None):
            calls.append(segment.name)
            return original(segment, switch, order)

        return wrapped

    monkeypatch.setattr(
        heuristic, "assign_stages", counting(heuristic.assign_stages)
    )
    monkeypatch.setattr(
        stages_oracle, "assign_stages", counting(stages_oracle.assign_stages)
    )
    return calls


def assert_placements_agree(layouts, tdg, network, segments, candidates):
    """Both placements give the same outcome after the same layouts;
    ``layouts`` is left holding them."""
    layouts.clear()
    new = _plan_outcome(_production_place, tdg, network, segments, candidates)
    new_layouts = list(layouts)
    layouts.clear()
    old = _plan_outcome(legacy_place, tdg, network, segments, candidates)
    assert new == old
    assert new_layouts == layouts
    return new


def test_every_exp5_anchor_places_alike(layouts):
    network = resolve("wan:72:88:11")
    tdg = ProgramAnalyzer().analyze(parse_workload("real:10+synthetic:10"))
    reference = GreedyHeuristic()._reference(network)
    segments = split_tdg(tdg, reference)
    assert len(segments) > 2
    paths = PathEnumerator(network)
    placed = 0
    for anchor in network.programmable_names():
        candidates = select_switches(anchor, network, paths)
        outcome = assert_placements_agree(
            layouts, tdg, network, segments, candidates
        )
        placed += len(outcome) == 3
    assert placed


def _chain_tdg(demands):
    tdg = Tdg("chain")
    names = [f"m{i}" for i in range(len(demands))]
    for name, demand in zip(names, demands):
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=demand))
    for up, down in zip(names, names[1:]):
        tdg.add_edge(up, down, DependencyType.MATCH, 4)
    return tdg


def _network(switches, links):
    network = Network("hand")
    for switch in switches:
        network.add_switch(switch)
    for u, v in links:
        network.add_link(Link(u, v))
    return network


def test_segment_that_does_not_fit_fails_alike(layouts):
    """The second segment's chain is deeper than its host's pipeline:
    both raise at its layout and never lay out the third."""
    tdg = _chain_tdg([0.3] * 6)
    segments = [
        tdg.subgraph(names, name=f"chain/{i}")
        for i, names in enumerate((["m0", "m1"], ["m2", "m3"], ["m4", "m5"]))
    ]
    network = _network(
        [Switch("a"), Switch("b", num_stages=1), Switch("c")],
        [("a", "b"), ("b", "c")],
    )
    outcome = assert_placements_agree(
        layouts, tdg, network, segments, ["a", "b", "c"]
    )
    assert outcome[0] is stages.StageAssignmentError
    assert "'b'" in outcome[1]
    assert layouts == ["chain/0", "chain/1"]


def test_disconnected_pair_fails_alike(layouts):
    tdg = _chain_tdg([0.3] * 4)
    segments = [
        tdg.subgraph(["m0", "m1"], name="chain/0"),
        tdg.subgraph(["m2", "m3"], name="chain/1"),
    ]
    network = _network(
        [Switch(name) for name in "abcd"], [("a", "b"), ("c", "d")]
    )
    outcome = assert_placements_agree(
        layouts, tdg, network, segments, ["a", "c"]
    )
    assert outcome == (
        DeploymentError,
        "no path between communicating switches ('a', 'c')",
    )


def test_segments_that_miss_a_mat_fail_alike(layouts):
    """Validation catches what the layouts cannot: a MAT no segment
    holds."""
    tdg = _chain_tdg([0.3] * 4)
    segments = [
        tdg.subgraph(["m0", "m1"], name="chain/0"),
        tdg.subgraph(["m2"], name="chain/1"),
    ]
    network = _network([Switch("a"), Switch("b")], [("a", "b")])
    outcome = assert_placements_agree(
        layouts, tdg, network, segments, ["a", "b"]
    )
    assert outcome == (DeploymentError, "unplaced MATs: ['m3']")


def test_overlapping_segments_fail_alike(layouts):
    tdg = _chain_tdg([0.3] * 4)
    segments = [
        tdg.subgraph(["m0", "m1"], name="chain/0"),
        tdg.subgraph(["m1", "m2", "m3"], name="chain/1"),
    ]
    network = _network([Switch("a"), Switch("b")], [("a", "b")])
    args = (tdg, network, segments, ["a", "b"])
    # Both fail after the same layouts with the same type; production
    # says what went wrong, the builder oracle keeps its own text.
    layouts.clear()
    new = _plan_outcome(_production_place, *args)
    new_layouts = list(layouts)
    layouts.clear()
    old = _plan_outcome(legacy_place, *args)
    assert new_layouts == layouts == ["chain/0", "chain/1"]
    assert new[0] is old[0] is DeploymentError
    assert new[1] == "MAT 'm1' is in more than one segment"


# ----------------------------------------------------------------------
# Rebased plans
# ----------------------------------------------------------------------
def _placement_metrics(plan):
    return (
        list(plan.pair_metadata_bytes().items()),
        plan.max_metadata_bytes(),
        plan.total_metadata_bytes(),
        plan.occupied_switches(),
        [
            (switch.name, list(plan.stage_utilization(switch.name).items()))
            for switch in plan.network.switches
        ],
    )


def _fresh(plan):
    """``plan`` rebuilt with cold metric caches."""
    return DeploymentPlan(
        plan.tdg, plan.network, plan.placements, plan.routing
    )


@pytest.fixture(scope="module")
def deployed():
    network = random_wan(16, 24, seed=3, num_stages=4)
    plan = Hermes().deploy(parse_workload("real:10"), network).plan
    assert plan.max_metadata_bytes() > 0
    return plan, network


def test_churned_rebases_keep_the_fresh_metrics(monkeypatch):
    """Every rebase of a warm network-churn run."""
    rebases = []
    production = incremental.rebase_plan

    def capturing(old_plan, network, paths=None):
        plan = production(old_plan, network, paths)
        rebases.append(plan)
        return plan

    monkeypatch.setattr(incremental, "rebase_plan", capturing)
    programs, network, scenario = network_only(4)
    Reconciler(programs, network, policy=WARM).run(scenario)
    assert len(rebases) > 5
    for plan in rebases:
        fresh = _fresh(plan)
        assert _placement_metrics(plan) == _placement_metrics(fresh)
        assert (
            plan.end_to_end_latency_us() == fresh.end_to_end_latency_us()
        )


def test_rebase_recomputes_the_routing_metrics(deployed):
    """Slower links on the routed paths: the rebased plan's ``t_e2e``
    follows its own routing, not the old plan's."""
    plan, network = deployed
    before = plan.end_to_end_latency_us()
    routed = {
        frozenset(hop)
        for path in plan.routing.values()
        for hop in zip(path.switches, path.switches[1:])
    }
    slower = Network(network.name)
    for switch in network.switches:
        slower.add_switch(switch)
    for link in network.links:
        if frozenset(link.key) in routed:
            link = replace(link, latency_ms=link.latency_ms * 3)
        slower.add_link(link)
    rebased = rebase_plan(plan, slower)
    fresh = _fresh(rebased)
    assert _placement_metrics(rebased) == _placement_metrics(fresh)
    latency = rebased.end_to_end_latency_us()
    assert latency == fresh.end_to_end_latency_us()
    assert latency > before


def test_rebase_reads_no_mat_of_the_tdg(deployed, monkeypatch):
    """The rebased plan inherits the old plan's stage loads and pair
    bytes: validating it looks up no MAT."""
    plan, network = deployed
    plan.validate()
    reads = []
    original = Tdg.node

    def counting(self, name):
        reads.append(name)
        return original(self, name)

    monkeypatch.setattr(Tdg, "node", counting)
    rebased = rebase_plan(plan, network)
    assert reads == []
    monkeypatch.undo()
    assert _placement_metrics(rebased) == _placement_metrics(_fresh(rebased))


def _shrunk(network, victim, **changes):
    out = Network(network.name)
    for switch in network.switches:
        if switch.name == victim:
            switch = replace(switch, **changes)
        out.add_switch(switch)
    for link in network.links:
        out.add_link(link)
    return out


def _rebase_error(plan, network):
    error = _outcome(rebase_plan, plan, network)
    assert isinstance(error, tuple), "the rebase should fail"
    return error


def _fresh_error(plan, network):
    fresh = route_all_pairs(
        DeploymentPlan(plan.tdg, network, plan.placements),
        PathEnumerator(network),
    )
    return _outcome(fresh.validate)


def test_host_that_lost_stages_fails_like_a_fresh_plan(deployed):
    plan, network = deployed
    plan.validate()
    for victim in plan.occupied_switches():
        deepest = max(
            p.last_stage
            for p in plan.placements.values()
            if p.switch == victim
        )
        if deepest < 2:
            continue
        shrunk = _shrunk(network, victim, num_stages=deepest - 1)
        error = _rebase_error(plan, shrunk)
        assert error == _fresh_error(plan, shrunk)
        assert "has only" in error[1]


def test_host_that_lost_capacity_fails_like_a_fresh_plan(deployed):
    """The inherited stage loads are checked against the new network's
    stage capacity."""
    plan, network = deployed
    plan.validate()
    for victim in plan.occupied_switches():
        peak = max(plan.stage_utilization(victim).values())
        shrunk = _shrunk(network, victim, stage_capacity=peak / 2)
        error = _rebase_error(plan, shrunk)
        assert error == _fresh_error(plan, shrunk)
        assert "overloaded" in error[1]
