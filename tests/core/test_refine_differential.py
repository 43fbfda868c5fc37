"""Differential test: probe-filtered refine == the legacy refine.

``refine_plan`` screens candidate moves with an ``A_max`` probe on the
round's pair bytes before paying for a rebuild, and builds a candidate
from memoized stage layouts.  The filter must be *exact*: the probe's
``A_max`` for a candidate host map equals what the rebuilt plan would
report, so the accepted-move sequence — and therefore the final plan —
is identical to the historical implementation that rebuilt every
candidate.  That implementation is :mod:`refine_oracle`'s
``legacy_refine_plan``, which rebuilds through a ``PlanBuilder``
without the stage-layout memo ``refine_plan`` passes, so the memo and
the direct assembly are checked too.  The routing is compared as a
mapping: the builder routes in the order its placements first meet the
pairs, ``route_all_pairs`` in pair order.
"""

import random

import pytest
from refine_oracle import legacy_refine_plan

from repro.cli import parse_workload
from repro.core.heuristic import GreedyHeuristic
from repro.core.refine import _rebuild, refine_plan
from repro.network.catalog import resolve
from repro.network.generators import linear_topology
from repro.network.paths import PathEnumerator
from repro.network.topozoo import topology_zoo_wan
from repro.plan import plan_fingerprint
from repro.workloads.switchp4 import real_programs
from repro.workloads.synthetic import synthetic_programs


def unrefined_plan(programs, network):
    from repro.core.analyzer import ProgramAnalyzer

    tdg = ProgramAnalyzer().analyze(programs)
    return GreedyHeuristic(refine=False).deploy(tdg, network)


WORKLOADS = [
    pytest.param(
        lambda: (
            real_programs(6),
            linear_topology(4, num_stages=4, stage_capacity=1.0),
        ),
        id="real6-linear4",
    ),
    pytest.param(
        lambda: (
            real_programs(9),
            linear_topology(8, num_stages=4, stage_capacity=1.0),
        ),
        id="real9-linear8",
    ),
    pytest.param(
        lambda: (
            synthetic_programs(8, seed=7),
            linear_topology(8, num_stages=8, stage_capacity=1.0),
        ),
        id="synthetic8-linear8",
    ),
    pytest.param(
        lambda: (real_programs(10), topology_zoo_wan(5)),
        id="real10-zoo5",
    ),
    # Exp#5 scale: the repo benchmark's heuristic-deploy shape.
    pytest.param(
        lambda: (
            parse_workload("real:10+synthetic:10"),
            resolve("wan:72:88:11"),
        ),
        id="real10-synthetic10-wan72",
    ),
]


@pytest.mark.parametrize("make", WORKLOADS)
def test_refine_matches_legacy_rebuild_search(make):
    programs, network = make()
    plan = unrefined_plan(programs, network)
    paths = PathEnumerator(network)
    legacy = legacy_refine_plan(plan, paths)
    fast = refine_plan(plan, paths)
    assert list(fast.placements.items()) == list(legacy.placements.items())
    assert dict(fast.routing) == dict(legacy.routing)
    assert fast.max_metadata_bytes() == legacy.max_metadata_bytes()
    assert plan_fingerprint(fast) == plan_fingerprint(legacy)


def test_memoized_rebuild_matches_fresh_rebuild():
    """The stage-layout memo is exact.  Over a random walk of single-MAT
    moves, which brings switches back to MAT sets of equal size but
    other members, a rebuild sharing one memo equals a rebuild without
    it, infeasible host maps included."""
    network = linear_topology(8, num_stages=4, stage_capacity=1.0)
    plan = unrefined_plan(real_programs(9), network)
    paths = PathEnumerator(network)
    layouts = {}
    rng = random.Random(3)
    hosts = {name: p.switch for name, p in plan.placements.items()}
    outcomes = set()
    for _ in range(60):
        trial = dict(hosts)
        trial[rng.choice(sorted(trial))] = rng.choice(network.switch_names)
        fresh = _rebuild(plan, trial, paths)
        memo = _rebuild(plan, trial, paths, layouts)
        outcomes.add(fresh is None)
        if fresh is None:
            assert memo is None
            continue
        assert plan_fingerprint(memo) == plan_fingerprint(fresh)
        hosts = trial
    assert outcomes == {True, False}


def test_refine_never_worsens_amax():
    programs = real_programs(6)
    network = linear_topology(4, num_stages=4, stage_capacity=1.0)
    plan = unrefined_plan(programs, network)
    refined = refine_plan(plan)
    assert refined.max_metadata_bytes() <= plan.max_metadata_bytes()
    refined.validate()
