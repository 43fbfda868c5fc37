"""Differential tests: refine's ``A_max`` probe against the builder's.

``refine_plan`` derives each trial's candidate ``A_max`` from the
round's pair bytes and host map (``_moved_amax``): the moved MAT's edges
leave their old switch pairs and join their new ones.  It replaced a
``PlanBuilder`` probe, seeded from the plan, moved, read and undone per
trial, and moved for good on an accepted move; its answers decided which
trials paid for a candidate plan.  On every trial of the refine
benchmark's four Exp#2 instances (``benchmarks/test_bench_plan.py``) the
two must agree, and the refined plan must equal the rebuild-per-trial
search of :mod:`refine_oracle`.  On a small plan the probe must also
equal a recompute for every MAT and every target switch.
"""

import pytest
from plan_builder_oracle import PlanBuilder
from refine_oracle import legacy_refine_plan

import repro.core.refine as refine
from repro.core.analyzer import ProgramAnalyzer
from repro.core.heuristic import GreedyHeuristic
from repro.experiments.exp2_overhead import workload
from repro.network.generators import linear_topology
from repro.network.paths import PathEnumerator
from repro.network.topozoo import topology_zoo_wan
from repro.plan import plan_fingerprint
from repro.plan.artifact import DeploymentPlan, MatPlacement
from repro.workloads.switchp4 import real_programs

#: ``benchmarks/test_bench_plan.py``'s instances: (topology id, programs).
EXP2 = [(5, 15), (5, 25), (10, 20), (10, 25)]


def unrefined_plan(programs, network):
    tdg = ProgramAnalyzer().analyze(programs)
    return GreedyHeuristic(refine=False).deploy(tdg, network)


@pytest.mark.parametrize(
    "topology_id, num_programs",
    EXP2,
    ids=[f"zoo{t}/p{n}" for t, n in EXP2],
)
def test_probe_matches_the_builder_on_every_trial(
    monkeypatch, topology_id, num_programs
):
    network = topology_zoo_wan(topology_id)
    plan = unrefined_plan(workload(num_programs, seed=7), network)
    probe = PlanBuilder.from_plan(plan)
    production = refine._moved_amax
    improving = []

    def comparing(tdg, pairs, hosts, mat_name, target):
        # The builder follows the accepted moves, as the old probe did.
        for name, switch in hosts.items():
            if probe.switch_of(name) != switch:
                probe.move(name, switch)
        token = probe.move(mat_name, target)
        expected = probe.max_metadata_bytes()
        probe.undo(token)
        actual = production(tdg, pairs, hosts, mat_name, target)
        assert actual == expected, (mat_name, target)
        improving.append(actual < max(pairs.values()))
        return actual

    monkeypatch.setattr(refine, "_moved_amax", comparing)
    refined = refine.refine_plan(plan, PathEnumerator(network))
    # Trials the probe passes and trials it rejects.
    assert True in improving and False in improving
    legacy = legacy_refine_plan(plan, PathEnumerator(network))
    assert plan_fingerprint(refined) == plan_fingerprint(legacy)


def test_probe_matches_a_recompute_for_every_move():
    network = linear_topology(4, num_stages=4, stage_capacity=1.0)
    plan = unrefined_plan(real_programs(6), network)
    pairs = plan.pair_metadata_bytes()
    assert len(pairs) > 1
    hosts = {name: p.switch for name, p in plan.placements.items()}
    for mat_name, placement in plan.placements.items():
        for target in network.switch_names:
            moved = dict(plan.placements)
            moved[mat_name] = MatPlacement(mat_name, target, placement.stages)
            expected = DeploymentPlan(
                plan.tdg, network, moved
            ).max_metadata_bytes()
            assert (
                refine._moved_amax(plan.tdg, pairs, hosts, mat_name, target)
                == expected
            ), (mat_name, target)
