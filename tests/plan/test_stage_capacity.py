"""The stage-capacity check against the per-switch scan it replaced.

``DeploymentPlan._check_stage_capacity`` sums every switch's per-stage
load in one scan over the placements.  The oracle below is the check as
it was: one scan per occupied switch.  Both must report the same first
overloaded stage with the same message, and ``stage_utilization`` must
give the same loads, as the same floats in the same stage order.
"""

import random

from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.generators import linear_topology
from repro.plan.artifact import DeploymentError, DeploymentPlan, MatPlacement
from repro.tdg.graph import Tdg

TOL = 1e-6


def per_switch_loads(plan, switch):
    load = {}
    for placement in plan.placements.values():
        if placement.switch != switch:
            continue
        mat = plan.tdg.node(placement.mat_name)
        share = mat.resource_demand / len(placement.stages)
        for stage in placement.stages:
            load[stage] = load.get(stage, 0.0) + share
    return load


def per_switch_check(plan):
    for switch_name in plan.occupied_switches():
        capacity = plan.network.switch(switch_name).stage_capacity
        for stage, load in per_switch_loads(plan, switch_name).items():
            if load > capacity + TOL:
                raise DeploymentError(
                    f"stage {stage} of switch {switch_name!r} "
                    f"overloaded: {load:.3f} > {capacity:.3f}"
                )


def failure(check, plan):
    try:
        check(plan)
    except DeploymentError as exc:
        return str(exc)
    return None


def plan_of(demands_and_placements, num_switches):
    """A plan from ``(demand, switch index, stages)`` triples."""
    tdg = Tdg("capacity")
    placements = {}
    for i, (demand, switch, stages) in enumerate(demands_and_placements):
        name = f"m{i}"
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=demand))
        placements[name] = MatPlacement(name, f"s{switch}", tuple(stages))
    network = linear_topology(num_switches, num_stages=4, stage_capacity=1.0)
    return DeploymentPlan(tdg, network, placements)


def random_plan(rng):
    num_switches = rng.randint(1, 4)
    triples = []
    for _ in range(rng.randint(1, 12)):
        first = rng.randint(1, 4)
        last = rng.randint(first, min(4, first + 1))
        triples.append(
            (
                rng.uniform(0.05, 0.9),
                rng.randrange(num_switches),
                range(first, last + 1),
            )
        )
    return plan_of(triples, num_switches)


def assert_checks_agree(plan):
    expected = failure(per_switch_check, plan)
    assert failure(lambda p: p._check_stage_capacity(TOL), plan) == expected
    if expected is not None:
        # Coverage and hosts pass, so validate() reports the same stage.
        assert failure(DeploymentPlan.validate, plan) == expected
    fresh = DeploymentPlan(plan.tdg, plan.network, plan.placements)
    for switch in plan.network.switches:
        loads = list(per_switch_loads(plan, switch.name).items())
        assert list(plan.stage_utilization(switch.name).items()) == loads
        assert list(fresh.stage_utilization(switch.name).items()) == loads
    return expected


def test_overload_on_the_second_occupied_switch():
    plan = plan_of(
        [
            (0.6, 0, (1,)),
            (0.3, 0, (1,)),
            (0.7, 1, (1, 2)),
            (0.8, 1, (2,)),
            (0.9, 2, (3,)),
            (0.4, 2, (3,)),
        ],
        num_switches=3,
    )
    message = assert_checks_agree(plan)
    assert message == "stage 2 of switch 's1' overloaded: 1.150 > 1.000"


def test_generated_plans_agree():
    rng = random.Random(7)
    outcomes = [assert_checks_agree(random_plan(rng)) for _ in range(300)]
    assert any(o is None for o in outcomes)
    assert sum(o is not None for o in outcomes) > 50
