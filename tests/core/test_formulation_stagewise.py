"""Tests for the stage-granular P#1 oracle."""

import pytest
from stagewise_oracle import StagewiseMilp

from repro.core.analyzer import ProgramAnalyzer
from repro.core.formulation import HermesMilp
from repro.core.heuristic import GreedyHeuristic
from repro.core.verification import verify_dataflow
from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.dataplane.program import Program
from repro.network.generators import linear_topology
from repro.plan.artifact import DeploymentError
from tests.conftest import make_sketch_program


@pytest.fixture
def small_tdg():
    programs = [
        make_sketch_program("a", index_bytes=2),
        make_sketch_program("b", index_bytes=6),
    ]
    return ProgramAnalyzer().analyze(programs)


@pytest.fixture
def tiny_net():
    return linear_topology(2, num_stages=4, stage_capacity=1.0)


class TestStagewiseMilp:
    def test_produces_valid_plan(self, small_tdg, tiny_net):
        plan = StagewiseMilp(time_limit_s=60).deploy(small_tdg, tiny_net)
        plan.validate()
        verify_dataflow(plan)
        assert len(plan.placements) == len(small_tdg)

    def test_each_mat_on_exactly_one_stage(self, small_tdg, tiny_net):
        plan = StagewiseMilp(time_limit_s=60).deploy(small_tdg, tiny_net)
        for placement in plan.placements.values():
            assert len(placement.stages) == 1

    def test_matches_switch_level_optimum(self, small_tdg, tiny_net):
        """The oracle certifies the two-level pipeline's objective."""
        stagewise = StagewiseMilp(time_limit_s=120).deploy(
            small_tdg, tiny_net
        )
        two_level = HermesMilp(time_limit_s=120, max_candidates=2).deploy(
            small_tdg, tiny_net
        )
        assert (
            stagewise.max_metadata_bytes()
            == two_level.max_metadata_bytes()
        )

    def test_no_worse_than_heuristic(self, small_tdg, tiny_net):
        stagewise = StagewiseMilp(time_limit_s=120).deploy(
            small_tdg, tiny_net
        )
        greedy = GreedyHeuristic().deploy(small_tdg, tiny_net)
        assert (
            stagewise.max_metadata_bytes() <= greedy.max_metadata_bytes()
        )

    def test_epsilon2_respected(self, small_tdg, tiny_net):
        plan = StagewiseMilp(epsilon2=1, time_limit_s=60).deploy(
            small_tdg, tiny_net
        )
        assert plan.num_occupied_switches() == 1

    def test_rejects_stage_spanning_mats(self, tiny_net):
        big = Mat("big", actions=[no_op()], resource_demand=1.5)
        tdg = ProgramAnalyzer().analyze([Program("p", [big])])
        with pytest.raises(DeploymentError, match="stage spanning"):
            StagewiseMilp().deploy(tdg, tiny_net)

    def test_ordering_constraint_enforced(self, tiny_net):
        # A 4-deep chain on 4-stage switches: stages must strictly
        # increase along the chain wherever MATs share a switch.
        program = make_sketch_program("c")
        tdg = ProgramAnalyzer().analyze([program])
        plan = StagewiseMilp(time_limit_s=60).deploy(tdg, tiny_net)
        for edge in tdg.edges:
            up = plan.placements[edge.upstream]
            down = plan.placements[edge.downstream]
            if up.switch == down.switch:
                assert up.last_stage < down.first_stage
