"""Tests for boundary-move local search refinement."""

import pytest

from repro.core.analyzer import ProgramAnalyzer
from repro.core.heuristic import GreedyHeuristic
from repro.core.refine import refine_plan
from repro.core.verification import verify_dataflow
from repro.network.generators import linear_topology
from repro.network.topozoo import topology_zoo_wan
from repro.workloads.switchp4 import real_programs
from repro.workloads.synthetic import synthetic_programs


@pytest.fixture(scope="module")
def midscale_unrefined():
    programs = real_programs(10) + synthetic_programs(10, seed=7)
    network = topology_zoo_wan(10)
    tdg = ProgramAnalyzer().analyze(programs)
    return GreedyHeuristic(refine=False).deploy(tdg, network)


class TestRefinePlan:
    def test_never_worse(self, midscale_unrefined):
        refined = refine_plan(midscale_unrefined)
        assert (
            refined.max_metadata_bytes()
            <= midscale_unrefined.max_metadata_bytes()
        )

    def test_improves_midscale(self, midscale_unrefined):
        refined = refine_plan(midscale_unrefined)
        assert (
            refined.max_metadata_bytes()
            < midscale_unrefined.max_metadata_bytes()
        )

    def test_result_validates_and_verifies(self, midscale_unrefined):
        refined = refine_plan(midscale_unrefined)
        refined.validate()
        verify_dataflow(refined)

    def test_input_plan_untouched(self, midscale_unrefined):
        before = {
            name: placement.switch
            for name, placement in midscale_unrefined.placements.items()
        }
        before_amax = midscale_unrefined.max_metadata_bytes()
        refine_plan(midscale_unrefined)
        after = {
            name: placement.switch
            for name, placement in midscale_unrefined.placements.items()
        }
        assert before == after
        assert midscale_unrefined.max_metadata_bytes() == before_amax

    def test_zero_overhead_plan_is_fixed_point(self, six_programs):
        network = linear_topology(3, num_stages=4, stage_capacity=1.0)
        tdg = ProgramAnalyzer().analyze(six_programs)
        plan = GreedyHeuristic(refine=False).deploy(tdg, network)
        assert plan.max_metadata_bytes() == 0
        refined = refine_plan(plan)
        assert refined.max_metadata_bytes() == 0

    def test_move_budget_respected(self, midscale_unrefined):
        # With a zero budget nothing changes.
        same = refine_plan(midscale_unrefined, max_moves=0)
        assert (
            same.max_metadata_bytes()
            == midscale_unrefined.max_metadata_bytes()
        )


class TestHeuristicRefineFlag:
    def test_flag_default_on_and_beats_off(self):
        programs = real_programs(10) + synthetic_programs(10, seed=7)
        network = topology_zoo_wan(10)
        tdg = ProgramAnalyzer().analyze(programs)
        refined = GreedyHeuristic().deploy(tdg, network)
        unrefined = GreedyHeuristic(refine=False).deploy(tdg, network)
        assert (
            refined.max_metadata_bytes()
            <= unrefined.max_metadata_bytes()
        )
