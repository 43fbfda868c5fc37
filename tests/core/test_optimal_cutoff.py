"""The warm-start cutoff of HiGHS solves is safe.

``scipy.optimize.milp`` takes no incumbent, so :class:`HighsSolver`
turns a warm start into an objective cutoff (on P#1, an upper bound on
``A_max``).  A cutoff from a warm start the model rejects could cut
off the true optimum, so such a start must add no row at all; a
feasible start must leave the optimum unchanged.
"""

import pytest

import repro.milp.highs as highs
from repro.core import ProgramAnalyzer
from repro.core.formulation import HermesMilp
from repro.core.heuristic import GreedyHeuristic
from repro.milp.branch_bound import PROFILE_CLASSIC, BranchBoundSolver
from repro.milp.highs import HighsSolver
from repro.milp.model import Model
from repro.milp.solution import SolveStatus
from repro.network.generators import linear_topology
from repro.network.paths import PathEnumerator
from tests.conftest import make_sketch_program


class ClassicHermesMilp(HermesMilp):
    """P#1 on the classic branch & bound, the reference optimum."""

    def _solver(self):
        return BranchBoundSolver(
            profile=PROFILE_CLASSIC, time_limit_s=self.time_limit_s
        )


@pytest.fixture
def row_counts(monkeypatch):
    """The number of constraint blocks each ``milp`` call receives."""
    counts = []
    real_milp = highs.milp

    def counting(*args, **kwargs):
        counts.append(len(kwargs["constraints"]))
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(highs, "milp", counting)
    return counts


def chains_on_line(num_switches):
    """Two sketch chains of 2.7 stage units on 2-stage switches: the
    greedy plan puts two MATs (1.8 units) on some switch."""
    network = linear_topology(
        num_switches, num_stages=2, stage_capacity=1.0
    )
    programs = [
        make_sketch_program(
            f"p{i}", index_bytes=2 + i, demands=(0.9, 0.9, 0.9)
        )
        for i in range(2)
    ]
    tdg = ProgramAnalyzer().analyze(programs)
    paths = PathEnumerator(network)
    greedy = GreedyHeuristic().deploy(tdg, network, paths)
    return tdg, network, paths, greedy


class TestGenericCutoff:
    def test_infeasible_start_adds_no_cutoff(self, row_counts):
        # minimize x s.t. x >= 5: the start x = 1 violates the row and
        # has a lower objective, so a cutoff from it would leave the
        # model infeasible.
        m = Model()
        x = m.add_integer("x", 0, 10)
        m.add_constr(x >= 5)
        m.minimize(x)
        solution = HighsSolver().solve(m, initial={x: 1.0})
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(5.0)
        cold = HighsSolver().solve(m)
        assert cold.objective == solution.objective
        assert row_counts == [1, 1]

    def test_feasible_start_adds_one_cutoff(self, row_counts):
        m = Model()
        x = m.add_integer("x", 0, 10)
        m.add_constr(x >= 5)
        m.minimize(x)
        solution = HighsSolver().solve(m, initial={x: 7.0})
        assert solution.objective == pytest.approx(5.0)
        assert row_counts == [2]


class TestP1Cutoff:
    def test_feasible_greedy_start_keeps_the_optimum(self, row_counts):
        tdg, network, paths, greedy = chains_on_line(3)
        formulation = HermesMilp()
        handles = formulation.build(tdg, network, paths)
        start = formulation.encode_plan(handles, greedy)
        assert handles.model.is_feasible(start)
        warm = HighsSolver().solve(handles.model, initial=start)
        cold = HighsSolver().solve(handles.model)
        assert warm.status is cold.status is SolveStatus.OPTIMAL
        assert warm.objective == cold.objective == pytest.approx(3.0)
        assert greedy.max_metadata_bytes() == 4
        warm_rows, cold_rows = row_counts
        assert warm_rows == cold_rows + 1

    def test_host_outside_candidates_adds_no_bound(self):
        tdg, network, paths, greedy = chains_on_line(6)
        hosts = {p.switch for p in greedy.placements.values()}
        formulation = HermesMilp()
        candidates = [
            u
            for u in formulation.build(tdg, network, paths).candidates
            if u != min(hosts)
        ]
        handles = formulation.build(tdg, network, paths, candidates)
        assert formulation.encode_plan(handles, greedy) is None
        plan = formulation.deploy(
            tdg, network, paths, candidates, warm_start_plan=greedy
        )
        classic = ClassicHermesMilp().deploy(
            tdg, network, paths, candidates
        )
        assert formulation.last_solution.status is SolveStatus.OPTIMAL
        assert plan.max_metadata_bytes() == classic.max_metadata_bytes()

    def test_start_over_shrunk_capacity_adds_no_bound(self, row_counts):
        # The stage-retry loop's shrunk capacity rows (85%: 1.7 units)
        # reject the greedy plan's 1.8-unit switch.
        tdg, network, paths, greedy = chains_on_line(6)
        formulation = HermesMilp()
        handles = formulation.build(tdg, network, paths)
        formulation._tighten_capacity(handles, tdg, network, 0.85)
        start = formulation.encode_plan(handles, greedy)
        assert start is not None
        assert not handles.model.is_feasible(start)
        warm = HighsSolver().solve(handles.model, initial=start)
        cold = HighsSolver().solve(handles.model)
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.objective == cold.objective
        warm_rows, cold_rows = row_counts
        assert warm_rows == cold_rows
