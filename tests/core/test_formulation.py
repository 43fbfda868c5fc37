"""Unit tests for the P#1 MILP formulation."""

import pytest

from repro.core.analyzer import ProgramAnalyzer
from repro.core.formulation import (
    HermesMilp,
    MilpFormulation,
    OBJECTIVE_LATENCY,
    OBJECTIVE_OVERHEAD,
    OBJECTIVE_SWITCHES,
    select_candidates,
)
from repro.core.heuristic import GreedyHeuristic
from repro.network.generators import linear_topology, random_wan
from repro.network.paths import PathEnumerator
from repro.plan.artifact import DeploymentError
from tests.conftest import make_sketch_program


@pytest.fixture
def six_tdg(six_programs):
    return ProgramAnalyzer().analyze(six_programs)


@pytest.fixture
def line4():
    return linear_topology(3, num_stages=4, stage_capacity=1.0)


class TestValidation:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            MilpFormulation(objective="fastest")

    def test_rejects_bad_epsilons(self):
        with pytest.raises(ValueError):
            MilpFormulation(epsilon1=0)
        with pytest.raises(ValueError):
            MilpFormulation(epsilon2=0)


class TestSelectCandidates:
    def test_covers_demand(self, six_tdg, line4):
        paths = PathEnumerator(line4)
        candidates = select_candidates(six_tdg, line4, paths)
        capacity = sum(
            line4.switch(u).total_capacity for u in candidates
        )
        assert capacity >= six_tdg.total_resource_demand()

    def test_max_candidates_respected_when_capacity_allows(
        self, sketch_program, line4
    ):
        tdg = ProgramAnalyzer().analyze([sketch_program])
        paths = PathEnumerator(line4)
        candidates = select_candidates(
            tdg, line4, paths, max_candidates=1
        )
        assert len(candidates) == 1

    def test_raises_when_capacity_insufficient(self, six_tdg):
        tiny = linear_topology(1, num_stages=2, stage_capacity=1.0)
        paths = PathEnumerator(tiny)
        with pytest.raises(DeploymentError, match="stage units"):
            select_candidates(six_tdg, tiny, paths)

    def test_requires_programmable(self, six_tdg):
        net = linear_topology(3, programmable=False)
        with pytest.raises(DeploymentError, match="programmable"):
            select_candidates(six_tdg, net, PathEnumerator(net))


class TestBuild:
    def test_model_structure(self, six_tdg, line4):
        paths = PathEnumerator(line4)
        handles = MilpFormulation().build(six_tdg, line4, paths)
        model = handles.model
        num_mats = len(six_tdg)
        num_candidates = len(handles.candidates)
        assert len(handles.placement) == num_mats * num_candidates
        assert len(handles.occupied) == num_candidates
        assert handles.a_max is not None
        assert model.num_constraints > num_mats  # at least placement rows

    def test_epsilon2_constraint_present(self, six_tdg, line4):
        paths = PathEnumerator(line4)
        handles = MilpFormulation(epsilon2=2).build(six_tdg, line4, paths)
        names = {row.name for row in handles.model.rows() if row.name}
        assert "eps2" in names

    def test_epsilon1_constraint_present(self, six_tdg, line4):
        paths = PathEnumerator(line4)
        handles = MilpFormulation(epsilon1=1e9).build(six_tdg, line4, paths)
        names = {row.name for row in handles.model.rows() if row.name}
        assert "eps1" in names

    def test_mats_cap_constraint(self, six_tdg, line4):
        paths = PathEnumerator(line4)
        handles = MilpFormulation(max_mats_per_switch=5).build(
            six_tdg, line4, paths
        )
        names = {row.name for row in handles.model.rows() if row.name}
        assert any(n.startswith("mats[") for n in names)


class TestDeploy:
    def test_optimal_plan_validates(self, six_tdg, line4):
        plan = HermesMilp(time_limit_s=60).deploy(six_tdg, line4)
        plan.validate()
        assert len(plan.placements) == len(six_tdg)

    def test_optimal_overhead_at_most_heuristic(self, six_tdg, line4):
        optimal = HermesMilp(time_limit_s=60).deploy(six_tdg, line4)
        greedy = GreedyHeuristic().deploy(six_tdg, line4)
        assert (
            optimal.max_metadata_bytes() <= greedy.max_metadata_bytes()
        )

    def test_switch_objective_minimizes_occupancy(self, line4):
        programs = [make_sketch_program(f"q{i}") for i in range(2)]
        tdg = ProgramAnalyzer().analyze(programs)
        plan = MilpFormulation(
            objective=OBJECTIVE_SWITCHES, time_limit_s=60
        ).deploy(tdg, line4)
        assert plan.num_occupied_switches() == 1

    def test_latency_objective_runs(self, line4):
        programs = [make_sketch_program(f"q{i}") for i in range(2)]
        tdg = ProgramAnalyzer().analyze(programs)
        plan = MilpFormulation(
            objective=OBJECTIVE_LATENCY, time_limit_s=60
        ).deploy(tdg, line4)
        plan.validate()

    def test_epsilon2_respected_in_plan(self, six_tdg, line4):
        plan = HermesMilp(epsilon2=2, time_limit_s=60).deploy(
            six_tdg, line4
        )
        assert plan.num_occupied_switches() <= 2

    def test_explicit_paths_mode(self, line4):
        programs = [make_sketch_program(f"q{i}") for i in range(2)]
        tdg = ProgramAnalyzer().analyze(programs)
        formulation = MilpFormulation(
            objective=OBJECTIVE_OVERHEAD,
            epsilon1=1e12,
            explicit_paths=True,
            time_limit_s=60,
        )
        plan = formulation.deploy(tdg, line4)
        plan.validate()

    def test_explicit_paths_without_latency_terms_route_shortest(self):
        """Without a latency objective or bound the model has no ``y``
        columns, so every communicating pair keeps its shortest path."""
        programs = [
            make_sketch_program(f"q{i}", demands=(0.9,) * 3) for i in range(2)
        ]
        tdg = ProgramAnalyzer().analyze(programs)
        net = random_wan(6, 9, seed=2, num_stages=2, stage_capacity=1.0)
        plan = MilpFormulation(
            objective=OBJECTIVE_OVERHEAD, explicit_paths=True, time_limit_s=60
        ).deploy(tdg, net)
        paths = PathEnumerator(net)
        assert len(plan.routing) > 1
        assert plan.routing == {
            pair: paths.shortest(*pair) for pair in plan.pair_metadata_bytes()
        }

    def test_last_solution_recorded(self, six_tdg, line4):
        formulation = HermesMilp(time_limit_s=60)
        formulation.deploy(six_tdg, line4)
        assert formulation.last_solution is not None
        assert formulation.last_solution.status.has_solution


class TestSharedTimeBudget:
    """``deploy``'s shrink-and-resolve attempts share one
    ``time_limit_s`` budget: each solve is given what is left of it.

    The solver is a stub on a fake clock that spends a set share of
    whatever limit it is given, and every decode fails, so ``deploy``
    runs every attempt the budget allows.
    """

    LIMIT = 10.0

    @staticmethod
    def formulation(monkeypatch, share, base=MilpFormulation):
        from types import SimpleNamespace

        import repro.core.formulation as formulation
        from repro.core.stages import StageAssignmentError
        from repro.milp.solution import Solution, SolveStatus

        clock = [100.0]
        monkeypatch.setattr(
            formulation, "time", SimpleNamespace(perf_counter=lambda: clock[0])
        )

        class Stub:
            def __init__(self, time_limit_s, limits):
                self.time_limit_s = time_limit_s
                self.limits = limits

            def solve(self, model, initial=None):
                self.limits.append(self.time_limit_s)
                clock[0] += share * self.time_limit_s
                return Solution(SolveStatus.FEASIBLE, objective=0.0, gap=1.0)

        class Budgeted(base):
            limits = []

            def _solver(self):
                return Stub(self.time_limit_s, self.limits)

            def _decode(self, *args):
                raise StageAssignmentError("no stage layout")

        return Budgeted(time_limit_s=TestSharedTimeBudget.LIMIT)

    def test_resolves_get_what_is_left(self, monkeypatch, six_tdg, line4):
        milp = self.formulation(monkeypatch, share=0.99)
        with pytest.raises(DeploymentError, match="no stage-feasible"):
            milp.deploy(six_tdg, line4)
        limits = milp.limits
        assert len(limits) == 3
        assert all(a > b for a, b in zip(limits, limits[1:]))
        assert sum(limits) <= self.LIMIT + 0.2
        assert limits[0] == self.LIMIT

    def test_spent_budget_stops_the_resolves(
        self, monkeypatch, six_tdg, line4
    ):
        milp = self.formulation(monkeypatch, share=1.0)
        with pytest.raises(DeploymentError, match="time limit of 10.0 s"):
            milp.deploy(six_tdg, line4)
        assert milp.limits == [self.LIMIT]

    def test_seeded_deploy_falls_back_to_the_greedy_plan(
        self, monkeypatch, six_tdg, line4
    ):
        milp = self.formulation(monkeypatch, share=1.0, base=HermesMilp)
        plan, timed_out = milp.deploy_seeded(
            six_tdg, line4, PathEnumerator(line4)
        )
        greedy = GreedyHeuristic().deploy(six_tdg, line4)
        assert timed_out
        assert plan.fingerprint() == greedy.fingerprint()
