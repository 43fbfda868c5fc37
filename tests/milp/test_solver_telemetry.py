"""Invariants tying the solver's telemetry stream to its Solution.

The branch & bound solver emits ``solver.lp`` / ``solver.node`` /
``solver.incumbent`` / ``solver.prune`` / ``solver.done`` events on the
:mod:`repro.telemetry` bus.  These tests pin the contract the journal
relies on: event counts match the Solution's own counters exactly, the
incumbent gap trajectory is monotone non-increasing, and ``gap`` is
consistently ``0.0`` (never ``None``) on OPTIMAL.  The HiGHS adapter
reports one ``solver.incumbent`` and one ``solver.done`` per solve.
"""

import pytest

from repro.milp.branch_bound import (
    PROFILE_CLASSIC,
    PROFILE_FAST,
    BranchBoundSolver,
    solve,
)
from repro.milp.expr import LinExpr
from repro.milp import highs
from repro.milp.highs import HighsSolver
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus
from repro.telemetry import Recorder, attached, emit


def knapsack(n=8, seed=3):
    """A deterministic 0/1 knapsack that forces real branching."""
    import random

    rng = random.Random(seed)
    m = Model()
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    weights = [rng.randint(2, 9) for _ in range(n)]
    values = [rng.randint(5, 20) for _ in range(n)]
    m.add_constr(
        LinExpr.total(w * x for w, x in zip(weights, xs))
        <= sum(weights) // 2
    )
    m.maximize(LinExpr.total(v * x for v, x in zip(values, xs)))
    return m


def covering(n=6):
    """An integer covering model with a fractional LP relaxation."""
    m = Model()
    xs = [m.add_integer(f"y{i}", 0, 5) for i in range(n)]
    for i in range(n - 1):
        m.add_constr(2 * xs[i] + 3 * xs[i + 1] >= 7)
    m.minimize(LinExpr.total(xs))
    return m


def solve_recorded(model, **solver_kwargs):
    rec = Recorder()
    with attached(rec):
        solution = BranchBoundSolver(**solver_kwargs).solve(model)
    return solution, rec


class TestEventCounts:
    @pytest.mark.parametrize(
        "model", [knapsack(), covering()], ids=["knapsack", "covering"]
    )
    def test_counts_match_solution_counters(self, model):
        solution, rec = solve_recorded(model)
        assert rec.count("solver.lp") == solution.lp_solves
        assert rec.count("solver.node") == solution.nodes_explored
        assert solution.lp_solves > 0
        assert solution.nodes_explored > 0

    def test_done_event_mirrors_summary(self):
        solution, rec = solve_recorded(knapsack())
        done = rec.of_kind("solver.done")
        assert len(done) == 1
        payload = {k: v for k, v in done[0].items() if k != "kind"}
        assert payload == solution.summary()

    def test_incumbent_events_cover_final_objective(self):
        solution, rec = solve_recorded(knapsack())
        incumbents = rec.of_kind("solver.incumbent")
        assert incumbents, "an OPTIMAL solve must report an incumbent"
        assert incumbents[-1]["objective"] == pytest.approx(
            solution.objective
        )

    def test_no_events_without_a_sink(self):
        # emit() with no sink attached is a silent no-op: solving
        # outside `attached` must neither fail nor leak events into a
        # later-attached recorder.
        solve(knapsack())
        rec = Recorder()
        with attached(rec):
            emit("sentinel")
        assert [e["kind"] for e in rec.events] == ["sentinel"]


class TestGapTrajectory:
    @pytest.mark.parametrize("profile", (PROFILE_FAST, PROFILE_CLASSIC))
    @pytest.mark.parametrize(
        "model", [knapsack(), covering()], ids=["knapsack", "covering"]
    )
    def test_gap_monotone_non_increasing(self, model, profile):
        _, rec = solve_recorded(model, profile=profile)
        gaps = [
            e["gap"]
            for e in rec.of_kind("solver.incumbent")
            if e["gap"] is not None
        ]
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(gaps, gaps[1:])
        )
        assert all(g >= -1e-9 for g in gaps)

    @pytest.mark.parametrize("profile", (PROFILE_FAST, PROFILE_CLASSIC))
    def test_gap_monotone_with_near_zero_incumbent(self, profile):
        # The regression this pins: an incumbent objective approaching
        # zero shrinks the relative-gap denominator, which used to
        # bounce the reported gap *upward* between incumbents even
        # though the proven gap only shrinks.  Minimizing onto a
        # near-zero optimum exercises exactly that denominator path.
        m = Model()
        xs = [m.add_integer(f"x{i}", -2, 2) for i in range(5)]
        m.add_constr(LinExpr.total(xs) >= 0)
        for i in range(4):
            m.add_constr(2 * xs[i] + 3 * xs[i + 1] >= 1)
        m.minimize(LinExpr.total(xs))
        _, rec = solve_recorded(m, profile=profile)
        gaps = [
            e["gap"]
            for e in rec.of_kind("solver.incumbent")
            if e["gap"] is not None
        ]
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(gaps, gaps[1:])
        )
        assert all(g >= -1e-9 for g in gaps)


class TestProfileTelemetry:
    """The fast profile's extra event stream, and classic's absence of it."""

    @pytest.mark.parametrize(
        "model", [knapsack(), covering()], ids=["knapsack", "covering"]
    )
    def test_fast_emits_presolve_and_branching(self, model):
        solution, rec = solve_recorded(model, profile="fast")
        assert rec.count("solver.presolve") == 1
        assert rec.count("solver.branching") >= 1
        assert rec.count("solver.heuristic") >= 1
        # The optimization layer must not break the count contract.
        assert rec.count("solver.lp") == solution.lp_solves
        assert rec.count("solver.node") == solution.nodes_explored

    @pytest.mark.parametrize(
        "model", [knapsack(), covering()], ids=["knapsack", "covering"]
    )
    def test_classic_stream_is_unchanged(self, model):
        _, rec = solve_recorded(model, profile="classic")
        assert rec.count("solver.presolve") == 0
        assert rec.count("solver.branching") == 0
        assert rec.count("solver.heuristic") == 0
        for event in rec.of_kind("solver.incumbent"):
            assert event["source"] != "heuristic"

    @pytest.mark.parametrize(
        "model", [knapsack(), covering()], ids=["knapsack", "covering"]
    )
    def test_fast_heuristic_incumbents_carry_source(self, model):
        _, rec = solve_recorded(model, profile="fast")
        heuristic_incumbents = [
            e
            for e in rec.of_kind("solver.incumbent")
            if e["source"] == "heuristic"
        ]
        assert heuristic_incumbents, (
            "these models seed their incumbent heuristically"
        )
        for event in heuristic_incumbents:
            assert event["heuristic"] in ("diving", "rounding")
        # Classic's heuristic sources never leak into the fast stream.
        sources = {e["source"] for e in rec.of_kind("solver.incumbent")}
        assert sources.isdisjoint({"root_dive", "dive", "rounding"})

    def test_heuristic_events_report_objective_on_success(self):
        _, rec = solve_recorded(covering(), profile="fast")
        for event in rec.of_kind("solver.heuristic"):
            assert event["heuristic"] in ("diving", "rounding")
            if event["success"]:
                assert isinstance(event["objective"], float)
            else:
                assert event["objective"] is None

    def test_branching_events_name_their_rule(self):
        _, rec = solve_recorded(covering(), profile="fast")
        rules = [e["rule"] for e in rec.of_kind("solver.branching")]
        assert set(rules) <= {"most_fractional", "pseudo_cost"}
        # The first decision has no pseudo-cost observations yet; once
        # branching data accumulates the learned rule takes over.
        assert rules[0] == "most_fractional"
        assert "pseudo_cost" in rules

    def test_presolve_solved_model_emits_incumbent(self):
        m = Model()
        x = m.add_integer("x", 2, 2)
        y = m.add_integer("y", 3, 3)
        m.add_constr(x + y <= 5)
        m.minimize(x + y)
        solution, rec = solve_recorded(m, profile="fast")
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(5.0)
        assert solution.lp_solves == 0
        (incumbent,) = rec.of_kind("solver.incumbent")
        assert incumbent["source"] == "presolve"
        assert incumbent["gap"] == 0.0


class TestGapInvariant:
    @pytest.mark.parametrize(
        "model",
        [knapsack(), knapsack(n=5, seed=9), covering()],
        ids=["knapsack8", "knapsack5", "covering"],
    )
    def test_optimal_gap_is_zero_not_none(self, model):
        s = solve(model)
        assert s.status is SolveStatus.OPTIMAL
        assert s.gap == 0.0
        assert s.gap is not None

    def test_trivial_lp_optimal_gap_is_zero(self):
        m = Model()
        x = m.add_var("x", 0, 10)
        m.add_constr(x >= 2.5)
        m.minimize(x)
        s = solve(m)
        assert s.status is SolveStatus.OPTIMAL
        assert s.gap == 0.0

    def test_time_limited_feasible_has_float_gap(self):
        # A feasible warm start plus an expired budget yields FEASIBLE
        # with a real (non-None) bound gap.
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(6)]
        m.add_constr(LinExpr.total(xs) >= 3)
        m.maximize(LinExpr.total((i + 1) * x for i, x in enumerate(xs)))
        warm = {x: 1.0 for x in xs}
        s = BranchBoundSolver(time_limit_s=1e-9).solve(m, initial=warm)
        assert s.status in (SolveStatus.FEASIBLE, SolveStatus.TIME_LIMIT)
        assert s.objective is not None
        if s.gap is not None:
            assert isinstance(s.gap, float)
            assert s.gap >= 0.0

    def test_infeasible_gap_is_none(self):
        m = Model()
        x = m.add_binary("x")
        m.add_constr(x >= 2)
        s = solve(m)
        assert s.status is SolveStatus.INFEASIBLE
        assert s.gap is None

    def test_post_init_normalizes_optimal_gap(self):
        # The invariant holds at construction, not just via the solver.
        s = Solution(status=SolveStatus.OPTIMAL, objective=1.0, gap=None)
        assert s.gap == 0.0


class TestHighsTelemetry:
    """One incumbent and one done event per HiGHS solve."""

    @pytest.mark.parametrize(
        "model", [knapsack(), covering()], ids=["knapsack", "covering"]
    )
    def test_one_incumbent_and_one_done(self, model):
        rec = Recorder()
        with attached(rec):
            solution = HighsSolver().solve(model)
        assert solution.status is SolveStatus.OPTIMAL
        (incumbent,) = rec.of_kind("solver.incumbent")
        assert incumbent["source"] == "highs"
        assert incumbent["objective"] == pytest.approx(solution.objective)
        assert incumbent["gap"] == 0.0
        (done,) = rec.of_kind("solver.done")
        assert {k: v for k, v in done.items() if k != "kind"} == (
            solution.summary()
        )
        assert [e["kind"] for e in rec.events] == [
            "solver.incumbent",
            "solver.done",
        ]

    def test_done_counts_highs_nodes_and_no_lps(self, monkeypatch):
        monkeypatch.setattr(highs, "_NODE_LIMIT", 1)
        rec = Recorder()
        with attached(rec):
            solution = HighsSolver().solve(knapsack(n=40))
        (done,) = rec.of_kind("solver.done")
        assert done["nodes_explored"] == solution.nodes_explored >= 1
        assert done["lp_solves"] == solution.lp_solves == 0
        assert rec.count("solver.lp") == rec.count("solver.node") == 0

    def test_infeasible_solve_reports_only_done(self):
        m = Model()
        x = m.add_binary("x")
        m.add_constr(x >= 2)
        rec = Recorder()
        with attached(rec):
            solution = HighsSolver().solve(m)
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.gap is None
        (done,) = rec.events
        assert done["kind"] == "solver.done"
        assert done["status"] == "infeasible"
