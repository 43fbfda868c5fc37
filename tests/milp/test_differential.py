"""Differential oracle suite: fast == classic == HiGHS == brute force.

The branch & bound's ``fast`` search (presolve + pseudo-cost branching
+ primal heuristics) exists to shrink the search, never to change an
answer, and the HiGHS adapter (:class:`repro.milp.highs.HighsSolver`,
which solves P#1) must be exactly as exact.  This suite pins that
contract four ways:

* On hand-picked golden instances and a seeded stream of random
  pure-integer models, both searches and the HiGHS adapter return the
  exact optimal objective of :func:`milp_testkit.enumerate_oracle` — a
  brute-force enumerator that shares no code with the solvers.
* Infeasible instances are reported INFEASIBLE by every solver, and
  the adapter maps HiGHS's other stops (unbounded, a limit hit with and
  without an incumbent) onto the matching :class:`SolveStatus`.
* On seeded P#1 instances, :meth:`HermesMilp.deploy_seeded` finds
  the same A_max with HiGHS as a test-local subclass whose solver is
  the classic branch & bound.
* Presolve's ``lift_values`` round-trips fixed variables verbatim and
  lifted assignments are feasible in the *original* model.

The default run covers a fast-lane slice of the seed stream; the full
200-seed sweep (the acceptance bar) is marked ``slow`` and runs in the
weekly CI cron.
"""

import random

import pytest

from milp_testkit import enumerate_oracle, random_milp
from repro.core import Hermes, ProgramAnalyzer
from repro.core.formulation import HermesMilp
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
from repro.milp.presolve import PresolveStatus, presolve
from repro.milp.solution import SolveStatus
from repro.network.generators import linear_topology, random_wan
from repro.network.paths import PathEnumerator

FAST_LANE_SEEDS = range(48)
FULL_SWEEP_SEEDS = range(200)

#: Every exact solver under test: the branch & bound's two searches and
#: the HiGHS adapter.
SOLVERS = (PROFILE_FAST, PROFILE_CLASSIC, "highs")


def solve_with(model, solver):
    if solver == "highs":
        return HighsSolver().solve(model)
    return solve(model, profile=solver)


def knapsack(n=8, seed=3):
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
    m = Model()
    xs = [m.add_integer(f"y{i}", 0, 5) for i in range(n)]
    for i in range(n - 1):
        m.add_constr(2 * xs[i] + 3 * xs[i + 1] >= 7)
    m.minimize(LinExpr.total(xs))
    return m


def mixed_signs():
    """Negative bounds, negative objective coefficients, an == row."""
    m = Model()
    a = m.add_integer("a", -3, 3)
    b = m.add_integer("b", -2, 4)
    c = m.add_binary("c")
    m.add_constr(a + b + 2 * c == 1)
    m.add_constr(2 * a - b <= 3)
    m.minimize(3 * a - 2 * b + 5 * c)
    return m


def infeasible():
    m = Model()
    x = m.add_binary("x")
    y = m.add_binary("y")
    m.add_constr(x + y >= 3)
    m.minimize(x + y)
    return m


GOLDEN = [
    ("knapsack8", knapsack),
    ("knapsack5", lambda: knapsack(n=5, seed=9)),
    ("covering", covering),
    ("mixed_signs", mixed_signs),
    ("infeasible", infeasible),
]


def assert_matches_oracle(model, solver):
    """One differential check: solver vs enumeration, plus feasibility
    of the returned assignment in the original (un-presolved) model."""
    oracle = enumerate_oracle(model)
    solution = solve_with(model, solver)
    if oracle is None:
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.objective is None
        return
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(oracle, abs=1e-6)
    assert model.is_feasible(solution.values)
    # The reported objective must be the objective *of the reported
    # assignment* — lifting through presolve must not desynchronize
    # them.  (The model's own objective includes its constant term,
    # which the solver convention excludes.)
    recomputed = (
        model.objective_value(solution.values) - model.objective.constant
    )
    assert recomputed == pytest.approx(solution.objective, abs=1e-6)


class TestGoldenInstances:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize(
        "build", [g[1] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
    )
    def test_profile_matches_oracle(self, build, solver):
        assert_matches_oracle(build(), solver)

    @pytest.mark.parametrize(
        "build", [g[1] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
    )
    def test_profiles_agree_exactly(self, build):
        fast = solve(build(), profile="fast")
        classic = solve(build(), profile="classic")
        assert fast.status is classic.status
        if fast.objective is None:
            assert classic.objective is None
        else:
            assert fast.objective == pytest.approx(
                classic.objective, abs=1e-9
            )


class TestRandomInstances:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("seed", FAST_LANE_SEEDS)
    def test_fast_lane_sweep(self, seed, solver):
        assert_matches_oracle(random_milp(seed), solver)

    @pytest.mark.slow
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("seed", FULL_SWEEP_SEEDS)
    def test_full_sweep(self, seed, solver):
        assert_matches_oracle(random_milp(seed), solver)

    def test_seed_stream_mixes_feasible_and_infeasible(self):
        # The sweep only means something if the generator actually
        # exercises both terminal statuses.
        oracles = [
            enumerate_oracle(random_milp(seed)) for seed in FAST_LANE_SEEDS
        ]
        assert sum(o is not None for o in oracles) >= 10
        assert sum(o is None for o in oracles) >= 5


def hard_knapsack(n=60, seed=0):
    """A 0/1 knapsack HiGHS needs hundreds of nodes to close."""
    rng = random.Random(seed)
    m = Model()
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    weights = [rng.randint(1000, 2000) for _ in range(n)]
    values = [w + rng.randint(0, 10) for w in weights]
    m.add_constr(
        LinExpr.total(w * x for w, x in zip(weights, xs))
        <= sum(weights) / 2 + 0.5
    )
    m.maximize(LinExpr.total(v * x for v, x in zip(values, xs)))
    return m


def planted_market_split(rows=3, n=30, seed=1):
    """A market-split feasibility model (equality rows over binaries)
    with a planted solution: feasible, but HiGHS finds no incumbent at
    its root node."""
    rng = random.Random(seed)
    m = Model()
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    planted = [rng.randint(0, 1) for _ in range(n)]
    for _ in range(rows):
        weights = [rng.randint(0, 99) for _ in range(n)]
        m.add_constr(
            LinExpr.total(w * x for w, x in zip(weights, xs))
            == sum(w * b for w, b in zip(weights, planted))
        )
    m.minimize(LinExpr.total(xs))
    return m


class TestHighsStatusMapping:
    """HiGHS's stops other than OPTIMAL and INFEASIBLE."""

    def test_unbounded(self):
        m = Model()
        x = m.add_integer("x")  # ub = inf
        y = m.add_integer("y")
        m.add_constr(x - y <= 2)
        m.minimize(-1 * x - y)
        solution = HighsSolver().solve(m)
        assert solution.status is SolveStatus.UNBOUNDED
        assert solution.objective is None
        assert solution.gap is None

    def test_node_limit_with_incumbent_is_feasible(self, monkeypatch):
        oracle = HighsSolver().solve(hard_knapsack()).objective
        monkeypatch.setattr(highs, "_NODE_LIMIT", 1)
        solution = HighsSolver().solve(hard_knapsack())
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.nodes_explored == 1
        assert isinstance(solution.gap, float) and solution.gap > 0.0
        assert solution.objective < oracle

    def test_node_limit_without_incumbent(self, monkeypatch):
        monkeypatch.setattr(highs, "_NODE_LIMIT", 1)
        solution = HighsSolver().solve(planted_market_split())
        assert solution.status is SolveStatus.TIME_LIMIT
        assert solution.objective is None
        assert solution.values == {}
        assert solution.gap is None

    def test_time_limit_without_incumbent(self):
        solution = HighsSolver(time_limit_s=1e-6).solve(hard_knapsack())
        assert solution.status is SolveStatus.TIME_LIMIT
        assert solution.objective is None
        assert solution.values == {}
        assert solution.gap is None


def two_stage_chains(num_programs, network):
    """Sketch chains of 2.7 stage units on 2-stage switches: no chain
    fits on one switch, so every plan pays cross-switch overhead."""
    from tests.conftest import make_sketch_program

    programs = [
        make_sketch_program(
            f"p{i}", index_bytes=2 + i, demands=(0.9, 0.9, 0.9)
        )
        for i in range(num_programs)
    ]
    return programs, network


def parsed(workload, topology, seed):
    from repro.cli import parse_topology, parse_workload

    return (
        parse_workload(workload, seed=seed),
        parse_topology(topology, seed=seed),
    )


#: Seeded P#1 instances: id -> (programs, network) factory.  The first
#: two have optimal A_max above 0 (3 B, below the greedy plan's 4 B,
#: and 2 B).  Only A_max is compared: among A_max ties HiGHS and the
#: branch & bound pick different plans (``real:5@wan:12:18:3``: four
#: switches against two).
P1_INSTANCES = {
    "chains2@linear:3": lambda: two_stage_chains(
        2, linear_topology(3, num_stages=2, stage_capacity=1.0)
    ),
    "chains1@wan:6:7:1": lambda: two_stage_chains(
        1,
        random_wan(
            6, 7, seed=1, num_stages=2, stage_capacity=1.0,
            programmable_fraction=0.75,
        ),
    ),
    "real:4@wan:10:14:2799": lambda: parsed("real:4", "wan:10:14", 2799),
    "real:5@wan:12:18:3": lambda: parsed("real:5", "wan:12:18", 3),
    "sketches:4@wan:10:14:5": lambda: parsed("sketches:4", "wan:10:14", 5),
    "real:3+sketches:3@wan:10:14:7": lambda: parsed(
        "real:3+sketches:3", "wan:10:14", 7
    ),
}


class ClassicHermesMilp(HermesMilp):
    """P#1 on the classic branch & bound: the oracle HiGHS answers to."""

    def _solver(self):
        return BranchBoundSolver(
            profile=PROFILE_CLASSIC, time_limit_s=self.time_limit_s
        )


class TestP1AgreesWithClassic:
    @pytest.mark.parametrize("instance", sorted(P1_INSTANCES))
    def test_same_amax_as_branch_and_bound(self, instance):
        programs, network = P1_INSTANCES[instance]()
        tdg = ProgramAnalyzer().analyze(programs)

        def amax(formulation):
            plan, _timed_out = formulation.deploy_seeded(
                tdg, network, PathEnumerator(network)
            )
            return plan.max_metadata_bytes()

        assert amax(HermesMilp()) == amax(ClassicHermesMilp())

    def test_instances_cover_a_nonzero_optimum(self):
        programs, network = P1_INSTANCES["chains2@linear:3"]()
        optimal = Hermes(mode="optimal").deploy(programs, network)
        greedy = Hermes().deploy(programs, network)
        assert 0 < optimal.overhead_bytes < greedy.overhead_bytes


class TestPresolveRoundTrip:
    @pytest.mark.parametrize("seed", FAST_LANE_SEEDS)
    def test_lift_restores_fixed_vars_verbatim(self, seed):
        model = random_milp(seed)
        pres = presolve(model)
        if pres.status != PresolveStatus.REDUCED:
            return
        reduced_solution = solve(pres.model, profile="classic")
        if not reduced_solution.status.has_solution:
            return
        lifted = pres.lift_values(reduced_solution.values)
        assert set(lifted) == set(model.variables)
        for var, value in pres.fixed.items():
            # Exact round-trip, not approximate: fixed values must pass
            # through lift_values untouched.
            assert lifted[var] == value
        assert model.is_feasible(lifted)

    def test_fully_solved_model_lifts_exactly(self):
        m = Model()
        x = m.add_integer("x", 2, 2)
        y = m.add_integer("y", 0, 10)
        m.add_constr(y == 2 * x)
        m.minimize(x + y)
        pres = presolve(m)
        assert pres.status == PresolveStatus.SOLVED
        lifted = pres.lift_values({})
        assert lifted == {x: 2.0, y: 4.0}
        assert pres.objective_offset == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", FAST_LANE_SEEDS)
    def test_reduction_preserves_optimum(self, seed):
        """Solving the reduction and adding the offset equals solving
        the original — the invariant behind the whole fast profile."""
        model = random_milp(seed)
        pres = presolve(model)
        oracle = enumerate_oracle(model)
        if pres.status == PresolveStatus.INFEASIBLE:
            assert oracle is None
            return
        if pres.status == PresolveStatus.SOLVED:
            assert oracle is not None
            assert pres.objective_offset == pytest.approx(oracle, abs=1e-6)
            return
        inner = solve(pres.model, profile="classic")
        if oracle is None:
            assert inner.status is SolveStatus.INFEASIBLE
        else:
            assert inner.status is SolveStatus.OPTIMAL
            assert inner.objective + pres.objective_offset == pytest.approx(
                oracle, abs=1e-6
            )

    def test_oracle_rejects_unbounded_domains(self):
        m = Model()
        m.add_integer("x")  # default ub = inf
        m.minimize(LinExpr() + 0.0)
        with pytest.raises(ValueError):
            enumerate_oracle(m)

    def test_oracle_rejects_continuous_vars(self):
        m = Model()
        m.add_var("x", 0.0, 1.0)
        m.minimize(LinExpr() + 0.0)
        with pytest.raises(ValueError):
            enumerate_oracle(m)
