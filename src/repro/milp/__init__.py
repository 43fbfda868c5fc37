"""Mixed-integer linear programming substrate.

The paper solves its deployment problem P#1 with Gurobi.  Offline we
build the same capability from first principles: a small modeling API
(:class:`Model`, :class:`Var`, :class:`LinExpr`, :class:`Constraint`)
and two exact solvers behind it — best-first branch & bound over LP
relaxations solved by ``scipy.optimize.linprog``
(:class:`BranchBoundSolver`), and HiGHS's compiled branch-and-cut
through ``scipy.optimize.milp`` (:class:`HighsSolver`).

The solver is exact on the model it is given (it proves optimality via
LP bounds), supports binary/integer/continuous variables, <=/>=/==
constraints, minimization and maximization, time limits and incumbent
callbacks.  It is deliberately a general-purpose component: both the
Hermes "Optimal" configuration and every ILP-based baseline build their
models against this API.

Each job has one production solver.  P#1's overhead objective
(``HermesMilp``) goes to :class:`HighsSolver`, with a warm start turned
into an objective cutoff (:mod:`repro.milp.highs`).  Every other ILP
runs the branch & bound's search with a presolve pass
(:mod:`repro.milp.presolve`), pseudo-cost branching and primal
heuristics (:mod:`repro.milp.heuristics`).  The branch & bound's
historical most-fractional search stays behind
``BranchBoundSolver(profile="classic")`` as the oracle the tests
compare against (see :mod:`repro.milp.branch_bound`).

The modeling layer loads without numpy or scipy; the solvers, which
need both, are imported on first access (:mod:`repro.lazy`).
"""

from repro.lazy import lazy_exports
from repro.milp.expr import LinExpr
from repro.milp.model import Constraint, Model, Sense, Var, VarType
from repro.milp.presolve import (
    PresolveCache,
    PresolvedModel,
    PresolveStats,
    PresolveStatus,
    model_signature,
    presolve,
)
from repro.milp.solution import Solution, SolveStatus

__getattr__ = lazy_exports(
    globals(),
    {
        "repro.milp.branch_bound": ("BranchBoundSolver", "solve"),
        "repro.milp.highs": ("HighsSolver",),
    },
)

__all__ = [
    "BranchBoundSolver",
    "Constraint",
    "HighsSolver",
    "LinExpr",
    "Model",
    "PresolveCache",
    "PresolveStats",
    "PresolveStatus",
    "PresolvedModel",
    "Sense",
    "Solution",
    "SolveStatus",
    "Var",
    "VarType",
    "model_signature",
    "presolve",
    "solve",
]
