"""HiGHS branch-and-cut behind the :class:`~repro.milp.model.Model` API.

:class:`HighsSolver` hands a model to ``scipy.optimize.milp``, which
runs HiGHS's compiled branch-and-cut (presolve, cutting planes, primal
heuristics and node search in one C++ solve), and maps the result onto
a :class:`~repro.milp.solution.Solution`.  Under the default ``fast``
profile it solves P#1's overhead objective
(:class:`repro.core.formulation.HermesMilp`); every other model stays
on :class:`~repro.milp.branch_bound.BranchBoundSolver`.

``milp`` takes no initial solution, so a warm start is used the one
way HiGHS can use it: when it is feasible in the model, its objective
value becomes an objective cutoff, the row ``c @ x <= c @ x0``.  On
P#1 the objective is the single variable ``A_max``, so the cutoff is a
singleton row: an upper bound on ``A_max``.  The warm start itself
satisfies the cutoff, so the optimum is unchanged; the bound only
keeps the search, and HiGHS's root heuristics in particular, out of
plans worse than the warm start.  An infeasible warm start adds no
cutoff.

The adapter passes HiGHS only the options ``milp`` documents: the
solver's ``time_limit``, and ``node_limit`` and ``mip_rel_gap`` fixed
at the branch & bound's defaults (:data:`_NODE_LIMIT`,
:data:`_MIP_REL_GAP`).  HiGHS presolve stays on; only a solve it
leaves without a verdict ("unbounded or infeasible", or a postsolve
error on a few tiny models) is repeated with ``presolve`` off.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.milp.branch_bound import (
    WarmStart,
    point_checker,
    relative_gap,
    warm_start_point,
    warm_start_values,
)
from repro.milp.model import Model
from repro.milp.solution import Solution, SolveStatus
from repro.telemetry import emit

#: ``scipy.optimize.milp`` status codes; 4 is "other".
_OPTIMAL, _LIMIT, _INFEASIBLE, _UNBOUNDED = 0, 1, 2, 3
_KNOWN = (_OPTIMAL, _LIMIT, _INFEASIBLE, _UNBOUNDED)

#: Cap on branch-and-cut nodes (``node_limit``); a stop on it is
#: mapped like the time limit.
_NODE_LIMIT = 200_000
#: Relative gap at which HiGHS reports OPTIMAL (``mip_rel_gap``;
#: HiGHS's own default is 1e-4).
_MIP_REL_GAP = 1e-6
#: HiGHS's name for its node-limit stop, which ``milp`` reports only
#: in the message of an unrecognized status (4).
_NODE_LIMIT_STOP = "Solution limit reached"


class HighsSolver:
    """Solves :class:`~repro.milp.model.Model` instances with HiGHS.

    Args:
        time_limit_s: Wall-clock budget, passed to HiGHS as
            ``time_limit``; on expiry the incumbent is returned with
            status FEASIBLE (or TIME_LIMIT if none).  A stop on
            :data:`_NODE_LIMIT` is reported the same way.

    Telemetry: a solve with an incumbent emits one ``solver.incumbent``
    (``source="highs"``, with HiGHS's dual bound and the gap), and
    every solve ends with one ``solver.done`` mirroring
    :meth:`Solution.summary`, where ``nodes_explored`` is HiGHS's
    ``mip_node_count`` and ``lp_solves`` is 0 (HiGHS does not report
    its LP count).
    """

    def __init__(self, time_limit_s: float = 300.0) -> None:
        if time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")
        self.time_limit_s = time_limit_s

    def solve(
        self, model: Model, initial: Optional[WarmStart] = None
    ) -> Solution:
        """Solve ``model``; a feasible ``initial`` bounds the objective.

        ``initial`` is a ``{Var: value}`` assignment or a prior
        :class:`Solution`, remapped by variable name as in
        :meth:`BranchBoundSolver.solve`.
        """
        start = time.perf_counter()
        c, a_ub, b_ub, a_eq, b_eq, var_bounds = model.to_arrays()
        lbs = np.array([lo for lo, _ in var_bounds])
        ubs = np.array([hi for _, hi in var_bounds])
        integral = np.array([var.is_integral for var in model.variables])
        rows = []
        if a_ub is not None:
            rows.append(LinearConstraint(a_ub, -np.inf, b_ub))
        if a_eq is not None:
            rows.append(LinearConstraint(a_eq, b_eq, b_eq))
        warm = warm_start_values(model, initial)
        if warm is not None:
            point = warm_start_point(model, warm)
            feasible = point_checker(
                lbs, ubs, integral, a_ub, b_ub, a_eq, b_eq
            )
            if feasible(point):
                cutoff = float(c @ point)
                rows.append(LinearConstraint(c[np.newaxis, :], -np.inf, cutoff))
        problem = dict(
            c=c,
            integrality=integral.astype(np.uint8),
            bounds=Bounds(lbs, ubs),
            constraints=rows,
        )
        options = {
            "time_limit": self.time_limit_s,
            "node_limit": _NODE_LIMIT,
            "mip_rel_gap": _MIP_REL_GAP,
        }
        res = milp(**problem, options=options)
        if res.status not in _KNOWN and not _hit_node_limit(res):
            # HiGHS presolve can stop at "unbounded or infeasible", and
            # on rare small models postsolve fails outright; both are
            # reported as status 4.  Without presolve HiGHS settles the
            # status, as the branch and bound's root LP does.
            res = milp(**problem, options={**options, "presolve": False})
        status = self._status(res)
        nodes = int(res.mip_node_count or 0)
        sign = -1.0 if model.maximize_objective else 1.0
        solution = Solution(status, nodes_explored=nodes)
        if status.has_solution:
            x = np.where(integral, np.round(res.x), res.x)
            objective = float(c @ x)
            bound = res.mip_dual_bound
            if bound is None:
                bound = -math.inf
            if status is SolveStatus.FEASIBLE:
                gap = relative_gap(objective, bound)
                solution.gap = math.inf if gap is None else gap
            solution.objective = sign * objective
            solution.values = {
                var: float(x[var.index]) for var in model.variables
            }
            emit(
                "solver.incumbent",
                source="highs",
                objective=solution.objective,
                bound=None if math.isinf(bound) else sign * bound,
                gap=solution.gap,
            )
        solution.wall_time_s = time.perf_counter() - start
        emit("solver.done", **solution.summary())
        return solution

    def _status(self, res) -> SolveStatus:
        """Map a ``milp`` result onto a :class:`SolveStatus`."""
        if res.status == _OPTIMAL:
            return SolveStatus.OPTIMAL
        if res.status == _INFEASIBLE:
            return SolveStatus.INFEASIBLE
        if res.status == _UNBOUNDED:
            return SolveStatus.UNBOUNDED
        if res.status == _LIMIT or _hit_node_limit(res):
            if res.x is not None:
                return SolveStatus.FEASIBLE
            return SolveStatus.TIME_LIMIT
        raise RuntimeError(f"MILP solver failed: {res.message}")


def _hit_node_limit(res) -> bool:
    """Whether ``milp`` stopped on the node limit.

    Read off the message: without an incumbent ``milp`` fills in no
    ``mip_node_count``.
    """
    return res.status not in _KNOWN and _NODE_LIMIT_STOP in res.message
