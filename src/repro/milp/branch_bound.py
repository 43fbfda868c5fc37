"""Exact MILP solving: best-first branch & bound over LP relaxations.

Every node relaxes integrality and solves the LP with HiGHS (through
``scipy.optimize.linprog``).  Fractional integral variables trigger two
child nodes (floor / ceil bound splits); nodes whose LP bound cannot
beat the incumbent are pruned.

The solver runs one of two **profiles**:

* ``"fast"`` (default) — the optimization layer: a presolve pass
  (:mod:`repro.milp.presolve`) shrinks the model before the search,
  **pseudo-cost branching** picks branching variables from observed
  LP-bound degradations instead of raw fractionality, and the primal
  heuristics (:mod:`repro.milp.heuristics`) supply early incumbents so
  pruning bites sooner.  Telemetry gains ``solver.presolve``,
  ``solver.branching`` and ``solver.heuristic`` events, and heuristic
  incumbents carry ``source="heuristic"``.
* ``"classic"`` — the historical search, byte-for-byte: no presolve,
  most-fractional branching, and the original heuristic event sources
  (``root_dive`` / ``dive`` / ``rounding``).  Kept as the trusted
  differential baseline; ``tests/milp/test_differential.py`` pins that
  both profiles return identical optimal objectives.

Both profiles are exact: they prove optimality through LP bounds and
differ only in how fast they get there.

P#1's overhead objective (:class:`repro.core.formulation.HermesMilp`)
is the exception under ``fast``: it goes to HiGHS's compiled
branch-and-cut (:mod:`repro.milp.highs`).  This search keeps the solves
HiGHS cannot take over as well: the warm-started delta MILP of churn
replanning (``scipy.optimize.milp`` takes no incumbent), the baselines'
latency and stage objectives, and every solve under ``classic``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from typing import Union

from repro.milp import heuristics as _heuristics
from repro.milp.model import Model, Var
from repro.milp.presolve import PresolveCache, PresolveStatus, presolve
from repro.milp.solution import Solution, SolveStatus
from repro.telemetry import emit

#: Warm-start input accepted by :meth:`BranchBoundSolver.solve`: either
#: a raw assignment over the model's own variables, or a prior
#: :class:`Solution` (whose values are remapped by *variable name*, so
#: an incumbent survives the model being rebuilt between replans).
WarmStart = Union[Dict[Var, float], Solution]

_INT_TOL = 1e-6
_OBJ_TOL = 1e-9

#: Search profiles accepted by :class:`BranchBoundSolver`.
PROFILE_FAST = "fast"
PROFILE_CLASSIC = "classic"
SOLVER_PROFILES = (PROFILE_FAST, PROFILE_CLASSIC)
DEFAULT_PROFILE = PROFILE_FAST


def relative_gap(incumbent: float, bound: float) -> Optional[float]:
    """Relative incumbent-vs-bound gap in minimize space.

    The bound is a valid lower bound, so the numerator clamps at
    zero — a bound that numerically overshoots the incumbent proves
    a zero gap, not a negative one.
    """
    if math.isinf(bound):
        return None
    denom = max(abs(incumbent), 1e-9)
    return max(incumbent - bound, 0.0) / denom


def warm_start_values(
    model: Model, initial: Optional[WarmStart]
) -> Optional[Dict[Var, float]]:
    """Normalize a warm start onto ``model``'s own variables.

    A :class:`Solution` is remapped by variable name (names the model
    lacks are dropped); one without an incumbent, or with no name in
    common, gives None.
    """
    if initial is None or not isinstance(initial, Solution):
        return initial
    if not initial.status.has_solution:
        return None
    remapped: Dict[Var, float] = {}
    for var, value in initial.values.items():
        try:
            remapped[model.var(var.name)] = value
        except KeyError:
            continue
    return remapped or None


def warm_start_point(model: Model, values: Dict[Var, float]) -> np.ndarray:
    """A warm start as a column vector: missing variables at 0,
    integral ones rounded."""
    point = np.zeros(len(model.variables))
    for var in model.variables:
        value = float(values.get(var, 0.0))
        point[var.index] = round(value) if var.is_integral else value
    return point


def point_checker(
    lbs: np.ndarray,
    ubs: np.ndarray,
    int_mask: np.ndarray,
    a_ub,
    b_ub: Optional[np.ndarray],
    a_eq,
    b_eq: Optional[np.ndarray],
) -> _heuristics.FeasibleFn:
    """A vectorized feasibility predicate over the columns of one
    model's :meth:`~repro.milp.model.Model.to_arrays` export."""

    def feasible(x: np.ndarray, tol: float = 1e-6) -> bool:
        if ((x < lbs - tol) | (x > ubs + tol)).any():
            return False
        if int_mask.any():
            xi = x[int_mask]
            if (np.abs(xi - np.round(xi)) > tol).any():
                return False
        if a_ub is not None and (a_ub @ x > b_ub + tol).any():
            return False
        if a_eq is not None and (np.abs(a_eq @ x - b_eq) > tol).any():
            return False
        return True

    return feasible


@dataclass(order=True)
class _Node:
    bound: float
    tie: int
    var_bounds: List[Tuple[float, float]] = field(compare=False)


class _PseudoCosts:
    """Per-variable branching statistics (fast profile only).

    For every branching on variable ``j`` at LP value ``v`` with
    fractionality ``f = v - floor(v)``, the observed LP-bound
    degradation of the floor child divided by ``f`` (respectively of
    the ceil child divided by ``1 - f``) updates the down
    (respectively up) pseudo-cost.  Unobserved directions fall back to
    the average observed pseudo-cost, the standard initialization.
    """

    def __init__(self, n: int) -> None:
        self._sums = [[0.0] * n, [0.0] * n]  # [down, up]
        self._counts = [[0] * n, [0] * n]
        self.observations = 0

    def update(self, idx: int, up: bool, degradation: float) -> None:
        side = 1 if up else 0
        self._sums[side][idx] += max(degradation, 0.0)
        self._counts[side][idx] += 1
        self.observations += 1

    def reliable(self, idx: int) -> bool:
        """Whether ``idx`` has been observed in both directions."""
        return bool(self._counts[0][idx] and self._counts[1][idx])

    def _average(self) -> float:
        total = sum(self._sums[0]) + sum(self._sums[1])
        count = sum(self._counts[0]) + sum(self._counts[1])
        return total / count if count else 1.0

    def score(self, idx: int, frac: float) -> float:
        """The product score of branching on ``idx`` (higher = better)."""
        fallback = self._average()
        down = (
            self._sums[0][idx] / self._counts[0][idx]
            if self._counts[0][idx]
            else fallback
        )
        up = (
            self._sums[1][idx] / self._counts[1][idx]
            if self._counts[1][idx]
            else fallback
        )
        eps = 1e-6
        return max(down * frac, eps) * max(up * (1.0 - frac), eps)


class BranchBoundSolver:
    """Exact solver for :class:`~repro.milp.model.Model` instances.

    Args:
        time_limit_s: Wall-clock budget; on expiry the best incumbent is
            returned with status FEASIBLE (or TIME_LIMIT if none).
        node_limit: Hard cap on explored nodes.
        gap_tolerance: Ignored by this search, which prunes a node only
            when its LP bound comes within ``_OBJ_TOL`` (1e-9, absolute)
            of the incumbent, so OPTIMAL always means proven to that
            tolerance.  :class:`~repro.milp.highs.HighsSolver` passes
            the same default to HiGHS as ``mip_rel_gap``.
        profile: ``"fast"`` (presolve + pseudo-cost branching + primal
            heuristics) or ``"classic"`` (the historical search); see
            the module docstring.

    Telemetry: when a sink is attached via :mod:`repro.telemetry`, the
    solver emits one ``solver.lp`` event per LP relaxation solved, one
    ``solver.node`` per explored node, ``solver.prune`` on every pruned
    node/child, ``solver.incumbent`` (with objective, bound and
    relative gap) whenever the incumbent improves, and a final
    ``solver.done`` carrying the :meth:`Solution.summary`.  Event
    counts therefore match ``Solution.lp_solves`` and
    ``Solution.nodes_explored`` exactly, and the gap values across the
    ``solver.incumbent`` stream trace the convergence trajectory
    (monotone non-increasing: the proven gap only ever shrinks, so an
    emitted gap is clamped by its predecessor when the relative
    normalization would otherwise bounce it upward).  The fast profile
    additionally emits ``solver.presolve`` (model reduction),
    ``solver.branching`` (per branching decision) and
    ``solver.heuristic`` (per heuristic attempt) events.  Without a
    sink every emit is a no-op.
    """

    def __init__(
        self,
        time_limit_s: float = 300.0,
        node_limit: int = 200_000,
        gap_tolerance: float = 1e-6,
        profile: str = DEFAULT_PROFILE,
        presolve_cache: Optional[PresolveCache] = None,
    ) -> None:
        if time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")
        if profile not in SOLVER_PROFILES:
            raise ValueError(
                f"profile must be one of {SOLVER_PROFILES}, got {profile!r}"
            )
        self.time_limit_s = time_limit_s
        self.node_limit = node_limit
        self.gap_tolerance = gap_tolerance
        self.profile = profile
        #: Optional cross-solve presolve memo (fast profile only): when
        #: consecutive solves see structurally identical models (the
        #: reconciler's replan loop), the reduction is reused via
        #: :meth:`PresolveCache.fetch` instead of recomputed.
        self.presolve_cache = presolve_cache

    # ------------------------------------------------------------------
    def solve(
        self,
        model: Model,
        initial: Optional[WarmStart] = None,
    ) -> Solution:
        """Solve ``model``; ``initial`` optionally warm-starts the search.

        A feasible ``initial`` assignment becomes the first incumbent,
        so the search starts with a pruning bound instead of hunting
        for one; an infeasible assignment is silently ignored.  A prior
        :class:`Solution` is accepted directly: its values are remapped
        onto ``model``'s variables by name, so an incumbent from the
        previous replan survives the model being rebuilt (names the new
        model lacks are dropped; variables the solution lacks default
        to their encoding's zero).
        """
        start = time.perf_counter()
        warm = warm_start_values(model, initial)
        if self.profile == PROFILE_CLASSIC:
            return self._finish(self._search(model, warm, start))
        return self._finish(self._solve_fast(model, warm, start))

    # ------------------------------------------------------------------
    def _solve_fast(
        self,
        model: Model,
        initial: Optional[Dict[Var, float]],
        start: float,
    ) -> Solution:
        """Fast profile: presolve, solve the reduction, lift back."""
        pres = (
            self.presolve_cache.fetch(model)
            if self.presolve_cache is not None
            else presolve(model)
        )
        if pres.status == PresolveStatus.INFEASIBLE:
            return Solution(
                SolveStatus.INFEASIBLE,
                wall_time_s=time.perf_counter() - start,
            )
        if pres.status == PresolveStatus.SOLVED:
            values = dict(pres.fixed)
            if not model.is_feasible(values):  # pragma: no cover - guard
                return Solution(
                    SolveStatus.INFEASIBLE,
                    wall_time_s=time.perf_counter() - start,
                )
            emit(
                "solver.incumbent",
                source="presolve",
                objective=pres.objective_offset,
                bound=pres.objective_offset,
                gap=0.0,
            )
            return Solution(
                SolveStatus.OPTIMAL,
                objective=pres.objective_offset,
                values=values,
                wall_time_s=time.perf_counter() - start,
                gap=0.0,
            )

        projected = (
            pres.project_values(initial) if initial is not None else None
        )
        inner = self._search(pres.model, projected, start)
        objective = inner.objective
        values = inner.values
        if inner.status.has_solution:
            objective = (
                inner.objective + pres.objective_offset
                if inner.objective is not None
                else None
            )
            values = pres.lift_values(inner.values)
        return Solution(
            inner.status,
            objective=objective,
            values=values,
            nodes_explored=inner.nodes_explored,
            lp_solves=inner.lp_solves,
            wall_time_s=time.perf_counter() - start,
            gap=inner.gap,
        )

    # ------------------------------------------------------------------
    def _search(
        self,
        model: Model,
        initial: Optional[Dict[Var, float]],
        start: float,
    ) -> Solution:
        """The branch & bound search itself (profile-parameterized)."""
        fast = self.profile == PROFILE_FAST
        c, a_ub, b_ub, a_eq, b_eq, root_bounds = model.to_arrays()
        int_indices = [v.index for v in model.variables if v.is_integral]
        sign = -1.0 if model.maximize_objective else 1.0

        lbs = np.array([b[0] for b in root_bounds])
        ubs = np.array([b[1] for b in root_bounds])
        int_mask = np.zeros(len(root_bounds), dtype=bool)
        int_mask[int_indices] = True
        feasible = point_checker(lbs, ubs, int_mask, a_ub, b_ub, a_eq, b_eq)

        lp_solves = 0
        nodes_explored = 0
        incumbent: Optional[np.ndarray] = None
        incumbent_obj = math.inf  # in minimize space
        last_gap: Optional[float] = None

        def emit_incumbent(
            source: str,
            obj: float,
            bound: Optional[float],
            **extra: object,
        ) -> None:
            """Report an improved incumbent; gaps are clamped monotone
            (the proven gap only shrinks — a relative-gap bounce from
            the shrinking denominator is a normalization artifact, not
            a loosened proof)."""
            nonlocal last_gap
            gap = (
                relative_gap(obj, bound)
                if bound is not None
                else None
            )
            if gap is not None:
                if last_gap is not None:
                    gap = min(gap, last_gap)
                last_gap = gap
            emit(
                "solver.incumbent",
                source=source,
                objective=sign * obj,
                bound=sign * bound if bound is not None else None,
                gap=gap,
                **extra,
            )

        if initial is not None:
            candidate = warm_start_point(model, initial)
            if feasible(candidate):
                incumbent = candidate
                incumbent_obj = float(c @ candidate)
                emit_incumbent("warm_start", incumbent_obj, None)

        def lp(bounds: List[Tuple[float, float]]):
            nonlocal lp_solves
            lp_solves += 1
            emit("solver.lp")
            return linprog(
                c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=bounds,
                method="highs",
            )

        root = lp(root_bounds)
        if root.status == 2:
            return Solution(
                SolveStatus.INFEASIBLE,
                lp_solves=lp_solves,
                wall_time_s=time.perf_counter() - start,
            )
        if root.status == 3:
            return Solution(
                SolveStatus.UNBOUNDED,
                lp_solves=lp_solves,
                wall_time_s=time.perf_counter() - start,
            )
        if root.status != 0:  # pragma: no cover - numerical trouble
            raise RuntimeError(f"LP solver failed: {root.message}")

        deadline = start + self.time_limit_s

        # Root dive: fix near-integral variables one at a time to seed
        # an incumbent early — essential for models whose LP relaxation
        # is weak (e.g. min-switch-count objectives).
        dive = _heuristics.bounded_dive(
            lp,
            root.x,
            root_bounds,
            int_indices,
            feasible,
            c,
            deadline,
            telemetry=fast,
            sign=sign,
        )
        if dive is not None and dive[1] < incumbent_obj:
            incumbent, incumbent_obj = dive
            emit_incumbent(
                "heuristic" if fast else "root_dive",
                incumbent_obj,
                root.fun,
                **({"heuristic": "diving"} if fast else {}),
            )

        tie = itertools.count()
        heap: List[_Node] = [_Node(root.fun, next(tie), root_bounds)]
        # Cache the root LP solution so the first pop skips a re-solve.
        cached: Dict[int, Tuple[np.ndarray, float]] = {
            id(root_bounds): (root.x, root.fun)
        }

        pseudo = _PseudoCosts(len(root_bounds)) if fast else None
        best_bound = root.fun
        timed_out = False

        while heap:
            if time.perf_counter() - start > self.time_limit_s:
                timed_out = True
                break
            if nodes_explored >= self.node_limit:
                timed_out = True
                break
            node = heapq.heappop(heap)
            if node.bound >= incumbent_obj - _OBJ_TOL:
                # Pruned: cannot improve the incumbent.
                emit("solver.prune", where="pop", bound=sign * node.bound)
                continue
            best_bound = min(node.bound, incumbent_obj)

            hit = cached.pop(id(node.var_bounds), None)
            if hit is not None:
                x, obj = hit
            else:
                res = lp(node.var_bounds)
                if res.status != 0:
                    # Infeasible/unbounded subproblem.
                    emit("solver.prune", where="node_infeasible")
                    continue
                x, obj = res.x, res.fun
            nodes_explored += 1
            emit("solver.node", bound=sign * obj)
            if obj >= incumbent_obj - _OBJ_TOL:
                emit("solver.prune", where="node_bound", bound=sign * obj)
                continue

            frac_var = self._select_branch_var(x, int_indices, pseudo)
            if frac_var is None:
                # Integral LP optimum: new incumbent.
                incumbent = x.copy()
                incumbent_obj = obj
                emit_incumbent("node", incumbent_obj, best_bound)
                continue

            # Periodic dive while no incumbent exists: weak relaxations
            # can otherwise branch for the whole budget without ever
            # reaching an integral vertex.
            if incumbent is None and nodes_explored % 50 == 1:
                dived = _heuristics.bounded_dive(
                    lp,
                    x,
                    node.var_bounds,
                    int_indices,
                    feasible,
                    c,
                    deadline,
                    telemetry=fast,
                    sign=sign,
                )
                if dived is not None:
                    incumbent, incumbent_obj = dived
                    emit_incumbent(
                        "heuristic" if fast else "dive",
                        incumbent_obj,
                        best_bound,
                        **({"heuristic": "diving"} if fast else {}),
                    )

            # Rounding heuristic: snap integral vars, re-check.
            rounded = _heuristics.round_to_feasible(
                x, int_indices, feasible, c, telemetry=fast, sign=sign
            )
            if rounded is not None:
                r_obj = float(c @ rounded)
                if r_obj < incumbent_obj - _OBJ_TOL:
                    incumbent = rounded
                    incumbent_obj = r_obj
                    emit_incumbent(
                        "heuristic" if fast else "rounding",
                        incumbent_obj,
                        best_bound,
                        **({"heuristic": "rounding"} if fast else {}),
                    )

            value = x[frac_var]
            frac = value - math.floor(value)
            for child_up, (lo, hi) in (
                (False, (node.var_bounds[frac_var][0], math.floor(value))),
                (True, (math.ceil(value), node.var_bounds[frac_var][1])),
            ):
                if lo > hi:
                    continue
                child_bounds = list(node.var_bounds)
                child_bounds[frac_var] = (float(lo), float(hi))
                res = lp(child_bounds)
                if res.status != 0:
                    emit("solver.prune", where="child_infeasible")
                    continue
                if pseudo is not None:
                    width = (1.0 - frac) if child_up else frac
                    if width > _INT_TOL:
                        pseudo.update(
                            frac_var,
                            child_up,
                            (res.fun - obj) / width,
                        )
                if res.fun >= incumbent_obj - _OBJ_TOL:
                    emit(
                        "solver.prune",
                        where="child_bound",
                        bound=sign * res.fun,
                    )
                    continue
                child = _Node(res.fun, next(tie), child_bounds)
                cached[id(child_bounds)] = (res.x, res.fun)
                heapq.heappush(heap, child)

        wall = time.perf_counter() - start
        if incumbent is None:
            status = (
                SolveStatus.TIME_LIMIT if timed_out else SolveStatus.INFEASIBLE
            )
            return Solution(
                status,
                nodes_explored=nodes_explored,
                lp_solves=lp_solves,
                wall_time_s=wall,
            )

        values = {
            var: (
                float(round(incumbent[var.index]))
                if var.is_integral
                else float(incumbent[var.index])
            )
            for var in model.variables
        }
        status = (
            SolveStatus.FEASIBLE
            if timed_out and heap
            else SolveStatus.OPTIMAL
        )
        # Gap invariant: an exhausted search proved optimality, so the
        # gap is exactly 0.0 (never None) on OPTIMAL; a truncated
        # search reports the true incumbent-vs-bound gap (clamped by
        # the emitted trajectory, which is itself a valid proven gap),
        # a finite float whenever an incumbent exists (the root LP
        # bound is finite).
        if status is SolveStatus.OPTIMAL:
            gap = 0.0
        else:
            gap = relative_gap(incumbent_obj, best_bound)
            if gap is not None and last_gap is not None:
                gap = min(gap, last_gap)
        return Solution(
            status,
            objective=sign * incumbent_obj,
            values=values,
            nodes_explored=nodes_explored,
            lp_solves=lp_solves,
            wall_time_s=wall,
            gap=gap,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _finish(solution: Solution) -> Solution:
        """Emit the terminal ``solver.done`` event and pass through."""
        emit("solver.done", **solution.summary())
        return solution

    # ------------------------------------------------------------------
    def _select_branch_var(
        self,
        x: np.ndarray,
        int_indices: List[int],
        pseudo: Optional[_PseudoCosts],
    ) -> Optional[int]:
        """Pick the branching variable, or None if ``x`` is integral.

        Classic profile: the most fractional variable.  Fast profile:
        reliability branching — most-fractional among variables not yet
        observed in both directions (initializing their statistics),
        then the best product score of up/down pseudo-costs once every
        fractional candidate is reliable.  Each fast-profile decision
        emits one ``solver.branching`` event.
        """
        if pseudo is None:
            return self._most_fractional(x, int_indices)
        # Reliability rule: while any fractional variable still lacks
        # observations in either direction, branch most-fractional
        # among the unreliable ones — the branching itself gathers the
        # missing statistics.  Trusting a half-empty pseudo-cost table
        # (average-initialized) measurably degrades assignment-style
        # models, where early observations mislead the product score.
        unreliable_idx: Optional[int] = None
        unreliable_dist = _INT_TOL
        best_idx: Optional[int] = None
        best_key: Optional[Tuple[float, float]] = None
        for idx in int_indices:
            frac = x[idx] - math.floor(x[idx])
            dist = abs(x[idx] - round(x[idx]))
            if dist <= _INT_TOL:
                continue
            if not pseudo.reliable(idx):
                if dist > unreliable_dist:
                    unreliable_dist = dist
                    unreliable_idx = idx
                continue
            key = (pseudo.score(idx, frac), dist)
            if best_key is None or key > best_key:
                best_key = key
                best_idx = idx
        if unreliable_idx is not None:
            emit(
                "solver.branching",
                rule="most_fractional",
                var=unreliable_idx,
                frac=unreliable_dist,
            )
            return unreliable_idx
        if best_idx is not None:
            emit(
                "solver.branching",
                rule="pseudo_cost",
                var=best_idx,
                frac=abs(x[best_idx] - round(x[best_idx])),
                score=best_key[0],
            )
        return best_idx

    @staticmethod
    def _most_fractional(
        x: np.ndarray, int_indices: List[int]
    ) -> Optional[int]:
        """The integral variable farthest from an integer, or None."""
        best_idx: Optional[int] = None
        best_dist = _INT_TOL
        for idx in int_indices:
            dist = abs(x[idx] - round(x[idx]))
            if dist > best_dist:
                best_dist = dist
                best_idx = idx
        return best_idx


def solve(
    model: Model,
    time_limit_s: float = 300.0,
    profile: str = DEFAULT_PROFILE,
) -> Solution:
    """Convenience wrapper: solve ``model`` with default settings."""
    return BranchBoundSolver(
        time_limit_s=time_limit_s, profile=profile
    ).solve(model)
