"""Problem P#1: the MILP formulation of network-wide deployment (§V).

The formulation follows the paper with one standard transformation and
two documented practicalities:

* **Linearization** — the paper's objective (1) multiplies placement
  variables (``x(a,i,u) * x(b,j,v)``).  We introduce, per metadata edge
  ``(a, b)`` and ordered switch pair ``(u, v)``, a binary ``z`` with
  ``z >= L(a,u) + L(b,v) - 1`` — the textbook product linearization.
  The per-pair overhead sum then lower-bounds the ``A_max`` variable
  being minimized (Obj#1).
* **Switch-level placement, stage-level decode** — the global model
  decides ``L(a, u)`` (which switch); the per-switch stage layout
  ``x(a, i, u)`` is recovered afterwards by the exact list scheduler in
  :mod:`repro.core.stages`, with a shrink-and-resolve repair loop when
  a switch's aggregate capacity admits no stage layout.  This keeps the
  model polynomial in switches instead of switches x stages.
* **Candidate pruning** — the decision variables grow with the square
  of candidate switches; ``max_candidates`` bounds the candidate set
  (closest programmable switches around the best-connected hub, always
  enough to hold the total resource demand).  Large instances still hit
  the solver's time limit, reproducing the paper's Exp#3 finding that
  ILP-based frameworks need hours at scale.

Routing uses explicit path-choice variables ``y(u, v, p)`` over the
``k`` shortest paths when ``explicit_paths`` is set (Eq. 7); otherwise
each communicating pair is routed on its shortest path at decode time,
which is always optimal for the latency term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.heuristic import GreedyHeuristic
from repro.core.stages import StageAssignmentError, assign_stages
from repro.milp.expr import LinExpr
from repro.milp.model import Model, Var
from repro.milp.branch_bound import BranchBoundSolver
from repro.milp.highs import HighsSolver
from repro.milp.solution import Solution, SolveStatus
from repro.network.paths import Path, PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentError, DeploymentPlan, MatPlacement
from repro.tdg.graph import Tdg

#: Objectives selectable as the primary objective (the other two become
#: epsilon-constraints per §V-B).
OBJECTIVE_OVERHEAD = "overhead"
OBJECTIVE_LATENCY = "latency"
OBJECTIVE_SWITCHES = "switches"
_OBJECTIVES = (OBJECTIVE_OVERHEAD, OBJECTIVE_LATENCY, OBJECTIVE_SWITCHES)


def select_candidates(
    tdg: Tdg,
    network: Network,
    paths: PathEnumerator,
    max_candidates: Optional[int] = None,
    epsilon2: Optional[int] = None,
) -> List[str]:
    """Pick the programmable switches the model may place MATs on.

    A hub switch is chosen to minimize the summed shortest-path latency
    to other programmable switches; candidates are the hub plus its
    closest programmable peers.  The set is grown until its aggregate
    pipeline capacity covers the TDG's total demand, then capped by
    ``max_candidates`` / ``epsilon2``.
    """
    programmable = network.programmable_names()
    if not programmable:
        raise DeploymentError("network has no programmable switches")

    def closeness(u: str) -> float:
        total = 0.0
        for v in programmable:
            if v == u:
                continue
            path = paths.shortest(u, v)
            total += path.latency_us if path else math.inf
        return total

    hub = min(programmable, key=closeness)
    ranked = [hub] + sorted(
        (v for v in programmable if v != hub),
        key=lambda v: (
            paths.shortest(hub, v).latency_us
            if paths.shortest(hub, v)
            else math.inf
        ),
    )
    # Drop unreachable switches.
    ranked = [
        v
        for v in ranked
        if v == hub or paths.shortest(hub, v) is not None
    ]

    demand = tdg.total_resource_demand()
    limit = len(ranked)
    if epsilon2 is not None:
        limit = min(limit, epsilon2)
    if max_candidates is not None:
        limit = min(limit, max_candidates)

    chosen: List[str] = []
    capacity = 0.0
    for name in ranked:
        chosen.append(name)
        capacity += network.switch(name).total_capacity
        if len(chosen) >= limit and capacity >= demand:
            break
    if capacity < demand:
        raise DeploymentError(
            f"candidate switches provide {capacity:.1f} stage units but "
            f"the merged TDG needs {demand:.1f}"
        )
    return chosen


@dataclass
class _ModelHandles:
    """Variables the decoder needs after solving."""

    model: Model
    placement: Dict[Tuple[str, str], Var]  # (mat, switch) -> L
    occupied: Dict[str, Var]
    a_max: Optional[Var]
    t_e2e: Optional[LinExpr]
    path_choice: Dict[Tuple[str, str, int], Var]
    candidates: List[str]
    products: Dict[Tuple[str, str, str, str], Var] = None  # z linearizations


class MilpFormulation:
    """Builds and solves P#1 (or a baseline variant of it).

    Args:
        objective: Which of the three §V-B objectives is minimized;
            the other two are enforced only through their epsilon
            bounds.
        epsilon1: Upper bound on ``t_e2e`` in microseconds
            (``math.inf`` disables, matching the paper's evaluation
            setting of loose bounds).
        epsilon2: Upper bound on occupied programmable switches.
        max_candidates: Cap on candidate switches (see module docs).
        explicit_paths: Model ``y(u, v, p)`` path choices over the
            enumerator's k shortest paths instead of decoding shortest
            paths afterwards.
        time_limit_s: Solver wall-clock budget.
        max_mats_per_switch: Optional per-switch MAT-count cap (used by
            the MTP baseline to spread control-plane load).
    """

    def __init__(
        self,
        objective: str = OBJECTIVE_OVERHEAD,
        epsilon1: float = math.inf,
        epsilon2: Optional[int] = None,
        max_candidates: Optional[int] = 8,
        explicit_paths: bool = False,
        time_limit_s: float = 60.0,
        max_mats_per_switch: Optional[int] = None,
    ) -> None:
        if objective not in _OBJECTIVES:
            raise ValueError(
                f"objective must be one of {_OBJECTIVES}, got {objective!r}"
            )
        if epsilon1 <= 0:
            raise ValueError("epsilon1 must be positive")
        if epsilon2 is not None and epsilon2 <= 0:
            raise ValueError("epsilon2 must be positive")
        self.objective = objective
        self.epsilon1 = epsilon1
        self.epsilon2 = epsilon2
        self.max_candidates = max_candidates
        self.explicit_paths = explicit_paths
        self.time_limit_s = time_limit_s
        self.max_mats_per_switch = max_mats_per_switch
        #: Solver outcome of the most recent :meth:`deploy` call;
        #: experiments read it to distinguish proven-optimal runs from
        #: time-limited incumbents.
        self.last_solution: Optional[Solution] = None

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def build(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
        candidates: Optional[Sequence[str]] = None,
    ) -> _ModelHandles:
        cand = list(
            candidates
            if candidates is not None
            else select_candidates(
                tdg, network, paths, self.max_candidates, self.epsilon2
            )
        )
        model = Model("P1")
        mats = tdg.node_names

        placement: Dict[Tuple[str, str], Var] = {}
        for a in mats:
            for u in cand:
                placement[(a, u)] = model.add_binary(f"L[{a},{u}]")

        # Node deployment (Eq. 6, tightened to exactly-one).
        for a in mats:
            model.add_constr(
                LinExpr.total(placement[(a, u)] for u in cand) == 1,
                name=f"place[{a}]",
            )

        # Aggregate switch resource limitation (Eq. 9 at switch level).
        for u in cand:
            switch = network.switch(u)
            load = LinExpr.total(
                placement[(a, u)] * tdg.node(a).resource_demand for a in mats
            )
            model.add_constr(load <= switch.total_capacity, name=f"cap[{u}]")
            if self.max_mats_per_switch is not None:
                count = LinExpr.total(placement[(a, u)] for a in mats)
                model.add_constr(
                    count <= self.max_mats_per_switch, name=f"mats[{u}]"
                )

        # Occupied-switch indicators and bound (Eq. 5).
        occupied: Dict[str, Var] = {}
        for u in cand:
            occ = model.add_binary(f"occ[{u}]")
            occupied[u] = occ
            for a in mats:
                model.add_constr(occ >= placement[(a, u)])
        q_occ = LinExpr.total(occupied.values())
        if self.epsilon2 is not None:
            model.add_constr(q_occ <= self.epsilon2, name="eps2")

        # Cross-placement products per metadata edge and switch pair.
        meta_edges = [e for e in tdg.edges if e.metadata_bytes > 0]
        need_latency = (
            self.objective == OBJECTIVE_LATENCY
            or not math.isinf(self.epsilon1)
        )
        latency_edges = tdg.edges if need_latency else meta_edges

        pair_terms: Dict[Tuple[str, str], List[LinExpr]] = {}
        latency_terms: List[LinExpr] = []
        z_cache: Dict[Tuple[str, str, str, str], Var] = {}

        def product(a: str, b: str, u: str, v: str) -> Var:
            key = (a, b, u, v)
            var = z_cache.get(key)
            if var is None:
                var = model.add_binary(f"z[{a},{b},{u},{v}]")
                model.add_constr(
                    var >= placement[(a, u)] + placement[(b, v)] - 1
                )
                z_cache[key] = var
            return var

        for edge in meta_edges:
            for u in cand:
                for v in cand:
                    if u == v:
                        continue
                    z = product(edge.upstream, edge.downstream, u, v)
                    pair_terms.setdefault((u, v), []).append(
                        LinExpr.from_term(z, float(edge.metadata_bytes))
                    )

        shortest_latency: Dict[Tuple[str, str], float] = {}
        for u in cand:
            for v in cand:
                if u == v:
                    continue
                path = paths.shortest(u, v)
                shortest_latency[(u, v)] = (
                    path.latency_us if path else math.inf
                )

        path_choice: Dict[Tuple[str, str, int], Var] = {}
        if need_latency and not self.explicit_paths:
            for edge in latency_edges:
                for u in cand:
                    for v in cand:
                        if u == v:
                            continue
                        z = product(edge.upstream, edge.downstream, u, v)
                        latency_terms.append(
                            LinExpr.from_term(z, shortest_latency[(u, v)])
                        )
        elif need_latency and self.explicit_paths:
            # Pair-level crossing indicators and path choice (Eq. 7).
            for u in cand:
                for v in cand:
                    if u == v:
                        continue
                    crossing = model.add_binary(f"w[{u},{v}]")
                    for edge in latency_edges:
                        z = product(edge.upstream, edge.downstream, u, v)
                        model.add_constr(crossing >= z)
                    pair_paths = paths.paths(u, v)
                    if not pair_paths:
                        # Unreachable pair: forbid any crossing.
                        model.add_constr(crossing <= 0)
                        continue
                    choices = []
                    for idx, path in enumerate(pair_paths):
                        y = model.add_binary(f"y[{u},{v},{idx}]")
                        path_choice[(u, v, idx)] = y
                        choices.append(y)
                        latency_terms.append(
                            LinExpr.from_term(y, path.latency_us)
                        )
                    model.add_constr(
                        LinExpr.total(choices) >= LinExpr.from_term(crossing)
                    )

        t_e2e = LinExpr.total(latency_terms) if latency_terms else None
        if t_e2e is not None and not math.isinf(self.epsilon1):
            model.add_constr(t_e2e <= self.epsilon1, name="eps1")

        a_max: Optional[Var] = None
        if self.objective == OBJECTIVE_OVERHEAD or pair_terms:
            a_max = model.add_var("A_max", lb=0.0)
            for pair, terms in pair_terms.items():
                model.add_constr(
                    a_max >= LinExpr.total(terms), name=f"amax[{pair}]"
                )

        if self.objective == OBJECTIVE_OVERHEAD:
            model.minimize(a_max if a_max is not None else LinExpr())
        elif self.objective == OBJECTIVE_LATENCY:
            model.minimize(t_e2e if t_e2e is not None else LinExpr())
        else:
            model.minimize(q_occ)

        return _ModelHandles(
            model=model,
            placement=placement,
            occupied=occupied,
            a_max=a_max,
            t_e2e=t_e2e,
            path_choice=path_choice,
            candidates=cand,
            products=z_cache,
        )

    # ------------------------------------------------------------------
    # Solve + decode
    # ------------------------------------------------------------------
    def deploy(
        self,
        tdg: Tdg,
        network: Network,
        paths: Optional[PathEnumerator] = None,
        candidates: Optional[Sequence[str]] = None,
        warm_start_plan: Optional[DeploymentPlan] = None,
    ) -> DeploymentPlan:
        """Solve P#1 and decode the solution into a validated plan.

        A shrink-and-resolve loop handles the (rare) case where the
        switch-level capacity admitted no per-stage layout: capacities
        in the model are scaled down and the model re-solved.

        Args:
            warm_start_plan: An existing feasible plan (e.g. from the
                greedy heuristic) encoded as the branch & bound's first
                incumbent, or as HiGHS's bound on the objective;
                ignored when it uses switches outside the candidate
                set, when explicit path variables are on, or when the
                model rejects its encoding (a shrunk capacity).
        """
        paths = paths or PathEnumerator(network)
        shrink = 1.0
        last_error: Optional[Exception] = None
        for _attempt in range(3):
            handles = self.build(tdg, network, paths, candidates)
            if shrink < 1.0:
                self._tighten_capacity(handles, tdg, network, shrink)
            initial = (
                self.encode_plan(handles, warm_start_plan)
                if warm_start_plan is not None
                else None
            )
            solution = self._solver().solve(handles.model, initial=initial)
            self.last_solution = solution
            if not solution.status.has_solution:
                raise DeploymentError(
                    f"MILP solve failed: {solution.status.value}"
                )
            try:
                return self._decode(handles, solution, tdg, network, paths)
            except StageAssignmentError as exc:
                last_error = exc
                shrink *= 0.85
        raise DeploymentError(
            f"no stage-feasible MILP deployment found: {last_error}"
        )

    def _solver(self):
        """The solver :meth:`deploy` runs: the branch & bound."""
        return BranchBoundSolver(time_limit_s=self.time_limit_s)

    def encode_plan(
        self,
        handles: _ModelHandles,
        plan: DeploymentPlan,
    ) -> Optional[Dict[Var, float]]:
        """Encode a plan as a variable assignment for warm starting.

        Returns None when the plan cannot be expressed in this model
        (switches outside the candidate set, or explicit path-choice
        variables, whose consistent assignment is not worth deriving).
        """
        if self.explicit_paths:
            return None
        cand = set(handles.candidates)
        hosts = {
            name: placement.switch
            for name, placement in plan.placements.items()
        }
        if any(switch not in cand for switch in hosts.values()):
            return None

        values: Dict[Var, float] = {}
        for (a, u), var in handles.placement.items():
            values[var] = 1.0 if hosts.get(a) == u else 0.0
        occupied = set(hosts.values())
        for u, var in handles.occupied.items():
            values[var] = 1.0 if u in occupied else 0.0
        for (a, b, u, v), var in (handles.products or {}).items():
            values[var] = (
                1.0 if hosts.get(a) == u and hosts.get(b) == v else 0.0
            )
        if handles.a_max is not None:
            values[handles.a_max] = float(plan.max_metadata_bytes())
        return values

    def _tighten_capacity(
        self,
        handles: _ModelHandles,
        tdg: Tdg,
        network: Network,
        shrink: float,
    ) -> None:
        """Rebuild the capacity rows with shrunken budgets."""
        model = handles.model
        mats = tdg.node_names
        for u in handles.candidates:
            switch = network.switch(u)
            load = LinExpr.total(
                handles.placement[(a, u)] * tdg.node(a).resource_demand
                for a in mats
            )
            model.add_constr(
                load <= switch.total_capacity * shrink,
                name=f"cap_shrunk[{u}]",
            )

    def _decode(
        self,
        handles: _ModelHandles,
        solution: Solution,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
    ) -> DeploymentPlan:
        switch_of: Dict[str, str] = {}
        for (a, u), var in handles.placement.items():
            if solution.rounded(var) == 1:
                switch_of[a] = u
        missing = set(tdg.node_names) - set(switch_of)
        if missing:
            raise DeploymentError(f"solver left MATs unplaced: {missing}")

        placements: Dict[str, MatPlacement] = {}
        for u in set(switch_of.values()):
            segment = tdg.subgraph(
                [a for a, s in switch_of.items() if s == u], name=f"seg_{u}"
            )
            placements.update(assign_stages(segment, network.switch(u)))

        plan = DeploymentPlan(tdg, network, placements)
        routing: Dict[Tuple[str, str], Path] = {}
        for pair in plan.pair_metadata_bytes():
            chosen = self._decode_path(handles, solution, paths, pair)
            if chosen is None:
                raise DeploymentError(
                    f"no path between communicating switches {pair}"
                )
            routing[pair] = chosen
        plan = plan.with_routing(routing)
        plan.validate()
        return plan

    def _decode_path(
        self,
        handles: _ModelHandles,
        solution: Solution,
        paths: PathEnumerator,
        pair: Tuple[str, str],
    ) -> Optional[Path]:
        u, v = pair
        if self.explicit_paths:
            pair_paths = paths.paths(u, v)
            for idx, _path in enumerate(pair_paths):
                var = handles.path_choice.get((u, v, idx))
                if var is not None and solution.rounded(var) == 1:
                    return pair_paths[idx]
        return paths.shortest(u, v)


class HermesMilp(MilpFormulation):
    """The paper's "Optimal" configuration: P#1 solved exactly.

    :class:`MilpFormulation` with the overhead objective, solved by
    HiGHS's branch-and-cut (:class:`~repro.milp.highs.HighsSolver`)
    standing in for the paper's Gurobi.
    """

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("objective", OBJECTIVE_OVERHEAD)
        super().__init__(**kwargs)

    def _solver(self):
        return HighsSolver(time_limit_s=self.time_limit_s)

    def deploy_seeded(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
    ) -> Tuple[DeploymentPlan, bool]:
        """Solve P#1 seeded with the greedy plan, the way a
        practitioner warm-starts Gurobi.

        Algorithm 2 runs first under the same epsilon bounds.  Its plan
        is the solve's warm start, which HiGHS turns into an upper
        bound on ``A_max``.  The result is never worse than the greedy
        plan: when the solve fails, or stops on its time limit at a
        worse incumbent, the greedy plan is returned.

        Returns:
            ``(plan, timed_out)``; ``timed_out`` is True when the solve
            stopped on its limit or failed and the greedy plan stood in.
        """
        heuristic = GreedyHeuristic(
            epsilon1=self.epsilon1, epsilon2=self.epsilon2
        )
        try:
            greedy_plan = heuristic.deploy(tdg, network, paths)
        except DeploymentError:
            greedy_plan = None
        try:
            plan = self.deploy(
                tdg, network, paths, warm_start_plan=greedy_plan
            )
        except DeploymentError:
            if greedy_plan is None:
                raise
            # No better incumbent within the budget: the best-known
            # solution is the heuristic's.
            return greedy_plan, True
        solution = self.last_solution
        timed_out = bool(
            solution is not None
            and solution.status
            in (SolveStatus.FEASIBLE, SolveStatus.TIME_LIMIT)
        )
        if timed_out and greedy_plan is not None:
            # A time-limited incumbent is not necessarily better than
            # the greedy answer; report whichever has lower overhead.
            if (
                greedy_plan.max_metadata_bytes()
                < plan.max_metadata_bytes()
            ):
                return greedy_plan, timed_out
        return plan, timed_out
