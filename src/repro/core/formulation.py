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
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.heuristic import GreedyHeuristic
from repro.core.stages import StageAssignmentError, assign_stages
from repro.milp.expr import LinExpr
from repro.milp.model import Model, Sense, Var
from repro.milp.branch_bound import BranchBoundSolver
from repro.milp.highs import HighsSolver
from repro.milp.solution import Solution, SolveStatus
from repro.network.paths import Path, PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
    route_all_pairs,
)
from repro.tdg.graph import Tdg

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

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


#: The zero right-hand side :meth:`Model.add_constr` stores for a row
#: written without a constant (``occ >= L``): minus the expression's
#: constant 0.0, which is -0.0.  The blocks below use it, so they export
#: the same bytes as rows added one expression at a time.
_ZERO_RHS = -0.0


@dataclass
class _ModelHandles:
    """Variables the decoder needs after solving."""

    model: Model
    placement: Dict[Tuple[str, str], Var]  # (mat, switch) -> L
    occupied: Dict[str, Var]
    a_max: Optional[Var]
    path_choice: Dict[Tuple[str, str, int], Var]
    candidates: List[str]
    products: Dict[Tuple[str, str, str, str], Var] = None  # z linearizations


def _entries(*terms) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """COO ``(rows, cols, coefs)`` of a row block, from its terms.

    Each term is a ``(rows, cols, coefs)`` triple whose parts broadcast
    to one shape, giving one entry per element.
    """
    import numpy as np

    shapes = [np.broadcast(*term).shape for term in terms]
    total = sum(math.prod(shape) for shape in shapes)
    out = (
        np.empty(total, dtype=int),
        np.empty(total, dtype=int),
        np.empty(total),
    )
    start = 0
    for term, shape in zip(terms, shapes):
        end = start + math.prod(shape)
        for array, part in zip(out, term):
            array[start:end].reshape(shape)[...] = part
        start = end
    return out


def _mat_columns(edges, mat_index, col_l, pair_u, pair_v):
    """``L(a, u)`` and ``L(b, v)`` columns per edge ``(a, b)`` (rows)
    and ordered candidate pair ``(u, v)`` (columns)."""
    import numpy as np

    up = np.array([mat_index[e.upstream] for e in edges], dtype=int)
    down = np.array([mat_index[e.downstream] for e in edges], dtype=int)
    return col_l[up[:, None], pair_u], col_l[down[:, None], pair_v]


def _capacity_terms(tdg, network, mats, cand, col_l):
    """The ``sum_a demand(a) * L(a, u)`` term of one row per candidate
    ``u``, and each candidate's capacity."""
    import numpy as np

    demand = np.array(
        [tdg.node(a).resource_demand for a in mats], dtype=float
    )
    capacity = np.array(
        [network.switch(u).total_capacity for u in cand], dtype=float
    )
    return (np.arange(len(cand)), col_l, demand[:, None]), capacity


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
        time_limit_s: Wall-clock budget of one :meth:`deploy`, shared
            by its solves.
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
        """Emit P#1 over the candidate switches, one block per family.

        Columns, in order: ``L(a, u)`` MAT-major, ``occ(u)``, the ``z``
        products (metadata edges first; edge-major over the ordered
        candidate pairs), the columns of :meth:`_explicit_paths`, and
        ``A_max``.  Rows follow in the order of the comments below.
        """
        import numpy as np

        cand = list(
            candidates
            if candidates is not None
            else select_candidates(
                tdg, network, paths, self.max_candidates, self.epsilon2
            )
        )
        model = Model("P1")
        mats = tdg.node_names
        mat_index = {a: i for i, a in enumerate(mats)}

        keys = [(a, u) for a in mats for u in cand]
        placement = dict(
            zip(keys, model.add_binaries([f"L[{a},{u}]" for a, u in keys]))
        )
        col_l = np.arange(len(keys)).reshape(len(mats), len(cand))

        # Node deployment (Eq. 6, tightened to exactly-one).
        model.add_rows(
            Sense.EQ,
            *_entries((np.arange(len(mats))[:, None], col_l, 1.0)),
            np.ones(len(mats)),
            names=[f"place[{a}]" for a in mats],
        )

        # Aggregate switch resource limitation (Eq. 9 at switch level),
        # each switch's optional MAT cap right after its capacity row.
        load, capacity = _capacity_terms(tdg, network, mats, cand, col_l)
        if self.max_mats_per_switch is None:
            model.add_rows(
                Sense.LE,
                *_entries(load),
                capacity,
                names=[f"cap[{u}]" for u in cand],
            )
        else:
            switch, _cols, demand = load
            cap = float(self.max_mats_per_switch)
            model.add_rows(
                Sense.LE,
                *_entries(
                    (2 * switch, col_l, demand), (2 * switch + 1, col_l, 1.0)
                ),
                np.column_stack([capacity, np.full(len(cand), cap)]).ravel(),
                names=[n for u in cand for n in (f"cap[{u}]", f"mats[{u}]")],
            )

        # Occupied-switch indicators, occ(u) >= L(a, u) switch-major,
        # and their bound (Eq. 5).
        col_occ = model.num_vars + np.arange(len(cand))
        occupied = dict(
            zip(cand, model.add_binaries([f"occ[{u}]" for u in cand]))
        )
        occ_row = np.arange(col_l.size).reshape(len(cand), len(mats)).T
        model.add_rows(
            Sense.GE,
            *_entries((occ_row, col_occ, 1.0), (occ_row, col_l, -1.0)),
            np.full(occ_row.size, _ZERO_RHS),
        )
        if self.epsilon2 is not None:
            model.add_rows(
                Sense.LE,
                *_entries((0, col_occ, 1.0)),
                [float(self.epsilon2)],
                names=["eps2"],
            )

        # Cross-placement products z(a, b, u, v) >= L(a, u) + L(b, v) - 1
        # per metadata edge and ordered candidate pair; the latency terms
        # without explicit paths need them on every other edge too.
        meta_edges = [e for e in tdg.edges if e.metadata_bytes > 0]
        need_latency = (
            self.objective == OBJECTIVE_LATENCY
            or not math.isinf(self.epsilon1)
        )
        pairs = [(u, v) for u in cand for v in cand if u != v]
        pair_u, pair_v = np.nonzero(~np.eye(len(cand), dtype=bool))
        z_edges = list(meta_edges)
        if need_latency and not self.explicit_paths:
            z_edges += [e for e in tdg.edges if e.metadata_bytes <= 0]
        z_keys = [
            (e.upstream, e.downstream) + uv for e in z_edges for uv in pairs
        ]
        tails = [f"{u},{v}]" for u, v in pairs]
        z_names = [
            f"z[{e.upstream},{e.downstream}," + tail
            for e in z_edges
            for tail in tails
        ]
        col_z0 = model.num_vars
        products = dict(zip(z_keys, model.add_binaries(z_names)))
        z_row = np.arange(len(z_keys)).reshape(len(z_edges), len(pairs))
        col_z = col_z0 + z_row
        col_au, col_bv = _mat_columns(
            z_edges, mat_index, col_l, pair_u, pair_v
        )
        model.add_rows(
            Sense.GE,
            *_entries(
                (z_row, col_z, 1.0),
                (z_row, col_au, -1.0),
                (z_row, col_bv, -1.0),
            ),
            np.full(z_row.size, -1.0),
        )

        # Latency terms t_e2e and their bound (Eq. 4): each product
        # weighted by its pair's shortest-path latency, or Eq. 7's path
        # choices.
        path_choice: Dict[Tuple[str, str, int], Var] = {}
        latency_cols = latency = np.zeros(0)
        if need_latency and not self.explicit_paths:
            shortest = [paths.shortest(u, v) for u, v in pairs]
            latency_cols = col_z.ravel()
            latency = np.tile(
                [p.latency_us if p else math.inf for p in shortest],
                len(z_edges),
            )
        elif need_latency:
            latency_cols, latency = self._explicit_paths(
                model, tdg, paths, pairs,
                _mat_columns(tdg.edges, mat_index, col_l, pair_u, pair_v),
                col_z0, products, path_choice,
            )
        if len(latency_cols) and not math.isinf(self.epsilon1):
            model.add_rows(
                Sense.LE,
                *_entries((0, latency_cols, latency)),
                [self.epsilon1],
                names=["eps1"],
            )

        # A_max >= the metadata bytes each ordered pair exchanges.
        a_max: Optional[Var] = None
        if self.objective == OBJECTIVE_OVERHEAD or (meta_edges and pairs):
            a_max = model.add_var("A_max", lb=0.0)
        if meta_edges and pairs:
            pair_row = np.arange(len(pairs))
            meta_bytes = np.array(
                [float(e.metadata_bytes) for e in meta_edges]
            )
            model.add_rows(
                Sense.GE,
                *_entries(
                    (pair_row, a_max.index, 1.0),
                    (pair_row, col_z[: len(meta_edges)], -meta_bytes[:, None]),
                ),
                np.full(len(pairs), _ZERO_RHS),
                names=[f"amax[{pair}]" for pair in pairs],
            )

        if self.objective == OBJECTIVE_OVERHEAD:
            model.minimize(a_max)
        elif self.objective == OBJECTIVE_LATENCY:
            terms = zip(latency_cols.astype(int).tolist(), latency.tolist())
            model.minimize(LinExpr({model.variables[i]: c for i, c in terms}))
        else:
            model.minimize(LinExpr(dict.fromkeys(occupied.values(), 1.0)))

        return _ModelHandles(
            model=model,
            placement=placement,
            occupied=occupied,
            a_max=a_max,
            path_choice=path_choice,
            candidates=cand,
            products=products,
        )

    @staticmethod
    def _explicit_paths(
        model: Model,
        tdg: Tdg,
        paths: PathEnumerator,
        pairs: List[Tuple[str, str]],
        mat_columns: Tuple["np.ndarray", "np.ndarray"],
        col_z0: int,
        products: Dict[Tuple[str, str, str, str], Var],
        path_choice: Dict[Tuple[str, str, int], Var],
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Pair-level crossing indicators and path choice (Eq. 7).

        Each ordered pair gets the columns ``w(u, v)``, a product ``z``
        per edge without metadata, and ``y(u, v, i)`` per enumerated
        path.  Its rows, per edge in TDG order, are that product's row
        and ``w >= z``; then ``sum_i y >= w``, or ``w <= 0`` when the
        pair has no path.  ``mat_columns`` are :func:`_mat_columns` of
        the TDG's edges, and the metadata edges' products start at
        column ``col_z0``.  Fills ``products`` and ``path_choice``;
        returns the ``y`` columns and their path latencies.
        """
        import numpy as np

        edges = tdg.edges
        # "Plain" edges carry no metadata, so the block at col_z0 has no
        # products for them; each pair adds its own here.
        plain = np.array([e.metadata_bytes <= 0 for e in edges], dtype=bool)
        plain_edges = [e for e in edges if e.metadata_bytes <= 0]
        pair_paths = [paths.paths(u, v) for u, v in pairs]

        names: List[str] = []
        for (u, v), options in zip(pairs, pair_paths):
            names.append(f"w[{u},{v}]")
            names += [
                f"z[{e.upstream},{e.downstream},{u},{v}]" for e in plain_edges
            ]
            names += [f"y[{u},{v},{i}]" for i in range(len(options))]
        columns = iter(model.add_binaries(names))
        col_w = []
        for (u, v), options in zip(pairs, pair_paths):
            col_w.append(next(columns).index)
            for e in plain_edges:
                products[(e.upstream, e.downstream, u, v)] = next(columns)
            for i in range(len(options)):
                path_choice[(u, v, i)] = next(columns)
        col_w = np.array(col_w, dtype=int)
        col_y = np.array([y.index for y in path_choice.values()], dtype=int)

        # Pair-major rows: per edge, a plain edge's product row, then
        # the edge's w row; the closing row last.  A plain edge's
        # product column follows its pair's w; a metadata edge's lies in
        # the block starting at col_z0, edge-major.
        pair = np.arange(len(pairs))[:, None]
        per_pair = len(edges) + len(plain_edges) + 1
        plain_rank = np.cumsum(plain)
        w_row = pair * per_pair + np.arange(len(edges)) + plain_rank
        col_z = np.where(
            plain,
            col_w[:, None] + plain_rank,
            col_z0 + (np.cumsum(~plain) - 1) * len(pairs) + pair,
        )
        z_row = w_row[:, plain] - 1
        col_au, col_bv = (c.T[:, plain] for c in mat_columns)
        num_paths = np.array([len(p) for p in pair_paths], dtype=int)
        last_row = (pair[:, 0] + 1) * per_pair - 1
        reachable = num_paths > 0
        senses = [Sense.GE] * (len(pairs) * per_pair)
        for row in last_row[~reachable].tolist():
            senses[row] = Sense.LE
        rhs = np.full(len(senses), _ZERO_RHS)
        rhs[z_row] = -1.0
        model.add_rows(
            senses,
            *_entries(
                (z_row, col_z[:, plain], 1.0),
                (z_row, col_au, -1.0),
                (z_row, col_bv, -1.0),
                (w_row, col_w[:, None], 1.0),
                (w_row, col_z, -1.0),
                (np.repeat(last_row, num_paths), col_y, 1.0),
                (last_row, col_w, np.where(reachable, -1.0, 1.0)),
            ),
            rhs,
        )
        latency = [p.latency_us for options in pair_paths for p in options]
        return col_y, np.array(latency, dtype=float)

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
        in the model are scaled down and the model re-solved.  Its up
        to three solves share one ``time_limit_s`` budget, counted from
        entry: each solve is given what is left of it.

        Args:
            warm_start_plan: An existing feasible plan (e.g. from the
                greedy heuristic) encoded as the branch & bound's first
                incumbent, or as HiGHS's bound on the objective;
                ignored when it uses switches outside the candidate
                set, when explicit path variables are on, or when the
                model rejects its encoding (a shrunk capacity).
        """
        deadline = time.perf_counter() + self.time_limit_s
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
            remaining_s = deadline - time.perf_counter()
            if remaining_s <= 0:
                raise DeploymentError(
                    f"MILP time limit of {self.time_limit_s} s spent "
                    "before a stage-feasible deployment was found"
                    + (f": {last_error}" if last_error else "")
                )
            solver = self._solver()
            solver.time_limit_s = remaining_s
            solution = solver.solve(handles.model, initial=initial)
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
        """The solver :meth:`deploy` runs: the branch & bound.

        :meth:`deploy` overwrites its ``time_limit_s`` with what is left
        of the budget before each solve.
        """
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
        """Add capacity rows with shrunken budgets."""
        import numpy as np

        mats, cand = tdg.node_names, handles.candidates
        col_l = np.array(
            [handles.placement[(a, u)].index for a in mats for u in cand],
            dtype=int,
        ).reshape(len(mats), len(cand))
        load, capacity = _capacity_terms(tdg, network, mats, cand, col_l)
        handles.model.add_rows(
            Sense.LE,
            *_entries(load),
            capacity * shrink,
            names=[f"cap_shrunk[{u}]" for u in cand],
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

        # First-use order: a set's order would follow the hash seed.
        placements: Dict[str, MatPlacement] = {}
        for u in dict.fromkeys(switch_of.values()):
            segment = tdg.subgraph(
                [a for a, s in switch_of.items() if s == u], name=f"seg_{u}"
            )
            placements.update(assign_stages(segment, network.switch(u)))

        plan = route_all_pairs(DeploymentPlan(tdg, network, placements), paths)
        if self.explicit_paths:
            plan = plan.with_routing(
                {
                    pair: self._decode_path(handles, solution, paths, pair)
                    or path
                    for pair, path in plan.routing.items()
                }
            )
        plan.validate()
        return plan

    def _decode_path(
        self,
        handles: _ModelHandles,
        solution: Solution,
        paths: PathEnumerator,
        pair: Tuple[str, str],
    ) -> Optional[Path]:
        """The first path the ``y`` columns chose for ``pair`` (Eq. 7),
        or None; a model without latency terms has no ``y`` columns."""
        u, v = pair
        for idx, path in enumerate(paths.paths(u, v)):
            var = handles.path_choice.get((u, v, idx))
            if var is not None and solution.rounded(var) == 1:
                return path
        return None


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
