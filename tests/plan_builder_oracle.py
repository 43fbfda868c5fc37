"""The mutable plan builder, kept as the tests' reference model.

Plans used to be edited through :class:`PlanBuilder`, which maintains
the plan metrics incrementally — per-pair metadata byte totals, the
``A_max`` extremum, total coordination bytes and per-stage resource
loads — across :meth:`~PlanBuilder.place`, :meth:`~PlanBuilder.move`
and :meth:`~PlanBuilder.unplace`, each of which returns an
:class:`UndoToken`.  Every producer now constructs its
:class:`~repro.plan.artifact.DeploymentPlan` directly: refinement
probes a move's ``A_max`` from the plan's own pair bytes, a splice
places the re-homed MATs itself, and every plan is routed by
:func:`~repro.plan.artifact.first_meet_routing`.  This module is the
builder as it was, copied: the oracles of ``tests/core`` and
``tests/plan``, and through them ``benchmarks/test_bench_plan.py``,
build their reference plans with it.

The builder does **not** validate while editing — intermediate states
(a MAT parked on a switch with too few stages, an unrouted pair) are
legal scratch states.  Constraints are enforced when the artifact is
frozen via :meth:`~PlanBuilder.build`, which runs
:meth:`DeploymentPlan.validate` by default.

Import it as a plain module (``from plan_builder_oracle import ...``);
it deliberately contains no tests of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.network.paths import Path, PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentError, DeploymentPlan, MatPlacement
from repro.tdg.graph import Tdg

#: Stage loads smaller than this are treated as vacated (floating-point
#: dust left by place/unplace round trips).
_LOAD_EPS = 1e-9


@dataclass
class UndoToken:
    """Inverse of one builder mutation (LIFO list of primitive ops)."""

    ops: List[Tuple] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.ops)


class PlanBuilder:
    """Incrementally evaluated, mutable deployment-plan state.

    Args:
        tdg: The TDG being deployed.
        network: The substrate network.
        placements: Optional initial placements (applied via
            :meth:`place`, so the incremental state is exercised from
            the start).
        routing: Optional initial routing.
    """

    def __init__(
        self,
        tdg: Tdg,
        network: Network,
        placements: Optional[Mapping[str, MatPlacement]] = None,
        routing: Optional[Mapping[Tuple[str, str], Path]] = None,
    ) -> None:
        self.tdg = tdg
        self.network = network
        self._placements: Dict[str, MatPlacement] = {}
        self._routing: Dict[Tuple[str, str], Path] = dict(routing or {})
        # Incremental metric state.
        self._pair_bytes: Dict[Tuple[str, str], int] = {}
        self._pair_edges: Dict[Tuple[str, str], int] = {}
        self._total_bytes = 0
        self._stage_load: Dict[str, Dict[int, float]] = {}
        self._mats_per_switch: Dict[str, int] = {}
        self._amax = 0
        self._amax_valid = True
        for placement in (placements or {}).values():
            self.place(
                placement.mat_name, placement.switch, placement.stages
            )

    @classmethod
    def from_plan(cls, plan: DeploymentPlan) -> "PlanBuilder":
        """A builder seeded with an existing plan's state."""
        return cls(plan.tdg, plan.network, plan.placements, plan.routing)

    # ------------------------------------------------------------------
    # Mutators (each returns an UndoToken)
    # ------------------------------------------------------------------
    def place(
        self, mat_name: str, switch: str, stages: Sequence[int]
    ) -> UndoToken:
        """Place an unplaced MAT; returns the inverse operation."""
        if mat_name in self._placements:
            raise DeploymentError(
                f"MAT {mat_name!r} is already placed; use move()"
            )
        placement = MatPlacement(mat_name, switch, tuple(stages))
        self._apply_place(placement)
        return UndoToken([("unplace", mat_name)])

    def unplace(self, mat_name: str) -> UndoToken:
        """Remove a MAT's placement; returns the inverse operation."""
        placement = self._placements.get(mat_name)
        if placement is None:
            raise DeploymentError(f"MAT {mat_name!r} is not placed")
        self._apply_unplace(placement)
        return UndoToken([("place", placement)])

    def move(
        self,
        mat_name: str,
        switch: str,
        stages: Optional[Sequence[int]] = None,
    ) -> UndoToken:
        """Relocate a placed MAT (keeping its stages unless given).

        The byte metrics depend only on the hosting switch, so a move
        that keeps the old stage tuple is the cheap "what would A_max
        become" probe the refine search uses; a real relocation passes
        the target's stage layout.
        """
        old = self._placements.get(mat_name)
        if old is None:
            raise DeploymentError(f"MAT {mat_name!r} is not placed")
        new_stages = tuple(stages) if stages is not None else old.stages
        self._apply_unplace(old)
        self._apply_place(MatPlacement(mat_name, switch, new_stages))
        return UndoToken([("unplace", mat_name), ("place", old)])

    def set_route(self, pair: Tuple[str, str], path: Path) -> UndoToken:
        """Route one ordered switch pair; returns the inverse."""
        previous = self._routing.get(pair)
        self._routing[pair] = path
        if previous is None:
            return UndoToken([("clear_route", pair)])
        return UndoToken([("set_route", pair, previous)])

    def clear_route(self, pair: Tuple[str, str]) -> UndoToken:
        previous = self._routing.pop(pair, None)
        if previous is None:
            return UndoToken()
        return UndoToken([("set_route", pair, previous)])

    def undo(self, token: UndoToken) -> None:
        """Apply the inverse operations recorded in ``token``."""
        for op in token.ops:
            kind = op[0]
            if kind == "place":
                self._apply_place(op[1])
            elif kind == "unplace":
                self._apply_unplace(self._placements[op[1]])
            elif kind == "set_route":
                self._routing[op[1]] = op[2]
            elif kind == "clear_route":
                self._routing.pop(op[1], None)
            else:  # pragma: no cover - internal invariant
                raise AssertionError(f"unknown undo op {kind!r}")

    # ------------------------------------------------------------------
    # Incremental bookkeeping
    # ------------------------------------------------------------------
    def _apply_place(self, placement: MatPlacement) -> None:
        name = placement.mat_name
        mat = self.tdg.node(name)
        self._placements[name] = placement
        share = mat.resource_demand / len(placement.stages)
        loads = self._stage_load.setdefault(placement.switch, {})
        for stage in placement.stages:
            loads[stage] = loads.get(stage, 0.0) + share
        self._mats_per_switch[placement.switch] = (
            self._mats_per_switch.get(placement.switch, 0) + 1
        )
        for edge in self.tdg.out_edges(name):
            down = self._placements.get(edge.downstream)
            if down is not None:
                self._pair_add(
                    placement.switch, down.switch, edge.metadata_bytes
                )
        for edge in self.tdg.in_edges(name):
            up = self._placements.get(edge.upstream)
            if up is not None:
                self._pair_add(
                    up.switch, placement.switch, edge.metadata_bytes
                )

    def _apply_unplace(self, placement: MatPlacement) -> None:
        name = placement.mat_name
        mat = self.tdg.node(name)
        for edge in self.tdg.out_edges(name):
            down = self._placements.get(edge.downstream)
            if down is not None and edge.downstream != name:
                self._pair_remove(
                    placement.switch, down.switch, edge.metadata_bytes
                )
        for edge in self.tdg.in_edges(name):
            up = self._placements.get(edge.upstream)
            if up is not None and edge.upstream != name:
                self._pair_remove(
                    up.switch, placement.switch, edge.metadata_bytes
                )
        del self._placements[name]
        share = mat.resource_demand / len(placement.stages)
        loads = self._stage_load[placement.switch]
        for stage in placement.stages:
            remaining = loads[stage] - share
            if abs(remaining) < _LOAD_EPS:
                del loads[stage]
            else:
                loads[stage] = remaining
        count = self._mats_per_switch[placement.switch] - 1
        if count:
            self._mats_per_switch[placement.switch] = count
        else:
            del self._mats_per_switch[placement.switch]
            self._stage_load.pop(placement.switch, None)

    def _pair_add(self, u: str, v: str, metadata_bytes: int) -> None:
        if u == v:
            return
        key = (u, v)
        self._pair_edges[key] = self._pair_edges.get(key, 0) + 1
        new_total = self._pair_bytes.get(key, 0) + metadata_bytes
        self._pair_bytes[key] = new_total
        self._total_bytes += metadata_bytes
        if self._amax_valid and new_total > self._amax:
            self._amax = new_total

    def _pair_remove(self, u: str, v: str, metadata_bytes: int) -> None:
        if u == v:
            return
        key = (u, v)
        old_total = self._pair_bytes[key]
        edges_left = self._pair_edges[key] - 1
        self._total_bytes -= metadata_bytes
        if edges_left:
            self._pair_edges[key] = edges_left
            self._pair_bytes[key] = old_total - metadata_bytes
        else:
            del self._pair_edges[key]
            del self._pair_bytes[key]
        # The extremum only needs recomputing when the pair that held
        # it shrinks; growth is handled eagerly in _pair_add.
        if self._amax_valid and old_total >= self._amax:
            self._amax_valid = False

    # ------------------------------------------------------------------
    # Metrics (mirror DeploymentPlan, served from incremental state)
    # ------------------------------------------------------------------
    @property
    def placements(self) -> Dict[str, MatPlacement]:
        return dict(self._placements)

    @property
    def routing(self) -> Dict[Tuple[str, str], Path]:
        return dict(self._routing)

    def switch_of(self, mat_name: str) -> str:
        try:
            return self._placements[mat_name].switch
        except KeyError:
            raise KeyError(f"MAT {mat_name!r} is not placed") from None

    def pair_metadata_bytes(self) -> Dict[Tuple[str, str], int]:
        return dict(self._pair_bytes)

    def max_metadata_bytes(self) -> int:
        if not self._amax_valid:
            self._amax = (
                max(self._pair_bytes.values()) if self._pair_bytes else 0
            )
            self._amax_valid = True
        return self._amax

    def total_metadata_bytes(self) -> int:
        return self._total_bytes

    def occupied_switches(self) -> List[str]:
        return list(self._mats_per_switch)

    def num_occupied_switches(self) -> int:
        return len(self._mats_per_switch)

    def stage_utilization(self, switch: str) -> Dict[int, float]:
        return dict(self._stage_load.get(switch, {}))

    def communicating_pairs(self) -> Iterable[Tuple[str, str]]:
        return list(self._pair_bytes)

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------
    def route_shortest(self, paths: PathEnumerator) -> None:
        """Route every unrouted communicating pair via shortest path.

        Raises:
            DeploymentError: When a communicating pair has no path.
        """
        for pair in self._pair_bytes:
            if pair in self._routing:
                continue
            path = paths.shortest(*pair)
            if path is None:
                raise DeploymentError(
                    f"no path between communicating switches {pair}"
                )
            self._routing[pair] = path

    def prune_routes(self) -> None:
        """Drop routes for pairs that no longer exchange metadata."""
        for pair in list(self._routing):
            if pair not in self._pair_bytes:
                del self._routing[pair]

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------
    def build(self, validate: bool = True) -> DeploymentPlan:
        """Freeze the current state into an immutable plan.

        Args:
            validate: Run :meth:`DeploymentPlan.validate` on the result
                (default).  Pass ``False`` for intermediate artifacts a
                caller validates itself.
        """
        plan = DeploymentPlan(
            self.tdg,
            self.network,
            dict(self._placements),
            dict(self._routing),
        )
        if validate:
            plan.validate()
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlanBuilder({len(self._placements)}/{len(self.tdg)} MATs, "
            f"A_max={self.max_metadata_bytes()}B)"
        )
