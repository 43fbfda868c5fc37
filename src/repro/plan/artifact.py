"""The deployment-plan artifact.

A :class:`DeploymentPlan` captures both sets of decision variables from
§V-A — ``x(a, i, u)`` as per-MAT :class:`MatPlacement` records (which
switch, which stages) and ``y(u, v, p)`` as the routing map from
ordered switch pairs to chosen paths — together with validation and the
metrics the evaluation reports: the per-packet byte overhead ``A_max``,
end-to-end latency ``t_e2e`` and occupied switch count ``Q_occ``.

The plan is an *immutable artifact*: once constructed, its placements
and routing never change, so every derived metric is computed once and
cached.  Code that needs another plan constructs one:
:meth:`DeploymentPlan.with_routing` gives a sibling with the same
placements and new routing (and, for a rebase, a new network) that
shares what the placements determine, and :func:`route_all_pairs` gives
the sibling routed on shortest paths.  Plans serialize to a canonical,
versioned JSON document (:meth:`DeploymentPlan.to_dict` /
:meth:`DeploymentPlan.from_dict`; see :mod:`repro.plan.serialize`) and
compare structurally via :func:`repro.plan.diff.diff_plans`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

from repro.network.paths import Path, PathEnumerator
from repro.network.topology import Network
from repro.tdg.graph import Tdg


T = TypeVar("T")


class DeploymentError(ValueError):
    """Raised when a deployment request cannot be satisfied."""


@dataclass(frozen=True)
class MatPlacement:
    """Where one MAT landed: switch ``u`` and stage numbers ``i``.

    ``stages`` is the sorted tuple of (1-based) stage indices the MAT
    occupies; a MAT whose demand exceeds one stage's capacity spans
    several consecutive stages.
    """

    mat_name: str
    switch: str
    stages: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError(f"MAT {self.mat_name!r} placed on no stages")
        if list(self.stages) != sorted(self.stages):
            raise ValueError(f"stages must be sorted: {self.stages}")
        if self.stages[0] < 1:
            raise ValueError("stage indices are 1-based")

    @property
    def first_stage(self) -> int:
        """``rho_begin`` — the first stage running (part of) the MAT."""
        return self.stages[0]

    @property
    def last_stage(self) -> int:
        """``rho_end`` — the last stage running (part of) the MAT."""
        return self.stages[-1]


#: The lazy metric caches that depend only on the TDG and the
#: placements, never on the network or the routing, the values
#: :meth:`DeploymentPlan.memoized` keeps, and the record that the
#: placements passed :meth:`DeploymentPlan.validate`'s coverage and
#: intra-switch order checks, which read nothing else either.
_PLACEMENT_CACHES = (
    "_pair_bytes_cache",
    "_amax_cache",
    "_total_bytes_cache",
    "_occupied_cache",
    "_stage_util_cache",
    "_memo",
    "_placements_checked",
)

#: Attributes the lazy metric caches may write after construction.
_CACHE_SLOTS = frozenset(_PLACEMENT_CACHES + ("_e2e_cache",))


class DeploymentPlan:
    """A complete, immutable network-wide deployment.

    Every derived value is computed once per plan, and what depends only
    on the TDG and the placements is shared with the plan's
    :meth:`with_routing` siblings.  Analyses that read nothing else keep
    their results in :meth:`memoized`.  All of this assumes, as the plan
    itself does, that the TDG is not mutated after a plan is built on
    it; pickling a plan keeps none of it.

    Args:
        tdg: The merged, metadata-annotated TDG that was deployed.
        network: The substrate network.
        placements: Per-MAT placement records (every TDG node exactly
            once).
        routing: Chosen inter-switch paths, keyed by ordered switch
            pair; covers every pair of switches that exchange metadata.
    """

    def __init__(
        self,
        tdg: Tdg,
        network: Network,
        placements: Mapping[str, MatPlacement],
        routing: Optional[Mapping[Tuple[str, str], Path]] = None,
    ) -> None:
        self._tdg = tdg
        self._network = network
        self._placements = dict(placements)
        self._routing = dict(routing or {})
        self._reset_caches()
        self._frozen = True

    def _reset_caches(self) -> None:
        object.__setattr__(self, "_pair_bytes_cache", None)
        object.__setattr__(self, "_amax_cache", None)
        object.__setattr__(self, "_total_bytes_cache", None)
        object.__setattr__(self, "_occupied_cache", None)
        object.__setattr__(self, "_e2e_cache", None)
        object.__setattr__(self, "_stage_util_cache", {})
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_placements_checked", False)

    # ------------------------------------------------------------------
    # Immutability
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if not getattr(self, "_frozen", False) or name in _CACHE_SLOTS:
            object.__setattr__(self, name, value)
            return
        raise AttributeError(
            f"DeploymentPlan is immutable; cannot set {name!r} — "
            "construct a new plan instead"
        )

    def __reduce__(self):
        return (
            self.__class__,
            (
                self._tdg,
                self._network,
                dict(self._placements),
                dict(self._routing),
            ),
        )

    # ------------------------------------------------------------------
    # Core attributes
    # ------------------------------------------------------------------
    @property
    def tdg(self) -> Tdg:
        return self._tdg

    @property
    def network(self) -> Network:
        return self._network

    @property
    def placements(self) -> Mapping[str, MatPlacement]:
        """Read-only view of the per-MAT placement records."""
        return MappingProxyType(self._placements)

    @property
    def routing(self) -> Mapping[Tuple[str, str], Path]:
        """Read-only view of the chosen inter-switch paths."""
        return MappingProxyType(self._routing)

    def with_routing(
        self,
        routing: Mapping[Tuple[str, str], Path],
        network: Optional[Network] = None,
    ) -> "DeploymentPlan":
        """A sibling plan with the same TDG and placements, new routing,
        and ``network`` in place of this plan's when given (a rebase).

        The sibling shares what depends only on the TDG and the
        placements: pair bytes, ``A_max``, total bytes, occupied
        switches, per-switch stage loads, the :meth:`memoized` values,
        and whether this plan passed :meth:`validate`, whose coverage
        and intra-switch order checks the sibling then skips.
        Routing-derived values (``t_e2e``) are computed afresh, and
        hosts, stage capacity and routing are always checked against
        the sibling's own network.
        """
        plan = DeploymentPlan(
            self._tdg,
            self._network if network is None else network,
            self._placements,
            routing,
        )
        # Placement-derived caches are identical by construction; the
        # stage loads and the memo are dicts that either plan may fill
        # first.
        for slot in _PLACEMENT_CACHES:
            object.__setattr__(plan, slot, getattr(self, slot))
        return plan

    def memoized(self, derive: Callable[["DeploymentPlan"], T]) -> T:
        """``derive(self)``, computed once per plan.

        ``derive`` must read nothing of the plan but its TDG and
        placements, since the value is shared with every
        :meth:`with_routing` sibling, and it must return nothing that
        refers to the plan, so a plan never keeps itself alive through
        its own memo.  A ``derive`` that raises stores nothing and runs
        again on the next call.  Callers hand out copies of mutable
        values, so no caller can change what another receives.
        """
        try:
            return self._memo[derive]
        except KeyError:
            pass
        value = self._memo[derive] = derive(self)
        return value

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def switch_of(self, mat_name: str) -> str:
        """``L(a, u)``: the switch hosting a MAT."""
        try:
            return self._placements[mat_name].switch
        except KeyError:
            raise KeyError(f"MAT {mat_name!r} is not placed") from None

    def mats_on(self, switch: str) -> List[str]:
        """MAT names hosted by a switch, ordered by first stage."""
        on = [p for p in self._placements.values() if p.switch == switch]
        on.sort(key=lambda p: (p.first_stage, p.mat_name))
        return [p.mat_name for p in on]

    def occupied_switches(self) -> List[str]:
        """Switches hosting at least one MAT, in first-use order."""
        if self._occupied_cache is None:
            seen: List[str] = []
            for placement in self._placements.values():
                if placement.switch not in seen:
                    seen.append(placement.switch)
            self._occupied_cache = seen
        return list(self._occupied_cache)

    # ------------------------------------------------------------------
    # Metrics (§V-B objectives, measured on the finished plan)
    # ------------------------------------------------------------------
    def pair_metadata_bytes(self) -> Dict[Tuple[str, str], int]:
        """Metadata bytes exchanged per ordered switch pair.

        For each TDG edge whose endpoints sit on different switches,
        its ``A(a, b)`` is charged to the (upstream-switch,
        downstream-switch) pair.  Computed once and cached — the plan
        is immutable.
        """
        if self._pair_bytes_cache is None:
            totals: Dict[Tuple[str, str], int] = {}
            for edge in self._tdg.edges:
                u = self.switch_of(edge.upstream)
                v = self.switch_of(edge.downstream)
                if u == v:
                    continue
                key = (u, v)
                totals[key] = totals.get(key, 0) + edge.metadata_bytes
            self._pair_bytes_cache = totals
        return dict(self._pair_bytes_cache)

    def max_metadata_bytes(self) -> int:
        """``A_max`` — the per-packet byte overhead (Obj#1, Eq. 1)."""
        if self._amax_cache is None:
            pairs = self.pair_metadata_bytes()
            self._amax_cache = max(pairs.values()) if pairs else 0
        return self._amax_cache

    def total_metadata_bytes(self) -> int:
        """Total coordination bytes across all switch pairs."""
        if self._total_bytes_cache is None:
            self._total_bytes_cache = sum(
                self.pair_metadata_bytes().values()
            )
        return self._total_bytes_cache

    def num_occupied_switches(self) -> int:
        """``Q_occ`` (Obj#3, Eq. 3)."""
        return len(self.occupied_switches())

    def end_to_end_latency_us(self) -> float:
        """``t_e2e`` — the sum of chosen inter-switch path latencies.

        Each distinct communicating switch pair contributes its routed
        path once (Obj#2, Eq. 2 measured on the realized routing).
        """
        if self._e2e_cache is None:
            total = 0.0
            for pair in self.pair_metadata_bytes():
                path = self._routing.get(pair)
                if path is None:
                    raise DeploymentError(
                        f"switch pair {pair} exchanges metadata but has no "
                        "routed path"
                    )
                total += path.latency_us
            self._e2e_cache = total
        return self._e2e_cache

    def cross_switch_edges(self) -> List[Tuple[str, str]]:
        """TDG edges whose endpoints landed on different switches."""
        return [
            (e.upstream, e.downstream)
            for e in self._tdg.edges
            if self.switch_of(e.upstream) != self.switch_of(e.downstream)
        ]

    def stage_utilization(self, switch: str) -> Dict[int, float]:
        """Per-stage resource load on a switch (stage index -> demand).

        The first call sums every switch's loads in one scan over the
        placements, placement by placement, and caches them all.
        """
        loads = self._stage_util_cache
        if not loads:
            for placement in self._placements.values():
                load = loads.setdefault(placement.switch, {})
                mat = self._tdg.node(placement.mat_name)
                share = mat.resource_demand / len(placement.stages)
                for stage in placement.stages:
                    load[stage] = load.get(stage, 0.0) + share
        return dict(loads.get(switch, {}))

    # ------------------------------------------------------------------
    # Serialization (canonical, versioned JSON — repro.plan.serialize)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The canonical JSON-serializable document for this plan."""
        from repro.plan.serialize import plan_to_dict

        return plan_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DeploymentPlan":
        """Reconstruct a plan from :meth:`to_dict` output."""
        from repro.plan.serialize import plan_from_dict

        return plan_from_dict(data)

    def fingerprint(self) -> str:
        """SHA-256 hex digest of the canonical serialization."""
        from repro.plan.serialize import plan_fingerprint

        return plan_fingerprint(self)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, tol: float = 1e-6) -> None:
        """Check the plan against every paper constraint.

        Raises:
            DeploymentError: Describing the first violated constraint —
                unplaced MATs, non-programmable hosts, stage-capacity
                overflow (Eq. 9), intra-switch ordering (Eq. 8), or
                missing inter-switch routing (Eq. 7).
        """
        # Coverage and Eq. 8 read only the TDG and the placements, so
        # a plan whose placements passed once (or a sibling's, see
        # with_routing) skips them.
        checked = self._placements_checked
        if not checked:
            self._check_coverage()
        self._check_hosts()
        self._check_stage_capacity(tol)
        if not checked:
            self._check_intra_switch_order()
        self._check_routing()
        self._placements_checked = True

    def _check_coverage(self) -> None:
        placed = set(self._placements)
        nodes = set(self._tdg.node_names)
        missing = nodes - placed
        if missing:
            raise DeploymentError(f"unplaced MATs: {sorted(missing)}")
        extra = placed - nodes
        if extra:
            raise DeploymentError(f"placements for unknown MATs: {sorted(extra)}")

    def _check_hosts(self) -> None:
        for placement in self._placements.values():
            switch = self._network.switch(placement.switch)
            if not switch.programmable:
                raise DeploymentError(
                    f"MAT {placement.mat_name!r} placed on non-programmable "
                    f"switch {switch.name!r}"
                )
            if placement.last_stage > switch.num_stages:
                raise DeploymentError(
                    f"MAT {placement.mat_name!r} uses stage "
                    f"{placement.last_stage} but switch {switch.name!r} "
                    f"has only {switch.num_stages}"
                )

    def _check_stage_capacity(self, tol: float) -> None:
        for switch_name in self.occupied_switches():
            capacity = self._network.switch(switch_name).stage_capacity
            for stage, load in self.stage_utilization(switch_name).items():
                if load > capacity + tol:
                    raise DeploymentError(
                        f"stage {stage} of switch {switch_name!r} "
                        f"overloaded: {load:.3f} > {capacity:.3f}"
                    )

    def _check_intra_switch_order(self) -> None:
        for edge in self._tdg.edges:
            up = self._placements[edge.upstream]
            down = self._placements[edge.downstream]
            if up.switch != down.switch:
                continue
            if up.last_stage >= down.first_stage:
                raise DeploymentError(
                    f"dependency {edge.upstream!r} -> {edge.downstream!r} "
                    f"violated on switch {up.switch!r}: rho_end="
                    f"{up.last_stage} >= rho_begin={down.first_stage}"
                )

    def _check_routing(self) -> None:
        for (u, v), _bytes in self.pair_metadata_bytes().items():
            path = self._routing.get((u, v))
            if path is None:
                raise DeploymentError(
                    f"no routed path for communicating pair ({u!r}, {v!r})"
                )
            if path.source != u or path.destination != v:
                raise DeploymentError(
                    f"routed path for ({u!r}, {v!r}) runs "
                    f"{path.source!r} -> {path.destination!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DeploymentPlan({len(self._placements)} MATs on "
            f"{self.num_occupied_switches()} switches, "
            f"A_max={self.max_metadata_bytes()}B)"
        )


def route_all_pairs(
    plan: DeploymentPlan, paths: PathEnumerator
) -> DeploymentPlan:
    """``plan``'s :meth:`~DeploymentPlan.with_routing` sibling with a
    shortest path for every key of
    :meth:`~DeploymentPlan.pair_metadata_bytes`, routed in that order.

    Raises:
        DeploymentError: At the first communicating pair without a path.
    """
    routing: Dict[Tuple[str, str], Path] = {}
    for pair in plan.pair_metadata_bytes():
        path = paths.shortest(*pair)
        if path is None:
            raise DeploymentError(
                f"no path between communicating switches {pair}"
            )
        routing[pair] = path
    return plan.with_routing(routing)
