"""The greedy-based heuristic (Algorithm 2).

Key idea (§V-E): keep the TDG edges that carry *large* metadata inside
a single switch, so only small-``A(a, b)`` edges cross switches.  The
heuristic recursively splits the merged TDG at the prefix (in
topological order) whose cut ships the fewest metadata bytes, until
every segment fits on one switch; segments are then laid out on a chain
of nearby programmable switches.

Implementation notes:

* The prefix sweep is computed incrementally (moving node ``a`` from
  the right side to the left changes the cut by ``out_bytes(a) -
  in_bytes(a)``), so choosing one split position costs at most
  ``O((|V| + |E|) log |V|)`` on the graph still to split, Theorem 2's
  bound: the order (a DFS and a heap per program group) is the log
  factor, the sweep is linear.
* Only prefixes one switch can hold can be chosen, and demand only
  grows along the order, so each round walks and sweeps up to the
  first prefix whose demand exceeds the reference switch's capacity
  and no further: ``O(|P| log |V|)`` for a prefix of ``|P|`` nodes and
  their edges.  The DFS ranking and the hub detection that the walk
  starts from still cover the whole rest graph, ``O(|V| + |E|)`` per
  round.
* Each round also induces the chosen prefix once (``O(|V| + |E|)``),
  lays it out once per MAT it has to give up (each shrink drops the
  last MAT with ``remove_node``, ``O(deg)``), and removes the accepted
  prefix from the one working copy of the rest (its incident edges).
  A split into ``k`` segments therefore costs
  ``O(k (|V| + |E|) + |V| log |V|)`` plus the stage layouts of its
  feasibility tests: one of the rest per round and one of the prefix
  per size tried.
* Segment feasibility uses the exact stage scheduler
  (:func:`repro.core.stages.segment_fits`), which is sound where the
  paper's aggregate ``sum R(a) <= C_stage * C_res`` test can accept
  segments whose dependency chains exceed the stage count.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.stages import StageAssignmentError, assign_stages, segment_fits
from repro.network.paths import PathEnumerator
from repro.plan.artifact import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
    route_all_pairs,
)
from repro.network.switch import Switch
from repro.network.topology import Network
from repro.tdg.graph import Tdg


#: Lower edge of the fill band: a peeled prefix should occupy at least
#: this fraction of a switch, bounding the segment count by
#: ``demand / (FILL_FLOOR * capacity)``.  0.5 admits every other
#: program boundary of typical workloads as a candidate position, which
#: measurably lowers the realized A_max versus tighter bands.
FILL_FLOOR = 0.5


def split_order(tdg: Tdg) -> List[str]:
    """The node order the prefix sweep runs over.

    Plain DFS order loses program contiguity once merged hub MATs
    (shared hashes) connect many programs into one component — DFS then
    interleaves their consumers, and every in-band split position cuts
    several programs mid-chain.  This order is a grouped Kahn walk:
    nodes are grouped by their originating program (the ``"<program>."``
    prefix of qualified node names) and the walk stays inside the
    current group while it has ready nodes, jumping to the group of the
    earliest-ranked ready node otherwise.  The result is always
    topological, and program boundaries reappear as cheap split
    positions even in hub-connected merged TDGs.
    """
    return list(_split_walk(tdg))


def _split_walk(tdg: Tdg) -> Iterator[str]:
    """:func:`split_order`, one node at a time.

    The DFS ranking and the hub detection cover the whole graph before
    the first node is yielded; the walk itself runs only as far as its
    reader goes, which lets the prefix sweep
    (:func:`_prefix_candidates`) stop at the first prefix no switch can
    hold.
    """
    dfs = tdg.topological_order(strategy="dfs")
    rank = {name: i for i, name in enumerate(dfs)}
    program = {name: name.split(".", 1)[0] for name in dfs}
    succ, pred = tdg._succ, tdg._pred  # read, never changed

    # Merged hub MATs (shared hashes) feed several programs but are
    # owned — by naming accident of the merge — by one of them.  Left
    # in that group they stall every consumer program until their
    # owner's turn, shredding contiguity.  Nodes whose successors span
    # other programs form their own leading group instead.
    hubs = {
        name
        for name in dfs
        if any(program[s] != program[name] for s in succ[name])
    }
    for hub in hubs:
        rank[hub] = -len(dfs) + rank[hub]  # emit hubs first
    group = {
        name: "__hubs__" if name in hubs else program[name] for name in dfs
    }

    # Each group's ready nodes, as a heap of (rank, name): ranks are
    # unique, so a heap pops them in rank order, whatever order they
    # were pushed in.
    in_deg = {name: len(pred[name]) for name in dfs}
    ready: Dict[str, List[Tuple[int, str]]] = {}
    for name in dfs:
        if in_deg[name] == 0:
            heapq.heappush(
                ready.setdefault(group[name], []), (rank[name], name)
            )

    current: Optional[str] = None
    while ready:
        if current not in ready:
            # Jump to the group holding the earliest-ranked ready node.
            current = min(ready, key=lambda g: ready[g][0])
        bucket = ready[current]
        node = heapq.heappop(bucket)[1]
        if not bucket:
            del ready[current]
        yield node
        for nxt in succ[node]:
            in_deg[nxt] -= 1
            if in_deg[nxt] == 0:
                heapq.heappush(
                    ready.setdefault(group[nxt], []), (rank[nxt], nxt)
                )


def _prefix_candidates(
    tdg: Tdg, capacity: float
) -> Tuple[List[str], List[Tuple[int, float, float]]]:
    """Sweep the prefixes of ``tdg``'s split order a switch of
    ``capacity`` can hold.

    Returns the names read from the walk (:func:`_split_walk`) and, per
    prefix, ``(size, cut_bytes, prefix_demand)``.  The cut is updated
    incrementally — moving node ``a`` from the suffix to the prefix
    changes it by ``out_bytes(a) - in_bytes(a)`` (integers, read
    straight from the adjacency) — so the sweep is linear in what it
    reads.  The final position (empty suffix) is excluded.

    The walk is read lazily, and the sweep stops after the first prefix
    whose demand exceeds ``capacity``.  Demands are positive (``Mat``
    floors them at 0.01), so every longer prefix exceeds it too, and
    :func:`_choose_prefix_size` picks none of them; that first one is
    kept, as the position it falls back to when no prefix fits.
    """
    edges, succ, pred = tdg._edges, tdg._succ, tdg._pred
    last = len(tdg)
    names: List[str] = []
    candidates: List[Tuple[int, float, float]] = []
    cut = 0.0
    demand = 0.0
    for name in _split_walk(tdg):
        names.append(name)
        if len(names) == last:
            break
        out_bytes = sum(edges[name, s].metadata_bytes for s in succ[name])
        in_bytes = sum(edges[p, name].metadata_bytes for p in pred[name])
        cut += out_bytes - in_bytes
        demand += tdg.node(name).resource_demand
        candidates.append((len(names), cut, demand))
        if demand > capacity:
            break
    return names, candidates


def _choose_prefix_size(
    candidates: List[Tuple[int, float, float]],
    capacity: float,
    fill_floor: float = None,
) -> int:
    """Pick the split position: min cut within the fill band.

    Preference order:

    1. prefixes whose demand lies in ``[fill_floor * capacity,
       capacity]`` — well-filled and single-switch feasible;
    2. otherwise any prefix with demand ``<= capacity``;
    3. otherwise the first position (always exists).

    Within the chosen set the minimum cut wins; ties go to the largest
    prefix (fewest segments overall).
    """
    if fill_floor is None:
        fill_floor = FILL_FLOOR
    in_band = [
        c
        for c in candidates
        if fill_floor * capacity <= c[2] <= capacity
    ]
    pool = in_band or [c for c in candidates if c[2] <= capacity]
    if not pool:
        return candidates[0][0]
    best_cut = min(c[1] for c in pool)
    at_min = [c for c in pool if c[1] == best_cut]
    return max(at_min, key=lambda c: c[0])[0]


def split_tdg(
    tdg: Tdg, reference: Switch, fill_floor: float = None
) -> List[Tdg]:
    """Split ``tdg`` into single-switch segments (Algorithm 2 lines 1-17).

    Repeatedly peels off the prefix (in grouped topological order, which
    keeps programs contiguous) with the minimum metadata cut among
    well-filled, switch-fitting positions; when a chosen prefix admits
    no stage layout (dependency chains deeper than the pipeline),
    progressively smaller prefixes are tried.

    Args:
        tdg: The merged TDG ``T_m`` (metadata sizes annotated).
        reference: The switch model segments must fit (Algorithm 2's
            uniform ``C_stage``/``C_res``).
        fill_floor: Override of :data:`FILL_FLOOR`; raising it packs
            segments denser, reducing their count when an occupied-
            switch budget binds.

    Returns:
        Segments in chain order: every TDG edge runs within a segment
        or from an earlier segment to a later one.
    """
    segments: List[Tdg] = []
    # The input graph is never changed: the first accepted prefix is
    # split off into one working copy of the rest, and every later one
    # is removed from that copy.
    remaining = tdg
    piece = 0
    capacity = reference.total_capacity
    while not segment_fits(remaining, reference):
        if len(remaining) < 2:
            raise DeploymentError(
                f"MAT {remaining.node_names[0]!r} alone does not fit "
                f"switch {reference.name!r}"
            )
        topo, candidates = _prefix_candidates(remaining, capacity)
        size = _choose_prefix_size(candidates, capacity, fill_floor)
        prefix = remaining.subgraph(
            topo[:size], name=f"{tdg.name}/{piece}"
        )
        # Aggregate capacity can admit prefixes whose dependency chains
        # exceed the stage count; shrink until a stage layout exists,
        # dropping the prefix's last MAT each time.
        while size > 1 and not segment_fits(prefix, reference):
            size -= 1
            prefix.remove_node(topo[size])
        if size == 1 and not segment_fits(prefix, reference):
            raise DeploymentError(
                f"MAT {topo[0]!r} alone does not fit switch "
                f"{reference.name!r}"
            )
        segments.append(prefix)
        if remaining is tdg:
            # Tdg.subgraph keeps the source's node and edge order.
            remaining = tdg.subgraph(
                set(tdg.node_names).difference(topo[:size]),
                name=f"{tdg.name}/rest",
            )
        else:
            for name in topo[:size]:
                remaining.remove_node(name)
        piece += 1
    remaining.name = f"{tdg.name}/{piece}" if segments else tdg.name
    segments.append(remaining)
    return segments


#: Stands in, in a graph's split memo, for a split whose only segment is
#: the graph itself: the graph must not hold itself in its own memo.  A
#: real split has at least one segment, so the empty tuple is free, and
#: unlike an ``object()`` marker it survives pickling the graph.
_WHOLE: Tuple[Tdg, ...] = ()


def _split_memo(_tdg: Tdg) -> Dict[Tuple[int, float, float], object]:
    """A graph's memoized splits, keyed by the reference switch's
    ``(num_stages, stage_capacity)`` and the fill floor."""
    return {}


def _memoized_split(
    tdg: Tdg, reference: Switch, fill_floor: float
) -> List[Tdg]:
    """:func:`split_tdg`, memoized on ``tdg``.

    The split reads nothing of the reference switch but its stage count
    and capacity, except in the message of a failed split, which names
    the switch and is therefore not stored.  The segments are shared
    between the deploys that hit the entry; nothing mutates them.
    """
    memo = tdg.memoized(_split_memo)
    key = (reference.num_stages, reference.stage_capacity, fill_floor)
    segments = memo.get(key)
    if segments is None:
        segments = split_tdg(tdg, reference, fill_floor)
        whole = len(segments) == 1 and segments[0] is tdg
        memo[key] = _WHOLE if whole else segments
    elif segments == _WHOLE:
        segments = [tdg]
    return list(segments)


def select_switches(
    start: str,
    network: Network,
    paths: PathEnumerator,
    epsilon1: float = math.inf,
    epsilon2: Optional[int] = None,
) -> List[str]:
    """Candidate chain around ``start`` (Algorithm 2 line 23).

    Returns ``start`` plus the closest programmable switches reachable
    from it within latency ``epsilon1``, capped at ``epsilon2`` total,
    ordered by shortest-path latency from ``start``.
    """
    ranked: List[Tuple[float, str]] = [(0.0, start)]
    for name in network.programmable_names():
        if name == start:
            continue
        path = paths.shortest(start, name)
        if path is None:
            continue
        if path.latency_us <= epsilon1:
            ranked.append((path.latency_us, name))
    ranked.sort()
    names = [name for _latency, name in ranked]
    if epsilon2 is not None:
        names = names[:epsilon2]
    return names


class GreedyHeuristic:
    """Algorithm 2: timely, near-optimal deployment.

    Args:
        epsilon1: Latency bound for candidate selection (µs).
        epsilon2: Bound on occupied switches.
        reference_switch: Switch model used by the splitter; defaults
            to the weakest programmable switch in the network so every
            candidate can host every segment.
        splitter: The TDG splitting strategy, ``(tdg, reference) ->
            [segments]``; defaults to the min-cut :func:`split_tdg`,
            whose segments are memoized on the TDG per reference shape
            and fill floor, so replanning an unchanged graph does not
            split it again.  Exposed so ablations can swap in
            alternative criteria, which are never memoized.
        replicate_hubs: Clone cheap shared hub MATs per consumer
            program before splitting (the Eq. 6 replication extension;
            see :mod:`repro.core.replication`).  ``False`` (default)
            matches the paper's single-placement behaviour, ``True``
            always replicates, ``"auto"`` deploys both ways and keeps
            the plan with the lower byte overhead.
        refine: Polish the chosen plan with boundary-move local search
            (:mod:`repro.core.refine`); on by default.
    """

    def __init__(
        self,
        epsilon1: float = math.inf,
        epsilon2: Optional[int] = None,
        reference_switch: Optional[Switch] = None,
        splitter=None,
        replicate_hubs=False,
        refine: bool = True,
    ) -> None:
        if epsilon1 <= 0:
            raise ValueError("epsilon1 must be positive")
        if epsilon2 is not None and epsilon2 <= 0:
            raise ValueError("epsilon2 must be positive")
        self.epsilon1 = epsilon1
        self.epsilon2 = epsilon2
        self.reference_switch = reference_switch
        self.splitter = splitter or split_tdg
        if replicate_hubs not in (False, True, "auto"):
            raise ValueError(
                "replicate_hubs must be False, True or 'auto'"
            )
        self.replicate_hubs = replicate_hubs
        self.refine = refine

    def _reference(self, network: Network) -> Switch:
        if self.reference_switch is not None:
            return self.reference_switch
        programmable = network.programmable_switches()
        if not programmable:
            raise DeploymentError("network has no programmable switches")
        return min(programmable, key=lambda s: s.total_capacity)

    def deploy(
        self,
        tdg: Tdg,
        network: Network,
        paths: Optional[PathEnumerator] = None,
    ) -> DeploymentPlan:
        """Run Algorithm 2 and return a validated deployment plan.

        Enumerates programmable switches as chain anchors; the first
        anchor whose candidate set can host every segment wins, exactly
        like the paper's first-feasible enumeration.
        """
        paths = paths or PathEnumerator(network)
        if self.replicate_hubs == "auto":
            return self._deploy_auto(tdg, network, paths)
        plans: List[DeploymentPlan] = []
        # Kept as text: a kept traceback would hold this frame's plans.
        split_error: Optional[str] = None
        try:
            plans.append(self._deploy_min_cut(tdg, network, paths))
        except DeploymentError as exc:
            split_error = str(exc)
        chain_plan = self._deploy_chain(tdg, network, paths)
        if chain_plan is not None:
            plans.append(chain_plan)
        if not plans:
            raise DeploymentError(
                "greedy heuristic found no feasible deployment"
                + (f": {split_error}" if split_error is not None else "")
            )
        # Portfolio: the min-cut split minimizes total boundary bytes;
        # the interleaving chain schedule spreads crossings over more
        # switch pairs, which can lower the per-pair *max*.  Keep the
        # cheaper plan, then polish it with boundary-move local search.
        best = min(plans, key=lambda p: p.max_metadata_bytes())
        if self.refine:
            from repro.core.refine import refine_plan

            best = refine_plan(best, paths)
        return best

    def _deploy_min_cut(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
    ) -> DeploymentPlan:
        """Algorithm 2: min-cut split + candidate-chain placement."""
        reference = self._reference(network)
        if self.replicate_hubs:
            from repro.core.replication import replicate_cheap_hubs

            # Memoized on the source graph, so the replicated graph, and
            # with it its own split memo, outlives one deploy.
            tdg = tdg.memoized(replicate_cheap_hubs)
        if self.splitter is not split_tdg:
            segments = self.splitter(tdg, reference)
        else:
            segments = _memoized_split(tdg, reference, FILL_FLOOR)
            if self.epsilon2 is not None and len(segments) > self.epsilon2:
                # The default fill band produced more segments than the
                # occupied-switch budget allows; re-split with the floor
                # raised to the average fill the budget implies.
                needed = tdg.total_resource_demand() / (
                    self.epsilon2 * reference.total_capacity
                )
                if needed <= 1.0:
                    segments = _memoized_split(
                        tdg, reference, min(0.98, max(needed, FILL_FLOOR))
                    )

        last_error: Optional[str] = None
        for anchor in network.programmable_names():
            candidates = select_switches(
                anchor, network, paths, self.epsilon1, self.epsilon2
            )
            if len(segments) > len(candidates):
                continue
            try:
                return self._place(tdg, network, paths, segments, candidates)
            except (StageAssignmentError, DeploymentError) as exc:
                last_error = str(exc)
                continue
        raise DeploymentError(
            "greedy heuristic found no feasible anchor switch"
            + (f": {last_error}" if last_error is not None else "")
        )

    def _deploy_chain(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
    ) -> Optional[DeploymentPlan]:
        """First-fit chain placement over the candidate switches.

        The complementary portfolio member: MATs in Kahn (level) order
        packed into consecutive switches.  Interleaving programs at the
        boundaries spreads the cut edges across several switch pairs,
        so the per-pair maximum can undercut the min-cut split even
        when the total crossing bytes are higher.
        """
        from repro.baselines.base import route_all_pairs, schedule_on_chain

        order = tdg.topological_order(strategy="kahn")
        for anchor in network.programmable_names():
            chain = select_switches(
                anchor, network, paths, self.epsilon1, self.epsilon2
            )
            if not chain:
                continue
            try:
                placements = schedule_on_chain(tdg, order, network, chain)
                plan = route_all_pairs(
                    DeploymentPlan(tdg, network, placements), paths
                )
                plan.validate()
                return plan
            except (StageAssignmentError, DeploymentError):
                continue
        return None

    def _deploy_auto(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
    ) -> DeploymentPlan:
        """Deploy with and without hub replication; keep the cheaper.

        Replication removes hub cut bytes but inflates demand, which
        can shift split positions for the worse — so "auto" simply
        measures both.  Replication failures (capacity exhausted by the
        clones) silently fall back to the merged deployment.
        """
        base_solver = GreedyHeuristic(
            self.epsilon1, self.epsilon2, self.reference_switch,
            self.splitter, replicate_hubs=False, refine=self.refine,
        )
        plan = base_solver.deploy(tdg, network, paths)
        replica_solver = GreedyHeuristic(
            self.epsilon1, self.epsilon2, self.reference_switch,
            self.splitter, replicate_hubs=True, refine=self.refine,
        )
        try:
            replicated = replica_solver.deploy(tdg, network, paths)
        except DeploymentError:
            return plan
        if replicated.max_metadata_bytes() < plan.max_metadata_bytes():
            return replicated
        return plan

    def _place(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
        segments: Sequence[Tdg],
        candidates: Sequence[str],
    ) -> DeploymentPlan:
        """Lay each segment out on its candidate switch, in segment
        order, then route and validate the plan."""
        placements: Dict[str, MatPlacement] = {}
        for segment, host in zip(segments, candidates):
            layout = assign_stages(segment, network.switch(host))
            if not placements.keys().isdisjoint(layout):
                # Only a custom splitter can hand over overlapping
                # segments; every MAT is placed exactly once.
                twice = next(name for name in layout if name in placements)
                raise DeploymentError(
                    f"MAT {twice!r} is in more than one segment"
                )
            placements.update(layout)
        missing = set(tdg.node_names).difference(placements)
        if missing:  # the router reads every MAT's host
            raise DeploymentError(f"unplaced MATs: {sorted(missing)}")
        # Consecutive chain hops (Algorithm 2 lines 26-29) plus any
        # skip-level pairs created by edges spanning non-adjacent
        # segments: every communicating pair gets its shortest path.
        plan = route_all_pairs(DeploymentPlan(tdg, network, placements), paths)
        plan.validate()
        return plan
