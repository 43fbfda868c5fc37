"""Dataflow verification of deployment plans.

``DeploymentPlan.validate()`` checks the paper's structural constraints
(placement coverage, stage capacity, ordering, routing).  This module
goes further and verifies Goal#2 — *correctness of packet processing* —
by symbolically executing the deployment:

* a MAT may execute once all its TDG predecessors have executed, and
  every metadata field it reads is *available* at its switch: written
  earlier by a same-switch MAT, or delivered by a coordination channel
  whose source switch already produced it;
* a coordination channel may only ship fields its source actually
  produced.

Switch-level metadata flow may be cyclic (the paper's constraint (7)
only demands a path per dependency; real deployments resolve cycles by
routing the packet through a switch more than once).  The verifier
therefore runs to a fixpoint over *rounds*: each round corresponds to
one traversal of the occupied switches, and the number of rounds needed
is reported — a plan needing ``k`` rounds requires ``k - 1``
recirculations through part of the network.

What a MAT needs and produces does not depend on where it is placed,
so those tables are derived once per TDG and memoized on it
(:meth:`~repro.tdg.graph.Tdg.memoized`); a call only groups the plan's
MATs by switch and reads the plan's channels
(:func:`~repro.core.coordination.plan_channels`).  Refinement verifies
many candidate plans of one TDG and pays for the tables once.

The verifier reads nothing of a plan but its TDG and placements: the
channels come from the hosts, and the visit order from the pair bytes
and the occupied switches.  Routing and the network never enter, so a
plan can be verified before it is routed, and both the channels and
the report are memoized on the plan
(:meth:`~repro.plan.artifact.DeploymentPlan.memoized`) and shared with
its ``with_routing`` siblings.  Each call returns a report with
containers of its own; a failed verification is not stored and raises
the same error on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.coordination import plan_channels
from repro.plan.artifact import DeploymentPlan, MatPlacement
from repro.tdg.graph import Tdg


class DataflowError(AssertionError):
    """The plan cannot deliver some MAT's inputs, ever."""


@dataclass
class DataflowReport:
    """Outcome of a dataflow verification.

    Attributes:
        rounds: Network traversals needed until every MAT could run
            (1 = a single pass suffices; more means recirculation).
        reads_checked: Metadata reads verified.
        shipped_fields: Per channel, the field names it carries.
        execution_order: MATs in the order the symbolic execution ran
            them.
    """

    rounds: int
    reads_checked: int
    shipped_fields: Dict[Tuple[str, str], List[str]] = field(
        default_factory=dict
    )
    execution_order: List[str] = field(default_factory=list)

    @property
    def single_pass(self) -> bool:
        """Whether one traversal (no recirculation) suffices."""
        return self.rounds <= 1


def _visit_order(plan: DeploymentPlan) -> List[str]:
    """Occupied switches ordered along the metadata flow.

    A topological order of the channel graph lets acyclic deployments
    complete in a single pass; switches stuck in flow cycles are
    appended in stable order and resolved by extra rounds.
    """
    occupied = plan.occupied_switches()
    succ: Dict[str, Set[str]] = {s: set() for s in occupied}
    in_deg: Dict[str, int] = {s: 0 for s in occupied}
    for (u, v) in plan.pair_metadata_bytes():
        if v not in succ[u]:
            succ[u].add(v)
            in_deg[v] += 1
    ready = [s for s in occupied if in_deg[s] == 0]
    order: List[str] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for nxt in sorted(succ[current]):
            in_deg[nxt] -= 1
            if in_deg[nxt] == 0:
                ready.append(nxt)
    order.extend(s for s in occupied if s not in order)
    return order


#: Per MAT name: its TDG predecessors; the metadata names it reads that
#: some MAT writes; the metadata names it produces.
_Tables = Tuple[
    Dict[str, Tuple[str, ...]],
    Dict[str, Tuple[str, ...]],
    Dict[str, FrozenSet[str]],
]


def _dataflow_tables(tdg: Tdg) -> _Tables:
    """The verifier's placement-independent tables; memoized per graph.

    A metadata read no MAT writes is a parser constant, not
    coordination, so it is left out and never checked.
    """
    produced = {
        mat.name: mat.modified_fields.metadata_only().names
        for mat in tdg.mats
    }
    written = frozenset().union(*produced.values())
    predecessors = {name: tuple(tdg.predecessors(name)) for name in produced}
    reads = {
        mat.name: tuple(
            fld.name
            for fld in mat.read_fields
            if fld.is_metadata and fld.name in written
        )
        for mat in tdg.mats
    }
    return predecessors, reads, produced


def _hosted(plan: DeploymentPlan) -> Dict[str, List[str]]:
    """Per switch, ``plan.mats_on(switch)``, from one pass."""
    on: Dict[str, List[MatPlacement]] = {}
    for placement in plan.placements.values():
        on.setdefault(placement.switch, []).append(placement)
    return {
        switch: [
            p.mat_name
            for p in sorted(ps, key=lambda p: (p.first_stage, p.mat_name))
        ]
        for switch, ps in on.items()
    }


def verify_dataflow(plan: DeploymentPlan) -> DataflowReport:
    """Symbolically execute the plan; raise if any input is undeliverable.

    The execution runs once per plan (and its ``with_routing``
    siblings); every call returns a fresh copy of its report.

    Raises:
        DataflowError: If the execution reaches a fixpoint with MATs
            whose inputs can never arrive (missing channel or missing
            producer), or if a channel ships fields its source cannot
            produce.
    """
    report = plan.memoized(_verified)
    return DataflowReport(
        rounds=report.rounds,
        reads_checked=report.reads_checked,
        shipped_fields={
            pair: list(names) for pair, names in report.shipped_fields.items()
        },
        execution_order=list(report.execution_order),
    )


def _verified(plan: DeploymentPlan) -> DataflowReport:
    """The report :func:`verify_dataflow` memoizes; never handed out."""
    channels = plan.memoized(plan_channels)
    predecessors, reads, produced_by = plan.tdg.memoized(_dataflow_tables)
    occupied = _visit_order(plan)
    placements = plan.placements
    for name in produced_by:
        if name not in placements:
            plan.switch_of(name)  # raises, naming the unplaced MAT
    hosted = _hosted(plan)

    channel_fields: Dict[Tuple[str, str], Set[str]] = {
        pair: {f.name for f, _off in channel.layout}
        for pair, channel in channels.items()
    }
    # Channels by source switch: (destination, fields shipped).
    outgoing: Dict[str, List[Tuple[str, Set[str]]]] = {}
    for (u, v), names in channel_fields.items():
        outgoing.setdefault(u, []).append((v, names))

    executed: Set[str] = set()
    ever_produced_on: Dict[str, Set[str]] = {s: set() for s in occupied}
    arrived_on: Dict[str, Set[str]] = {s: set() for s in occupied}
    execution_order: List[str] = []
    reads_checked = 0
    rounds = 0

    total = len(produced_by)
    while len(executed) < total:
        rounds += 1
        progress = False
        for switch in occupied:
            # One *visit*: pipeline metadata starts from whatever the
            # piggyback headers delivered; fields produced in an
            # earlier visit of this same switch are gone — exactly the
            # hardware's PHV semantics the interpreter implements.
            visit_fields: Set[str] = set(arrived_on[switch])
            ran = False
            for mat_name in hosted[switch]:
                if mat_name in executed:
                    continue
                if any(p not in executed for p in predecessors[mat_name]):
                    continue
                ready = True
                for name in reads[mat_name]:
                    if name not in visit_fields:
                        ready = False  # retried next visit
                        break
                    reads_checked += 1
                if not ready:
                    continue
                executed.add(mat_name)
                execution_order.append(mat_name)
                ran = True
                produced = produced_by[mat_name]
                visit_fields |= produced
                ever_produced_on[switch] |= produced
            if ran:
                progress = True
                # Ship per field: piggyback headers carry whatever
                # values exist when the packet leaves this visit.
                for v, names in outgoing.get(switch, ()):
                    arrived_on[v] |= names & visit_fields
        if not progress:
            stuck = sorted(set(plan.tdg.node_names) - executed)
            raise DataflowError(
                f"deployment cannot make progress; stuck MATs: {stuck}"
            )

    # Channel sanity: everything shipped must have a producer on the
    # source switch.
    shipped: Dict[Tuple[str, str], List[str]] = {}
    for (u, v), names in channel_fields.items():
        missing = sorted(names - ever_produced_on[u])
        if missing:
            raise DataflowError(
                f"channel {u!r}->{v!r} ships fields its source never "
                f"produced: {missing}"
            )
        shipped[(u, v)] = sorted(names)

    return DataflowReport(
        rounds=rounds,
        reads_checked=reads_checked,
        shipped_fields=shipped,
        execution_order=execution_order,
    )
