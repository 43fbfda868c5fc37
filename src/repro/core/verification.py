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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.coordination import CoordinationAnalysis
from repro.plan.artifact import DeploymentPlan


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


def verify_dataflow(plan: DeploymentPlan) -> DataflowReport:
    """Symbolically execute the plan; raise if any input is undeliverable.

    Raises:
        DataflowError: If the execution reaches a fixpoint with MATs
            whose inputs can never arrive (missing channel or missing
            producer), or if a channel ships fields its source cannot
            produce.
    """
    coordination = CoordinationAnalysis(plan)
    tdg = plan.tdg
    occupied = _visit_order(plan)

    channel_fields: Dict[Tuple[str, str], Set[str]] = {
        pair: {f.name for f, _off in channel.layout}
        for pair, channel in coordination.channels.items()
    }
    # Channels by source switch: (destination, fields shipped).
    outgoing: Dict[str, List[Tuple[str, Set[str]]]] = {}
    for (u, v), names in channel_fields.items():
        outgoing.setdefault(u, []).append((v, names))
    # Writers of each metadata field, with their host switch.
    writers: Dict[str, List[Tuple[str, str]]] = {}
    for mat in tdg.mats:
        host = plan.switch_of(mat.name)
        for fld in mat.modified_fields.metadata_only():
            writers.setdefault(fld.name, []).append((mat.name, host))

    executed: Set[str] = set()
    ever_produced_on: Dict[str, Set[str]] = {s: set() for s in occupied}
    arrived_on: Dict[str, Set[str]] = {s: set() for s in occupied}
    execution_order: List[str] = []
    reads_checked = 0
    rounds = 0

    total = len(tdg.node_names)
    while len(executed) < total:
        rounds += 1
        progress = False
        for switch in occupied:
            # One *visit*: pipeline metadata starts from whatever the
            # piggyback headers delivered; fields produced in an
            # earlier visit of this same switch are gone — exactly the
            # hardware's PHV semantics the interpreter implements.
            visit_fields: Set[str] = set(arrived_on[switch])

            def try_execute(mat_name: str) -> bool:
                nonlocal reads_checked
                if any(
                    p not in executed
                    for p in tdg.predecessors(mat_name)
                ):
                    return False
                mat = tdg.node(mat_name)
                for fld in mat.read_fields:
                    if not fld.is_metadata:
                        continue
                    if fld.name not in writers:
                        continue  # parser constant, not coordination
                    reads_checked += 1
                    if fld.name not in visit_fields:
                        reads_checked -= 1  # retried next visit
                        return False
                return True

            for mat_name in plan.mats_on(switch):
                if mat_name in executed:
                    continue
                if not try_execute(mat_name):
                    continue
                executed.add(mat_name)
                execution_order.append(mat_name)
                progress = True
                mat = tdg.node(mat_name)
                produced = mat.modified_fields.metadata_only().names
                visit_fields |= produced
                ever_produced_on[switch] |= produced
                # Ship per field: piggyback headers carry whatever
                # values exist when the packet leaves this visit.
                for v, names in outgoing.get(switch, ()):
                    arrived_on[v] |= names & visit_fields
        if not progress:
            stuck = sorted(set(tdg.node_names) - executed)
            raise DataflowError(
                f"deployment cannot make progress; stuck MATs: {stuck}"
            )
    produced_on = ever_produced_on

    # Channel sanity: everything shipped must have a producer on the
    # source switch.
    shipped: Dict[Tuple[str, str], List[str]] = {}
    for (u, v), names in channel_fields.items():
        missing = sorted(names - produced_on[u])
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
