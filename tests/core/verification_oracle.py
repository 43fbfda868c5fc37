"""The dataflow verifier and channel builder before per-TDG tables, kept
as the tests' reference model.

:func:`repro.core.verification.verify_dataflow` reads each MAT's
predecessors, checked reads and produced fields from tables memoized on
the TDG, and :class:`~repro.core.coordination.CoordinationAnalysis`
builds one ``FieldSet`` per channel from per-edge field sets memoized
the same way.  Both must give exactly what the code they replaced gave:
the same report, the same channels in the same order, or the same
exception (``test_rebuild_verify_differential.py``).  This module is
that code, copied, not imported: ``legacy_channels`` is the old
``CoordinationAnalysis._build`` and ``legacy_verify_dataflow`` the old
verifier, which reads its channels from ``legacy_channels``.

Import it as a plain module (``from verification_oracle import ...``);
it deliberately contains no tests of its own.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.coordination import MetadataChannel, edge_metadata_fields
from repro.core.verification import DataflowError, DataflowReport
from repro.dataplane.fields import Field, FieldSet
from repro.plan.artifact import DeploymentPlan
from repro.tdg.graph import TdgEdge


def legacy_channels(
    plan: DeploymentPlan,
) -> Dict[Tuple[str, str], MetadataChannel]:
    """Every coordination channel of ``plan``, by ordered switch pair."""
    channels: Dict[Tuple[str, str], MetadataChannel] = {}
    grouped: Dict[Tuple[str, str], List[TdgEdge]] = {}
    for edge in plan.tdg.edges:
        u = plan.switch_of(edge.upstream)
        v = plan.switch_of(edge.downstream)
        if u == v or edge.metadata_bytes == 0:
            continue
        grouped.setdefault((u, v), []).append(edge)

    for (u, v), edges in grouped.items():
        fields = FieldSet()
        declared = 0
        for edge in edges:
            upstream = plan.tdg.node(edge.upstream)
            downstream = plan.tdg.node(edge.downstream)
            fields = fields.union(
                edge_metadata_fields(upstream, downstream, edge.dep_type)
            )
            declared += edge.metadata_bytes
        layout: List[Tuple[Field, int]] = []
        offset = 0
        for field in sorted(fields, key=lambda f: f.name):
            layout.append((field, offset))
            offset += field.size_bytes
        channels[(u, v)] = MetadataChannel(
            source=u,
            destination=v,
            edges=edges,
            declared_bytes=declared,
            layout=layout,
            layout_bytes=offset,
        )
    return channels


def _visit_order(plan: DeploymentPlan) -> List[str]:
    """Occupied switches ordered along the metadata flow."""
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


def legacy_verify_dataflow(plan: DeploymentPlan) -> DataflowReport:
    """Symbolically execute the plan; raise if any input is undeliverable."""
    channels = legacy_channels(plan)
    tdg = plan.tdg
    occupied = _visit_order(plan)

    channel_fields: Dict[Tuple[str, str], Set[str]] = {
        pair: {f.name for f, _off in channel.layout}
        for pair, channel in channels.items()
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
                for v, names in outgoing.get(switch, ()):
                    arrived_on[v] |= names & visit_fields
        if not progress:
            stuck = sorted(set(tdg.node_names) - executed)
            raise DataflowError(
                f"deployment cannot make progress; stuck MATs: {stuck}"
            )
    produced_on = ever_produced_on

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
