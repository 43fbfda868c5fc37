"""Canonical, versioned JSON serialization of deployment plans.

A serialized plan is a *complete* artifact: it embeds the merged TDG
(MATs with fields, actions, rules and demands; dependency edges with
their metadata byte annotations) and the substrate network alongside
the placement and routing decisions, so a plan document can be
reloaded, re-validated and diffed in a process that never saw the
original workload objects.

Canonical form: placements are sorted by MAT name, routing by switch
pair, network switches/links by name; TDG nodes and edges keep their
*insertion order* — the legacy metric code iterates edges in that
order, so preserving it keeps tie-breaks (e.g. which pair
``max_metadata_bytes`` picks among equals) byte-identical across a
round trip.  :func:`canonical_dumps` fixes separators and key order so
equal plans serialize to equal byte strings, which is what
:func:`plan_fingerprint` hashes and what the result cache stores.

:func:`plan_fingerprint` never builds that byte string whole: it hashes
the document section by section in sorted key order, and the TDG
section, most of a document, is the text memoized on the
:class:`~repro.tdg.graph.Tdg` (:meth:`~repro.tdg.graph.Tdg.memoized`).
Plans that share a graph (rebases, splices, refinement's candidates)
therefore serialize only their placements, routing, network and
metrics.  MATs and edges are immutable and every TDG mutator clears the
memo, so the digest always equals the hash of
``canonical_dumps(plan_to_dict(plan))``.

The ``schema``/``version`` header gates compatibility: documents from
a different major schema raise :class:`PlanSchemaError` instead of
deserializing garbage.  Bump :data:`SCHEMA_VERSION` whenever the
document layout changes shape.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Tuple

from repro.atomic import atomic_write
from repro.dataplane.actions import Action, ActionPrimitive
from repro.dataplane.fields import Field, FieldKind
from repro.dataplane.mat import Mat, ResourceDemand
from repro.dataplane.rules import MatchKind, MatchSpec, Rule
from repro.network.paths import Path
from repro.network.switch import Switch
from repro.network.topology import Link, Network
from repro.plan.artifact import DeploymentError, DeploymentPlan, MatPlacement
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg

#: Schema identifier embedded in every document.
SCHEMA = "repro.plan/v1"
#: Document layout revision within the schema.
SCHEMA_VERSION = 1


class PlanSchemaError(ValueError):
    """Raised when a plan document cannot be (de)serialized."""


# ----------------------------------------------------------------------
# Data-plane model
# ----------------------------------------------------------------------
def _field_to_dict(field: Field) -> Dict[str, Any]:
    return {
        "name": field.name,
        "width_bits": field.width_bits,
        "kind": field.kind.value,
    }


def _field_from_dict(data: Mapping[str, Any]) -> Field:
    return Field(data["name"], data["width_bits"], FieldKind(data["kind"]))


def _action_to_dict(action: Action) -> Dict[str, Any]:
    return {
        "name": action.name,
        "primitive": action.primitive.value,
        "reads": [_field_to_dict(f) for f in action.reads],
        "writes": [_field_to_dict(f) for f in action.writes],
    }


def _action_from_dict(data: Mapping[str, Any]) -> Action:
    return Action(
        data["name"],
        ActionPrimitive(data["primitive"]),
        tuple(_field_from_dict(f) for f in data["reads"]),
        tuple(_field_from_dict(f) for f in data["writes"]),
    )


def _rule_to_dict(rule: Rule) -> Dict[str, Any]:
    return {
        "matches": [
            {
                "field_name": m.field_name,
                "kind": m.kind.value,
                "value": m.value,
                "mask_or_prefix": m.mask_or_prefix,
            }
            for m in rule.matches
        ],
        "action_name": rule.action_name,
        "priority": rule.priority,
        "action_data": [[name, value] for name, value in rule.action_data],
    }


def _rule_from_dict(data: Mapping[str, Any]) -> Rule:
    return Rule(
        tuple(
            MatchSpec(
                m["field_name"],
                MatchKind(m["kind"]),
                m["value"],
                m["mask_or_prefix"],
            )
            for m in data["matches"]
        ),
        data["action_name"],
        data["priority"],
        tuple((name, value) for name, value in data["action_data"]),
    )


def _mat_to_dict(mat: Mat) -> Dict[str, Any]:
    detailed = mat.detailed_demand
    return {
        "name": mat.name,
        "match_fields": [_field_to_dict(f) for f in mat.match_fields],
        "actions": [_action_to_dict(a) for a in mat.actions],
        "capacity": mat.capacity,
        "rules": [_rule_to_dict(r) for r in mat.rules],
        "resource_demand": mat.resource_demand,
        "detailed_demand": {
            "sram_bits": detailed.sram_bits,
            "tcam_bits": detailed.tcam_bits,
            "alus": detailed.alus,
        },
    }


def _mat_from_dict(data: Mapping[str, Any]) -> Mat:
    detailed = data["detailed_demand"]
    return Mat(
        data["name"],
        match_fields=[_field_from_dict(f) for f in data["match_fields"]],
        actions=[_action_from_dict(a) for a in data["actions"]],
        capacity=data["capacity"],
        rules=[_rule_from_dict(r) for r in data["rules"]],
        resource_demand=data["resource_demand"],
        detailed_demand=ResourceDemand(
            detailed["sram_bits"], detailed["tcam_bits"], detailed["alus"]
        ),
    )


# ----------------------------------------------------------------------
# TDG and network
# ----------------------------------------------------------------------
def _tdg_to_dict(tdg: Tdg) -> Dict[str, Any]:
    # Node and edge order is insertion order on purpose — the metric
    # code iterates edges in that order and downstream tie-breaks
    # depend on it, so a round trip must not re-sort.
    return {
        "name": tdg.name,
        "nodes": [_mat_to_dict(mat) for mat in tdg.mats],
        "edges": [
            {
                "upstream": e.upstream,
                "downstream": e.downstream,
                "dep_type": e.dep_type.value,
                "metadata_bytes": e.metadata_bytes,
            }
            for e in tdg.edges
        ],
    }


def _tdg_section(tdg: Tdg) -> str:
    """The TDG section's canonical text; memoized per graph by
    :func:`plan_fingerprint`."""
    return canonical_dumps(_tdg_to_dict(tdg))


def _tdg_from_dict(data: Mapping[str, Any]) -> Tdg:
    tdg = Tdg(data["name"])
    for node in data["nodes"]:
        tdg.add_node(_mat_from_dict(node))
    for edge in data["edges"]:
        tdg.add_edge(
            edge["upstream"],
            edge["downstream"],
            DependencyType(edge["dep_type"]),
            edge["metadata_bytes"],
        )
    return tdg


def _network_to_dict(network: Network) -> Dict[str, Any]:
    return {
        "name": network.name,
        "switches": [
            {
                "name": s.name,
                "programmable": s.programmable,
                "num_stages": s.num_stages,
                "stage_capacity": s.stage_capacity,
                "latency_us": s.latency_us,
                "ports": s.ports,
                "port_speed_gbps": s.port_speed_gbps,
            }
            for s in sorted(network.switches, key=lambda s: s.name)
        ],
        "links": [
            {
                "u": link.u,
                "v": link.v,
                "latency_ms": link.latency_ms,
                "bandwidth_gbps": link.bandwidth_gbps,
            }
            for link in sorted(network.links, key=lambda link: link.key)
        ],
    }


def _network_from_dict(data: Mapping[str, Any]) -> Network:
    network = Network(data["name"])
    for s in data["switches"]:
        network.add_switch(
            Switch(
                s["name"],
                s["programmable"],
                s["num_stages"],
                s["stage_capacity"],
                s["latency_us"],
                s["ports"],
                s["port_speed_gbps"],
            )
        )
    for link in data["links"]:
        network.add_link(
            Link(
                link["u"],
                link["v"],
                link["latency_ms"],
                link["bandwidth_gbps"],
            )
        )
    return network


# ----------------------------------------------------------------------
# Plan document
# ----------------------------------------------------------------------
def plan_to_dict(plan: DeploymentPlan) -> Dict[str, Any]:
    """The canonical JSON-serializable document for a plan."""
    return {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        "tdg": _tdg_to_dict(plan.tdg),
        **_plan_sections(plan),
    }


def _plan_sections(plan: DeploymentPlan) -> Dict[str, Any]:
    """The document's sections that describe the plan, not its TDG."""
    placements = [
        {
            "mat": p.mat_name,
            "switch": p.switch,
            "stages": list(p.stages),
        }
        for p in sorted(
            plan.placements.values(), key=lambda p: p.mat_name
        )
    ]
    routing = [
        {
            "pair": list(pair),
            "switches": list(path.switches),
            "latency_us": path.latency_us,
        }
        for pair, path in sorted(plan.routing.items())
    ]
    try:
        e2e: Any = plan.end_to_end_latency_us()
    except DeploymentError:
        # Partially routed plans export with a null latency; validate()
        # still reports the missing pair on reload.
        e2e = None
    return {
        "network": _network_to_dict(plan.network),
        "placements": placements,
        "routing": routing,
        "metrics": {
            "max_metadata_bytes": plan.max_metadata_bytes(),
            "total_metadata_bytes": plan.total_metadata_bytes(),
            "num_occupied_switches": plan.num_occupied_switches(),
            "end_to_end_latency_us": e2e,
        },
    }


def plan_from_dict(data: Mapping[str, Any]) -> DeploymentPlan:
    """Reconstruct a plan from :func:`plan_to_dict` output.

    Raises:
        PlanSchemaError: On a missing/foreign schema header, an
            unsupported version, or a structurally broken document.
    """
    if not isinstance(data, Mapping):
        raise PlanSchemaError(
            f"plan document must be an object, got {type(data).__name__}"
        )
    schema = data.get("schema")
    if schema != SCHEMA:
        raise PlanSchemaError(
            f"not a plan document: schema is {schema!r}, expected {SCHEMA!r}"
        )
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise PlanSchemaError(
            f"unsupported plan schema version {version!r} "
            f"(this reader handles version {SCHEMA_VERSION})"
        )
    try:
        tdg = _tdg_from_dict(data["tdg"])
        network = _network_from_dict(data["network"])
        placements = {
            p["mat"]: MatPlacement(p["mat"], p["switch"], tuple(p["stages"]))
            for p in data["placements"]
        }
        routing = {
            (entry["pair"][0], entry["pair"][1]): Path(
                tuple(entry["switches"]), entry["latency_us"]
            )
            for entry in data["routing"]
        }
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise PlanSchemaError(f"malformed plan document: {exc}") from exc
    return DeploymentPlan(tdg, network, placements, routing)


def canonical_dumps(document: Mapping[str, Any]) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def plan_fingerprint(plan: DeploymentPlan) -> str:
    """SHA-256 hex digest of the plan's canonical serialization.

    The digest of ``canonical_dumps(plan_to_dict(plan))``, fed to the
    hash one section at a time in sorted key order, with the TDG
    section memoized on ``plan.tdg``.
    """
    sections = {
        "schema": SCHEMA,
        "version": SCHEMA_VERSION,
        **_plan_sections(plan),
    }
    texts = {key: canonical_dumps(value) for key, value in sections.items()}
    texts["tdg"] = plan.tdg.memoized(_tdg_section)
    digest = hashlib.sha256()
    opener = "{"
    for key in sorted(texts):
        digest.update(f"{opener}{json.dumps(key)}:".encode("utf-8"))
        digest.update(texts[key].encode("utf-8"))
        opener = ","
    digest.update(b"}")
    return digest.hexdigest()


def plan_document(plan: DeploymentPlan) -> Tuple[Dict[str, Any], str]:
    """``(plan_to_dict(plan), plan_fingerprint(plan))``, building the TDG
    section once.

    When ``plan.tdg`` has no memoized section text yet, it is dumped
    from the document's own ``tdg`` dict and memoized before hashing,
    instead of being rebuilt from the graph.  The text is taken before
    the document is returned, so a caller that edits the document
    cannot change a later fingerprint.
    """
    document = plan_to_dict(plan)
    plan.tdg.memoized(_tdg_section, lambda: canonical_dumps(document["tdg"]))
    return document, plan_fingerprint(plan)


def write_plan(plan: DeploymentPlan, path: str) -> None:
    """Write the canonical plan document to ``path`` (pretty-printed,
    atomically)."""
    with atomic_write(path) as fh:
        json.dump(plan.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_plan(path: str) -> DeploymentPlan:
    """Load a plan document written by :func:`write_plan`."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise PlanSchemaError(f"{path}: not valid JSON: {exc}") from exc
    return plan_from_dict(data)
