"""Stable content hashing of deployment problems.

The result cache must return a hit exactly when *the same computation*
would be repeated: same programs (structure, field widths, demands,
order), same network (switches, links, capacities, latencies), same
framework (class and configuration) and same harness parameters.
Python's built-in ``hash`` is salted per process and object identities
change between runs, so the key is built from an explicit canonical
walk of the problem structure, serialized to JSON and digested with
SHA-256.

Everything that can influence a :class:`DeploymentRecord` must appear
in the fingerprint; anything that cannot (e.g. transient solver state)
must not, or the cache would never hit.  The property tests in
``tests/experiments/test_cache_key.py`` pin both directions.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping, Sequence, Tuple

from repro.baselines.base import DeploymentFramework
from repro.dataplane.mat import Mat
from repro.dataplane.program import Program
from repro.network.topology import Network

#: Bump when the record layout or fingerprint scheme changes; old cache
#: entries then miss instead of deserializing garbage.  v2: ILP-backed
#: frameworks grew a search-profile attribute, so their fingerprints
#: changed shape.  v3: cache entries store the serialized
#: deployment plan (``repro.plan`` canonical document) alongside the
#: record, so v2 entries lack the plan payload.  v4: records carry the
#: plan-aware end-to-end metrics (``plan_fct_ratio`` /
#: ``plan_goodput_ratio``), so v3 entries would deserialize with stale
#: defaults.  v5: ``Optimal`` under the ``fast`` profile is solved by
#: HiGHS, which picks other plans among A_max ties (and finds other
#: incumbents on the clock) than the branch & bound whose records v4
#: holds.  v6: the frameworks lost the search-profile attribute again
#: (each ILP has one production solver), so their fingerprints changed
#: shape.
CACHE_KEY_VERSION = 6


def _canon(value: Any) -> Any:
    """Recursively convert ``value`` into a JSON-stable structure."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): _canon(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(v) for v in value)
    if hasattr(value, "value") and value.__class__.__module__ != "builtins":
        # Enum members hash by their wire value.
        return _canon(value.value)
    return repr(value)


def _field_fp(field) -> Tuple:
    return (field.name, field.width_bits, field.kind.value)


def _mat_fp(mat: Mat) -> Tuple:
    detailed = mat.detailed_demand
    return (
        mat.name,
        mat.capacity,
        mat.resource_demand,
        (detailed.sram_bits, detailed.tcam_bits, detailed.alus),
        sorted(_field_fp(f) for f in mat.match_fields),
        sorted(
            (
                a.name,
                a.primitive.value,
                sorted(_field_fp(f) for f in a.read_set),
                sorted(_field_fp(f) for f in a.write_set),
            )
            for a in mat.actions
        ),
        sorted(
            (
                tuple(
                    (m.field_name, m.kind.value, m.value, m.mask_or_prefix)
                    for m in rule.matches
                ),
                rule.action_name,
                rule.priority,
                rule.action_data,
            )
            for rule in mat.rules
        ),
    )


def program_fingerprint(program: Program) -> Tuple:
    """Canonical structure of one program; MAT order is significant."""
    return (
        program.name,
        tuple(_mat_fp(mat) for mat in program.mats),
        sorted(program.conditional_edges),
    )


def network_fingerprint(network: Network) -> Tuple:
    """Canonical structure of the substrate network."""
    switches = sorted(
        (
            s.name,
            s.programmable,
            s.num_stages,
            s.stage_capacity,
            s.latency_us,
            s.ports,
            s.port_speed_gbps,
        )
        for s in network.switches
    )
    links = sorted(
        (link.u, link.v, link.latency_ms, link.bandwidth_gbps)
        for link in network.links
    )
    return (network.name, switches, links)


def framework_fingerprint(framework: DeploymentFramework) -> Tuple:
    """Framework identity: class plus full constructor configuration."""
    config = {k: _canon(v) for k, v in sorted(vars(framework).items())}
    return (
        type(framework).__module__,
        type(framework).__qualname__,
        framework.name,
        framework.merges,
        config,
    )


def cache_key(
    programs: Sequence[Program],
    network: Network,
    framework: DeploymentFramework,
    harness_params: Mapping[str, Any],
) -> str:
    """SHA-256 hex digest naming one (framework x problem) cell."""
    payload = _canon(
        (
            CACHE_KEY_VERSION,
            [program_fingerprint(p) for p in programs],
            network_fingerprint(network),
            framework_fingerprint(framework),
            dict(harness_params),
        )
    )
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
