"""Churn scenarios: seeded, serializable streams of timed events.

A :class:`Scenario` is the input of the lifecycle runtime — an ordered
stream of :class:`NetworkEvent` records (switch failures/recoveries,
drains, link latency changes, programmability flips, workload
additions/removals) stamped with virtual times.  Scenarios are plain
data: they serialize to a canonical versioned JSON document
(``repro.scenario/v1``) so a churn run can be saved, shared, and
replayed bit-identically (``repro churn replay``), and they embed the
workload and topology specs that produced the initial deployment so a
scenario file is self-contained.

:func:`generate_scenario` draws a valid event stream from a seeded RNG
against a concrete network: it only fails live switches, only recovers
failed ones, only retunes live links, and keeps enough programmable
capacity alive for a re-deployment to stand a chance.  Same seed, same
scenario — the determinism contract the reconciler's plan history
inherits.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.atomic import atomic_write
from repro.network.topology import Network

#: Schema identifier embedded in every scenario document.
SCENARIO_SCHEMA = "repro.scenario/v1"
#: Document layout revision within the schema.
SCENARIO_VERSION = 1

#: Separator for link targets ("u|v"); switch names never contain it.
LINK_SEP = "|"


class ScenarioError(ValueError):
    """Raised when a scenario document is malformed or inconsistent."""


class EventKind:
    """The event vocabulary of the lifecycle runtime."""

    SWITCH_FAIL = "switch_fail"
    SWITCH_RECOVER = "switch_recover"
    SWITCH_DRAIN = "switch_drain"
    LINK_LATENCY = "link_latency"
    SET_PROGRAMMABLE = "set_programmable"
    WORKLOAD_ADD = "workload_add"
    WORKLOAD_REMOVE = "workload_remove"

    ALL = (
        SWITCH_FAIL,
        SWITCH_RECOVER,
        SWITCH_DRAIN,
        LINK_LATENCY,
        SET_PROGRAMMABLE,
        WORKLOAD_ADD,
        WORKLOAD_REMOVE,
    )


@dataclass(frozen=True)
class NetworkEvent:
    """One timed lifecycle event.

    Attributes:
        time_s: Virtual event time in seconds (scenarios are sorted).
        kind: One of :class:`EventKind`.
        target: The switch name, ``"u|v"`` link key, or program name
            the event acts on.
        value: Kind-specific payload — new latency in ms for
            ``link_latency``, 0/1 for ``set_programmable``, the
            synthetic-program seed for ``workload_add``.
    """

    time_s: float
    kind: str
    target: str = ""
    value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in EventKind.ALL:
            raise ScenarioError(f"unknown event kind {self.kind!r}")
        if self.time_s < 0:
            raise ScenarioError("event time must be >= 0")

    @property
    def link(self) -> Tuple[str, str]:
        """The (u, v) endpoints of a ``link_latency`` target."""
        u, _, v = self.target.partition(LINK_SEP)
        if not u or not v:
            raise ScenarioError(f"not a link target: {self.target!r}")
        return (u, v)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_s": self.time_s,
            "kind": self.kind,
            "target": self.target,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetworkEvent":
        try:
            return cls(
                data["time_s"], data["kind"], data["target"], data["value"]
            )
        except KeyError as exc:
            raise ScenarioError(f"event missing field {exc}") from exc


@dataclass(frozen=True)
class Scenario:
    """A named, seeded churn scenario.

    Attributes:
        name: Human-readable scenario name.
        seed: The RNG seed the events were drawn with (informational
            for hand-written scenarios).
        workload_spec: CLI workload spec (``real:N`` etc.) for the
            initial deployment — makes the document self-contained.
        topology_spec: CLI topology spec (``wan:N:E:seed`` etc.).
        events: The event stream, sorted by time.
    """

    name: str
    seed: int
    workload_spec: str
    topology_spec: str
    events: Tuple[NetworkEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        times = [e.time_s for e in self.events]
        if times != sorted(times):
            raise ScenarioError("scenario events must be time-sorted")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCENARIO_SCHEMA,
            "version": SCENARIO_VERSION,
            "name": self.name,
            "seed": self.seed,
            "workload_spec": self.workload_spec,
            "topology_spec": self.topology_spec,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"scenario document must be an object, "
                f"got {type(data).__name__}"
            )
        schema = data.get("schema")
        if schema != SCENARIO_SCHEMA:
            raise ScenarioError(
                f"not a scenario document: schema is {schema!r}, "
                f"expected {SCENARIO_SCHEMA!r}"
            )
        if data.get("version") != SCENARIO_VERSION:
            raise ScenarioError(
                f"unsupported scenario version {data.get('version')!r}"
            )
        try:
            return cls(
                name=data["name"],
                seed=data["seed"],
                workload_spec=data["workload_spec"],
                topology_spec=data["topology_spec"],
                events=tuple(
                    NetworkEvent.from_dict(e) for e in data["events"]
                ),
            )
        except KeyError as exc:
            raise ScenarioError(
                f"scenario missing field {exc}"
            ) from exc

    def fingerprint(self) -> str:
        """SHA-256 hex digest of the canonical serialization."""
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_scenario(scenario: Scenario, path: str) -> None:
    """Write the scenario document to ``path`` (pretty-printed,
    atomically)."""
    with atomic_write(path) as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_scenario(path: str) -> Scenario:
    """Load a scenario document written by :func:`write_scenario`."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    return Scenario.from_dict(data)


#: Default relative weights of the event kinds drawn by
#: :func:`generate_scenario`.  Failures dominate — they are the
#: operationally interesting case — with a recovery stream that keeps
#: the network from draining to nothing.
DEFAULT_EVENT_MIX: Dict[str, float] = {
    EventKind.SWITCH_FAIL: 4.0,
    EventKind.SWITCH_RECOVER: 2.0,
    EventKind.SWITCH_DRAIN: 1.0,
    EventKind.LINK_LATENCY: 2.0,
    EventKind.SET_PROGRAMMABLE: 1.0,
    EventKind.WORKLOAD_ADD: 1.0,
    EventKind.WORKLOAD_REMOVE: 0.5,
}


def generate_scenario(
    network: Network,
    num_events: int,
    seed: int,
    workload_spec: str = "real:6",
    topology_spec: str = "",
    name: Optional[str] = None,
    event_mix: Optional[Mapping[str, float]] = None,
    mean_gap_s: float = 1.0,
    burst_probability: float = 0.2,
    prefer_programmable: bool = True,
) -> Scenario:
    """Draw a valid seeded event stream against ``network``.

    The generator mirrors the world state as it emits: it only fails
    live switches, recovers only failed ones, drains only live
    programmable ones, and never takes down the last two programmable
    switches (a re-deployment needs somewhere to go).  With probability
    ``burst_probability`` an event lands almost on top of its
    predecessor, exercising the reconciler's debounce policy.

    Args:
        network: The concrete substrate the scenario will run against.
        num_events: How many events to draw.
        seed: RNG seed — same seed, same scenario.
        workload_spec: Embedded workload spec for the initial deploy.
        topology_spec: Embedded topology spec (informational).
        event_mix: Relative kind weights; defaults to
            :data:`DEFAULT_EVENT_MIX`.
        mean_gap_s: Mean virtual-time gap between events.
        burst_probability: Chance the next event is a near-simultaneous
            burst member (gap ``0.01 * mean_gap_s``).
        prefer_programmable: Bias failures toward programmable switches
            (the ones that host MATs, hence force migrations).
    """
    if num_events < 0:
        raise ValueError("num_events must be >= 0")
    rng = random.Random(seed)
    mix = dict(event_mix or DEFAULT_EVENT_MIX)
    kinds = sorted(mix)
    weights = [mix[k] for k in kinds]

    live = set(network.switch_names)
    failed: set = set()
    drained: set = set()
    programmable = {s.name for s in network.programmable_switches()}
    links = sorted(link.key for link in network.links)
    added_programs: List[str] = []
    next_program = 0

    events: List[NetworkEvent] = []
    time_s = 0.0
    while len(events) < num_events:
        if events and rng.random() < burst_probability:
            time_s += 0.01 * mean_gap_s
        else:
            time_s += rng.uniform(0.5, 1.5) * mean_gap_s
        kind = rng.choices(kinds, weights=weights, k=1)[0]
        event = _draw_event(
            rng,
            kind,
            time_s,
            live=live,
            failed=failed,
            drained=drained,
            programmable=programmable,
            links=links,
            added_programs=added_programs,
            next_program=next_program,
            prefer_programmable=prefer_programmable,
        )
        if event is None:
            continue
        if event.kind == EventKind.WORKLOAD_ADD:
            next_program += 1
        events.append(event)
    return Scenario(
        name=name or f"churn-seed{seed}",
        seed=seed,
        workload_spec=workload_spec,
        topology_spec=topology_spec,
        events=tuple(events),
    )


def _hostable(programmable: set, live: set, drained: set) -> set:
    """Switches that could currently host MATs."""
    return (programmable & live) - drained


def _draw_event(
    rng: random.Random,
    kind: str,
    time_s: float,
    *,
    live: set,
    failed: set,
    drained: set,
    programmable: set,
    links: List[Tuple[str, str]],
    added_programs: List[str],
    next_program: int,
    prefer_programmable: bool,
) -> Optional[NetworkEvent]:
    """One event of ``kind`` if the state admits it, else None.

    Mutates the mirrored state sets to match the emitted event.
    """
    if kind == EventKind.SWITCH_FAIL:
        candidates = sorted(live)
        if prefer_programmable:
            preferred = sorted(_hostable(programmable, live, drained))
            if preferred and rng.random() < 0.7:
                candidates = preferred
        # Keep at least two hostable switches alive.
        candidates = [
            s
            for s in candidates
            if len(_hostable(programmable, live - {s}, drained)) >= 2
        ]
        if not candidates:
            return None
        target = rng.choice(candidates)
        live.discard(target)
        failed.add(target)
        return NetworkEvent(time_s, kind, target)
    if kind == EventKind.SWITCH_RECOVER:
        if not failed:
            return None
        target = rng.choice(sorted(failed))
        failed.discard(target)
        drained.discard(target)
        live.add(target)
        return NetworkEvent(time_s, kind, target)
    if kind == EventKind.SWITCH_DRAIN:
        candidates = sorted(_hostable(programmable, live, drained))
        candidates = [
            s
            for s in candidates
            if len(_hostable(programmable, live, drained | {s})) >= 2
        ]
        if not candidates:
            return None
        target = rng.choice(candidates)
        drained.add(target)
        return NetworkEvent(time_s, kind, target)
    if kind == EventKind.LINK_LATENCY:
        live_links = [
            (u, v) for u, v in links if u in live and v in live
        ]
        if not live_links:
            return None
        u, v = rng.choice(live_links)
        latency_ms = round(rng.uniform(1.0, 10.0), 3)
        return NetworkEvent(
            time_s, kind, f"{u}{LINK_SEP}{v}", latency_ms
        )
    if kind == EventKind.SET_PROGRAMMABLE:
        # Flip a switch's programmability, preserving >= 2 hosts.
        off_candidates = sorted(_hostable(programmable, live, drained))
        on_candidates = sorted(live - programmable)
        choices: List[Tuple[str, float]] = []
        if len(off_candidates) > 2:
            choices.append((rng.choice(off_candidates), 0.0))
        if on_candidates:
            choices.append((rng.choice(on_candidates), 1.0))
        if not choices:
            return None
        target, value = rng.choice(choices)
        if value:
            programmable.add(target)
        else:
            programmable.discard(target)
        return NetworkEvent(time_s, kind, target, value)
    if kind == EventKind.WORKLOAD_ADD:
        name = f"churn{next_program}"
        added_programs.append(name)
        return NetworkEvent(
            time_s, kind, name, float(rng.randrange(1, 10_000))
        )
    if kind == EventKind.WORKLOAD_REMOVE:
        if not added_programs:
            return None
        target = added_programs.pop(rng.randrange(len(added_programs)))
        return NetworkEvent(time_s, kind, target)
    raise AssertionError(kind)  # pragma: no cover


def batch_events(
    events: Sequence[NetworkEvent], debounce_s: float
) -> List[List[NetworkEvent]]:
    """Coalesce a time-sorted event stream into debounce batches.

    Consecutive events closer than ``debounce_s`` apart join one batch
    and trigger a single replan (the reconciler's hysteresis);
    ``debounce_s=0`` puts every event in its own batch.
    """
    batches: List[List[NetworkEvent]] = []
    for event in events:
        if (
            batches
            and debounce_s > 0
            and event.time_s - batches[-1][-1].time_s <= debounce_s
        ):
            batches[-1].append(event)
        else:
            batches.append([event])
    return batches
