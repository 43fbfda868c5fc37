"""The ``repro.suite/v1`` spec: a declarative experiment suite.

A suite spec is a small JSON (or YAML) document that names a *kind* of
experiment and the *axes* to cross-product; the compiler
(:mod:`repro.suite.compiler`) resolves it into deterministic work —
runner cells for deployments, scenario seeds for churn, sweep jobs for
traffic — and aggregators (:mod:`repro.suite.aggregate`) fold the
results into tables.  exp1-exp7 and fig2 ship as spec files under
:mod:`repro.suite.specs`; a new experiment is a new data file, not new
code.

Schema (all unknown keys are rejected, at every level)::

    {
      "suite": "repro.suite/v1",
      "name": "exp2",                  # identifier (telemetry, cache)
      "kind": "deployment",            # see KIND_AXES
      "title": "...",                  # optional human heading
      "axes": {...},                   # per-kind, see below
      "params": {...},                 # per-kind knobs, all optional
      "aggregate": ["exp2"]            # aggregator names, optional
    }

Axes by kind:

* ``deployment`` — ``workloads`` (workload-grammar strings or
  ``{"spec", "tag"}``), ``topologies`` (catalog names / topology
  grammar, same forms), ``frameworks`` (either
  ``{"set": "paper", ...}`` for the paper's comparison set or a list
  of registry names / ``{"name", **kwargs}``).
* ``churn`` — ``seeds`` (ints; one scenario per seed).
* ``resources`` — ``frameworks`` (list form only; optional).
* ``overhead_sweep`` — ``packet_sizes`` and ``overheads`` (ints).
* ``traffic`` — ``hours`` (numbers) and ``overheads`` (ints).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

SUITE_VERSION = "repro.suite/v1"

#: Axis names each kind accepts (required ones in KIND_REQUIRED_AXES).
KIND_AXES: Dict[str, frozenset] = {
    "deployment": frozenset({"workloads", "topologies", "frameworks"}),
    "churn": frozenset({"seeds"}),
    "resources": frozenset({"frameworks"}),
    "overhead_sweep": frozenset({"packet_sizes", "overheads"}),
    "traffic": frozenset({"hours", "overheads"}),
}

KIND_REQUIRED_AXES: Dict[str, frozenset] = {
    "deployment": frozenset({"workloads", "topologies"}),
    "churn": frozenset({"seeds"}),
    "resources": frozenset(),
    "overhead_sweep": frozenset({"packet_sizes", "overheads"}),
    "traffic": frozenset({"hours", "overheads"}),
}

#: Per-kind parameter defaults; unknown params are rejected.
KIND_PARAMS: Dict[str, Dict[str, Any]] = {
    "deployment": {
        "packet_payload_bytes": 1024,
        "with_end_to_end": True,
        # which axis coordinate becomes Cell.tag ("workload"|"topology")
        "tag_axis": "workload",
        # seeds unseeded wan:N:E topology specs
        "seed": None,
    },
    "churn": {
        "events": 8,
        "workload": "real:10",
    },
    "resources": {
        "num_sketches": 10,
    },
    "overhead_sweep": {
        "message_bytes": 1_000_000,
        "hops": 5,
        "engine": "analytic",
    },
    "traffic": {
        "flows": 200,
        "packet_payload_bytes": 1024,
        "message_bytes": 1_000_000,
        "hops": 5,
        # a DiurnalLoad document (repro.simulation.spec.DiurnalLoad)
        "load": {},
    },
}

_TOP_LEVEL_KEYS = {"suite", "name", "kind", "title", "axes", "params",
                   "aggregate"}


class SuiteSpecError(ValueError):
    """A suite document failed validation."""


@dataclass(frozen=True)
class AxisEntry:
    """One resolved point of a string-valued axis: a spec + its tag.

    ``tag`` labels the coordinate in tables and ``Cell.tag`` (e.g. the
    program count 2 for workload ``real:2``); it defaults to the spec
    string itself.
    """

    spec: str
    tag: Any = None

    def __post_init__(self) -> None:
        if self.tag is None:
            object.__setattr__(self, "tag", self.spec)

    def to_doc(self) -> Any:
        if self.tag == self.spec:
            return self.spec
        return {"spec": self.spec, "tag": self.tag}


def _parse_axis_entries(kind_name: str, raw: Any) -> Tuple[AxisEntry, ...]:
    if not isinstance(raw, (list, tuple)):
        raise SuiteSpecError(f"axis {kind_name!r} must be a list")
    entries: List[AxisEntry] = []
    for item in raw:
        if isinstance(item, str):
            entries.append(AxisEntry(spec=item))
        elif isinstance(item, dict):
            unknown = set(item) - {"spec", "tag"}
            if unknown:
                raise SuiteSpecError(
                    f"unknown keys in {kind_name!r} entry: "
                    f"{sorted(unknown)}"
                )
            if "spec" not in item:
                raise SuiteSpecError(
                    f"{kind_name!r} entry needs a 'spec' key: {item!r}"
                )
            entries.append(
                AxisEntry(spec=item["spec"], tag=item.get("tag"))
            )
        else:
            raise SuiteSpecError(
                f"{kind_name!r} entries must be strings or objects, "
                f"got {item!r}"
            )
    if not entries:
        raise SuiteSpecError(f"axis {kind_name!r} is empty")
    seen = set()
    for entry in entries:
        if entry.spec in seen:
            raise SuiteSpecError(
                f"duplicate {kind_name!r} entry {entry.spec!r}"
            )
        seen.add(entry.spec)
    return tuple(entries)


def _parse_scalar_axis(kind_name: str, raw: Any) -> Tuple[Any, ...]:
    if not isinstance(raw, (list, tuple)):
        raise SuiteSpecError(f"axis {kind_name!r} must be a list")
    values = list(raw)
    if not values:
        raise SuiteSpecError(f"axis {kind_name!r} is empty")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SuiteSpecError(
                f"{kind_name!r} entries must be numbers, got {v!r}"
            )
    if len(set(values)) != len(values):
        raise SuiteSpecError(f"duplicate {kind_name!r} entries")
    return tuple(values)


def _parse_frameworks_axis(raw: Any) -> Any:
    """Validate the frameworks axis; resolution happens in the compiler.

    Returns either ``{"set": "paper", ...}`` (normalized dict) or a
    tuple of ``(name, kwargs)`` pairs.
    """
    if isinstance(raw, dict):
        unknown = set(raw) - {
            "set", "ilp_time_limit_s", "per_program_ilp_time_limit_s",
            "include_optimal",
        }
        if unknown:
            raise SuiteSpecError(
                f"unknown keys in frameworks set: {sorted(unknown)}"
            )
        if raw.get("set") != "paper":
            raise SuiteSpecError(
                f"unknown framework set {raw.get('set')!r} "
                "(only 'paper' is defined)"
            )
        return dict(raw)
    if not isinstance(raw, (list, tuple)):
        raise SuiteSpecError(
            "frameworks must be a {'set': ...} object or a list"
        )
    entries: List[Tuple[str, Dict[str, Any]]] = []
    for item in raw:
        if isinstance(item, str):
            entries.append((item, {}))
        elif isinstance(item, dict):
            if "name" not in item:
                raise SuiteSpecError(
                    f"framework entry needs a 'name' key: {item!r}"
                )
            kwargs = {k: v for k, v in item.items() if k != "name"}
            entries.append((item["name"], kwargs))
        else:
            raise SuiteSpecError(
                f"framework entries must be strings or objects, "
                f"got {item!r}"
            )
    if not entries:
        raise SuiteSpecError("axis 'frameworks' is empty")
    from repro.suite.compiler import FRAMEWORK_REGISTRY

    for name, _ in entries:
        if name not in FRAMEWORK_REGISTRY:
            raise SuiteSpecError(
                f"unknown framework {name!r}; known: "
                f"{sorted(FRAMEWORK_REGISTRY)}"
            )
    return tuple(entries)


@dataclass(frozen=True)
class SuiteSpec:
    """A validated, resolved ``repro.suite/v1`` document."""

    name: str
    kind: str
    title: str = ""
    axes: Mapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    aggregate: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    @staticmethod
    def from_dict(doc: Mapping[str, Any]) -> "SuiteSpec":
        if not isinstance(doc, Mapping):
            raise SuiteSpecError("suite spec must be an object")
        unknown = set(doc) - _TOP_LEVEL_KEYS
        if unknown:
            raise SuiteSpecError(
                f"unknown suite keys: {sorted(unknown)}"
            )
        version = doc.get("suite")
        if version != SUITE_VERSION:
            raise SuiteSpecError(
                f"unsupported suite version {version!r} "
                f"(expected {SUITE_VERSION!r})"
            )
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise SuiteSpecError("suite needs a non-empty 'name'")
        kind = doc.get("kind")
        if kind not in KIND_AXES:
            raise SuiteSpecError(
                f"unknown suite kind {kind!r}; known: "
                f"{sorted(KIND_AXES)}"
            )
        title = doc.get("title", "")
        if not isinstance(title, str):
            raise SuiteSpecError("'title' must be a string")

        raw_axes = doc.get("axes", {})
        if not isinstance(raw_axes, Mapping):
            raise SuiteSpecError("'axes' must be an object")
        allowed = KIND_AXES[kind]
        unknown = set(raw_axes) - allowed
        if unknown:
            raise SuiteSpecError(
                f"unknown axes for kind {kind!r}: {sorted(unknown)} "
                f"(allowed: {sorted(allowed)})"
            )
        missing = KIND_REQUIRED_AXES[kind] - set(raw_axes)
        if missing:
            raise SuiteSpecError(
                f"kind {kind!r} requires axes {sorted(missing)}"
            )
        axes: Dict[str, Any] = {}
        for axis_name, raw in raw_axes.items():
            if axis_name in ("workloads", "topologies"):
                axes[axis_name] = _parse_axis_entries(axis_name, raw)
            elif axis_name == "frameworks":
                axes[axis_name] = _parse_frameworks_axis(raw)
            elif axis_name == "seeds":
                values = _parse_scalar_axis(axis_name, raw)
                for v in values:
                    if not isinstance(v, int):
                        raise SuiteSpecError(
                            f"'seeds' entries must be integers, got {v!r}"
                        )
                axes[axis_name] = values
            else:  # packet_sizes, overheads, hours
                axes[axis_name] = _parse_scalar_axis(axis_name, raw)

        raw_params = doc.get("params", {})
        if not isinstance(raw_params, Mapping):
            raise SuiteSpecError("'params' must be an object")
        defaults = KIND_PARAMS[kind]
        unknown = set(raw_params) - set(defaults)
        if unknown:
            raise SuiteSpecError(
                f"unknown params for kind {kind!r}: {sorted(unknown)} "
                f"(allowed: {sorted(defaults)})"
            )
        params = dict(defaults)
        params.update(raw_params)
        if kind == "deployment" and params["tag_axis"] not in (
            "workload", "topology"
        ):
            raise SuiteSpecError(
                f"tag_axis must be 'workload' or 'topology', "
                f"got {params['tag_axis']!r}"
            )
        if kind == "traffic":
            # validate the load model document eagerly
            from repro.simulation.spec import DiurnalLoad

            try:
                DiurnalLoad.from_dict(dict(params["load"]))
            except (TypeError, ValueError) as exc:
                raise SuiteSpecError(f"bad 'load' model: {exc}") from exc

        raw_aggregate = doc.get("aggregate", ())
        if isinstance(raw_aggregate, str):
            raise SuiteSpecError("'aggregate' must be a list of names")
        if not isinstance(raw_aggregate, (list, tuple)):
            raise SuiteSpecError("'aggregate' must be a list of names")
        aggregate = tuple(raw_aggregate)
        for agg in aggregate:
            if not isinstance(agg, str):
                raise SuiteSpecError(
                    f"aggregator names must be strings, got {agg!r}"
                )
        from repro.suite.aggregate import AGGREGATORS

        for agg in aggregate:
            if agg not in AGGREGATORS:
                raise SuiteSpecError(
                    f"unknown aggregator {agg!r}; known: "
                    f"{sorted(AGGREGATORS)}"
                )

        return SuiteSpec(
            name=name,
            kind=kind,
            title=title,
            axes=axes,
            params=params,
            aggregate=aggregate,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The canonical document (round-trips through ``from_dict``)."""
        axes: Dict[str, Any] = {}
        for axis_name, value in self.axes.items():
            if axis_name in ("workloads", "topologies"):
                axes[axis_name] = [e.to_doc() for e in value]
            elif axis_name == "frameworks":
                if isinstance(value, dict):
                    axes[axis_name] = dict(value)
                else:
                    axes[axis_name] = [
                        name if not kwargs else {"name": name, **kwargs}
                        for name, kwargs in value
                    ]
            else:
                axes[axis_name] = list(value)
        doc: Dict[str, Any] = {
            "suite": SUITE_VERSION,
            "name": self.name,
            "kind": self.kind,
            "axes": axes,
        }
        if self.title:
            doc["title"] = self.title
        # only non-default params, so the document stays minimal
        defaults = KIND_PARAMS[self.kind]
        params = {
            k: v for k, v in self.params.items() if v != defaults.get(k)
        }
        if params:
            doc["params"] = params
        if self.aggregate:
            doc["aggregate"] = list(self.aggregate)
        return doc

    # ------------------------------------------------------------------
    @staticmethod
    def loads(text: str) -> "SuiteSpec":
        """Parse a JSON (or, when available, YAML) suite document."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = _load_yaml(text)
        return SuiteSpec.from_dict(doc)

    @staticmethod
    def load(path: str) -> "SuiteSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return SuiteSpec.loads(fh.read())


def _load_yaml(text: str) -> Any:
    try:
        import yaml
    except ImportError:  # pragma: no cover - yaml is an extra
        raise SuiteSpecError(
            "spec is not valid JSON and PyYAML is not installed"
        ) from None
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SuiteSpecError(f"spec is neither JSON nor YAML: {exc}")
    if not isinstance(doc, dict):
        raise SuiteSpecError("suite spec must be an object")
    return doc


__all__ = [
    "AxisEntry",
    "KIND_AXES",
    "KIND_PARAMS",
    "KIND_REQUIRED_AXES",
    "SUITE_VERSION",
    "SuiteSpec",
    "SuiteSpecError",
]
