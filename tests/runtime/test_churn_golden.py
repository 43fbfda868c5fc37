"""Golden pin: seeded churn replays through ``churn_op``.

``golden_churn_histories.json`` records, for six seeded churn runs, the
plan store's ``history_digest`` and the fingerprint of every plan
version:

* three warm runs (``incremental=True``) of 16 network-only events on
  ``real:10``/``wan:20:30:7``, the repo benchmark's churn shape;
* three cold runs (``incremental=False``) of the default event mix,
  program additions and removals included, on ``real:10``/``wan:16:24``.

The default mix is pinned only cold: a warm run whose delta MILP stops
on its 5 s wall-clock limit yields a plan that depends on machine load.
A change to rebase, splice, the delta solve, the full rung or plan
serialization that alters any version's bytes fails here.

Regenerate the fixture only for an intended plan change:
``PYTHONPATH=src python tests/runtime/test_churn_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.server.ops import churn_op

GOLDEN_PATH = Path(__file__).parent / "golden_churn_histories.json"

#: The benchmark's churn shape: network churn only on a fixed WAN.
NETWORK_WORKLOAD = "real:10"
NETWORK_TOPOLOGY = "wan:20:30:7"
NETWORK_EVENTS = 16
NETWORK_SEEDS = (4, 11, 38)

#: The default event mix, replanned cold.
DEFAULT_MIX_PARAMS = {
    "workload": "real:10",
    "topology": "wan:16:24",
    "events": 16,
    "incremental": False,
}
DEFAULT_MIX_SEEDS = (1, 2, 4)


def _network_only_scenario(seed):
    from repro.cli import parse_topology
    from repro.runtime import generate_scenario
    from repro.runtime.scenario import DEFAULT_EVENT_MIX, EventKind

    workload_events = (EventKind.WORKLOAD_ADD, EventKind.WORKLOAD_REMOVE)
    scenario = generate_scenario(
        parse_topology(NETWORK_TOPOLOGY),
        num_events=NETWORK_EVENTS,
        seed=seed,
        workload_spec=NETWORK_WORKLOAD,
        topology_spec=NETWORK_TOPOLOGY,
        event_mix={
            kind: weight
            for kind, weight in DEFAULT_EVENT_MIX.items()
            if kind not in workload_events
        },
    )
    return scenario.to_dict()


def _cases():
    cases = [
        {"name": f"network-only-{seed}", "incremental": True, "seed": seed}
        for seed in NETWORK_SEEDS
    ]
    cases += [
        {"name": f"default-mix-{seed}", "incremental": False, "seed": seed}
        for seed in DEFAULT_MIX_SEEDS
    ]
    return cases


def _params(case):
    if case["incremental"]:
        return {
            "scenario": _network_only_scenario(case["seed"]),
            "incremental": True,
        }
    return dict(DEFAULT_MIX_PARAMS, seed=case["seed"])


def _record(case):
    history = churn_op(_params(case))["history"]
    return dict(
        case,
        history_digest=history["history_digest"],
        fingerprints=[v["fingerprint"] for v in history["versions"]],
    )


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "expected", _golden(), ids=lambda case: case["name"]
)
def test_churn_history_matches_golden(expected):
    case = {k: expected[k] for k in ("name", "incremental", "seed")}
    assert _record(case) == expected


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump([_record(case) for case in _cases()], fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
