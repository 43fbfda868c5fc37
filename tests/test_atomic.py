"""Crash-safe writes of on-disk state (:mod:`repro.atomic`).

Each writer of persistent state is driven twice into the same
directory: once normally, then with ``json.dump`` crashing halfway
through its last document.  The crash must leave every file
byte-identical to the first run and no temporary file behind, where a
plain ``open(path, "w")`` would have left a truncated document.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.atomic import atomic_write
from repro.cli import parse_topology
from repro.experiments.harness import DeploymentRecord
from repro.experiments.runner.cache import ResultCache
from repro.plan import plan_from_dict, write_plan
from repro.runtime import PlanStore, generate_scenario, write_scenario
from repro.server.ops import DEPLOY_DEFAULTS, deploy_op, resolve_params
from repro.server.session import Session

PARAMS = resolve_params(
    {"workload": "real:4", "topology": "wan:10:14", "seed": 3},
    DEPLOY_DEFAULTS,
)
REAL_DUMP = json.dump


class CrashingDump:
    """``json.dump`` that counts its calls and, on call ``crash_at``,
    writes half of the document and raises."""

    def __init__(self, crash_at=None) -> None:
        self.calls = 0
        self.crash_at = crash_at

    def __call__(self, obj, fh, **kwargs):
        self.calls += 1
        if self.calls == self.crash_at:
            text = json.dumps(obj, **kwargs)
            fh.write(text[: len(text) // 2])
            raise RuntimeError("crashed mid-write")
        return REAL_DUMP(obj, fh, **kwargs)


@pytest.fixture(scope="module")
def plan():
    return plan_from_dict(deploy_op(PARAMS)["plan"])


def _writers(plan):
    """name -> a callable persisting state into a directory."""

    def store_dir(directory):
        store = PlanStore()
        store.append(plan, time_s=0.0, reason="initial")
        store.write_dir(str(directory))

    def session_persist(directory):
        session = Session("s", state_dir=str(directory))
        if not len(session.store):  # a rerun recovers the first's state
            session.store.append(plan, time_s=0.0, reason="initial")
        session._persist(PARAMS)

    def cache_put(directory):
        record = DeploymentRecord(
            framework="Hermes",
            overhead_bytes=plan.max_metadata_bytes(),
            solve_time_s=0.0,
            timed_out=False,
            occupied_switches=plan.num_occupied_switches(),
        )
        ResultCache(directory).put("ab" + "0" * 62, record, plan.to_dict())

    scenario = generate_scenario(
        parse_topology("wan:10:14", seed=3), num_events=2, seed=3
    )
    return {
        "write_plan": lambda d: write_plan(plan, str(d / "plan.json")),
        "write_scenario": lambda d: write_scenario(
            scenario, str(d / "scenario.json")
        ),
        "PlanStore.write_dir": store_dir,
        "Session._persist": session_persist,
        "ResultCache.put": cache_put,
    }


WRITERS = [
    "write_plan",
    "write_scenario",
    "PlanStore.write_dir",
    "Session._persist",
    "ResultCache.put",
]


def _snapshot(directory):
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("writer", WRITERS)
def test_crash_mid_write_keeps_previous_files(
    writer, plan, tmp_path, monkeypatch
):
    write = _writers(plan)[writer]
    counting = CrashingDump()
    monkeypatch.setattr(json, "dump", counting)
    write(tmp_path)
    before = _snapshot(tmp_path)
    assert before and counting.calls >= 1

    monkeypatch.setattr(json, "dump", CrashingDump(crash_at=counting.calls))
    with pytest.raises(RuntimeError, match="crashed mid-write"):
        write(tmp_path)
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("writer", WRITERS)
def test_files_get_plain_open_mode(writer, plan, tmp_path):
    (tmp_path / "state").mkdir()
    _writers(plan)[writer](tmp_path / "state")
    with open(tmp_path / "reference", "w"):
        pass
    want = stat.S_IMODE(os.stat(tmp_path / "reference").st_mode)
    for path in (tmp_path / "state").rglob("*"):
        if path.is_file():
            assert stat.S_IMODE(path.stat().st_mode) == want, path


def test_atomic_write_matches_plain_open_bytes(tmp_path):
    text = "snowman ☃\nline two\n"
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write(text)
    with atomic_write(str(tmp_path / "atomic.txt")) as fh:
        fh.write(text)
    assert (tmp_path / "atomic.txt").read_bytes() == (
        tmp_path / "plain.txt"
    ).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "atomic.txt",
        "plain.txt",
    ]
