"""Unit tests for the versioned plan store."""

import json

import pytest

from repro.core import Hermes
from repro.network.generators import random_wan
from repro.plan import read_plan
from repro.runtime import EventKind, NetworkEvent, PlanStore, WorldState
from tests.conftest import make_sketch_program


@pytest.fixture(scope="module")
def plans():
    """Three consecutive plans: initial, after a failure, after another.

    Each failure takes out the latest plan's first host, and the next
    plan is deployed on the world's network after it.
    """
    programs = [
        make_sketch_program(f"p{i}", index_bytes=2 + i) for i in range(6)
    ]
    network = random_wan(12, 18, seed=4, num_stages=4)
    world = WorldState(network, programs)
    plans = [Hermes().deploy(programs, network).plan]
    for time_s in (1.0, 2.0):
        victim = plans[-1].occupied_switches()[0]
        world.apply(NetworkEvent(time_s, EventKind.SWITCH_FAIL, victim))
        plans.append(
            Hermes().deploy(programs, world.current_network()).plan
        )
    return plans


@pytest.fixture
def store(plans):
    store = PlanStore()
    store.append(plans[0], time_s=0.0, reason="initial")
    store.append(plans[1], time_s=1.0, reason="replan")
    store.append(plans[2], time_s=2.0, reason="replan")
    return store


class TestStore:
    def test_versions_ordered(self, store, plans):
        assert len(store) == 3
        assert [v.version for v in store.versions] == [0, 1, 2]
        assert [v.plan for v in store.versions] == plans
        assert store.latest.plan is plans[2]

    def test_fingerprints_match_plans(self, store, plans):
        assert store.fingerprints() == [p.fingerprint() for p in plans]

    def test_lookup_by_fingerprint(self, store, plans):
        assert store.get(plans[1].fingerprint()) is plans[1]
        with pytest.raises(KeyError):
            store.get("0" * 64)

    def test_consecutive_diffs(self, store):
        diffs = store.diffs()
        assert len(diffs) == 2
        assert not diffs[0].is_empty
        assert not diffs[1].is_empty

    def test_history_digest_stable_and_sensitive(self, plans):
        a, b = PlanStore(), PlanStore()
        for s in (a, b):
            s.append(plans[0], 0.0, "initial")
            s.append(plans[1], 1.0, "replan")
        assert a.history_digest() == b.history_digest()
        b.append(plans[2], 2.0, "replan")
        assert a.history_digest() != b.history_digest()

    def test_empty_store(self):
        store = PlanStore()
        assert store.latest is None
        assert len(store) == 0
        with pytest.raises(ValueError):
            store.end_to_end_diff()

    def test_write_dir(self, store, plans, tmp_path):
        directory = str(tmp_path / "plans")
        paths = store.write_dir(directory)
        assert len(paths) == 4  # 3 versions + history.json
        # Every plan document round-trips through repro.plan/v1.
        for path, plan in zip(paths[:3], plans):
            loaded = read_plan(path)
            assert loaded.fingerprint() == plan.fingerprint()
        with open(paths[3]) as fh:
            history = json.load(fh)
        assert history["history_digest"] == store.history_digest()
        assert [v["reason"] for v in history["versions"]] == [
            "initial", "replan", "replan",
        ]

    def test_to_dict_summary(self, store):
        doc = store.to_dict()
        assert len(doc["versions"]) == 3
        assert len(doc["diffs"]) == 2
        for version in doc["versions"]:
            assert "a_max_bytes" in version
            assert "occupied_switches" in version


class TestReadDir:
    """write_dir -> read_dir round trips: the session-recovery path."""

    def test_reload_reproduces_the_history(self, store, tmp_path):
        directory = str(tmp_path / "plans")
        store.write_dir(directory)
        reloaded = PlanStore.read_dir(directory)
        assert len(reloaded) == len(store)
        assert reloaded.fingerprints() == store.fingerprints()
        assert reloaded.history_digest() == store.history_digest()
        assert [v.time_s for v in reloaded.versions] == [0.0, 1.0, 2.0]
        assert [v.reason for v in reloaded.versions] == [
            "initial", "replan", "replan",
        ]

    def test_reload_reproduces_per_step_diffs(self, store, tmp_path):
        directory = str(tmp_path / "plans")
        store.write_dir(directory)
        reloaded = PlanStore.read_dir(directory)
        originals = [d.to_dict() for d in store.diffs()]
        recovered = [d.to_dict() for d in reloaded.diffs()]
        assert recovered == originals
        assert (
            reloaded.end_to_end_diff().to_dict()
            == store.end_to_end_diff().to_dict()
        )

    def test_append_after_reload_continues_the_digest(
        self, store, plans, tmp_path
    ):
        """Appending to a reloaded store must equal appending to the
        original: digest continuity is what lets a server session pick
        a history back up from disk."""
        directory = str(tmp_path / "plans")
        store.write_dir(directory)
        reloaded = PlanStore.read_dir(directory)
        # The same next plan lands on both histories.
        store.append(plans[0], time_s=3.0, reason="replan")
        reloaded.append(plans[0], time_s=3.0, reason="replan")
        assert reloaded.history_digest() == store.history_digest()
        assert (
            reloaded.diffs()[-1].to_dict() == store.diffs()[-1].to_dict()
        )

    def test_reload_then_rewrite_is_stable(self, store, tmp_path):
        first = str(tmp_path / "a")
        second = str(tmp_path / "b")
        store.write_dir(first)
        reloaded = PlanStore.read_dir(first)
        reloaded.write_dir(second)
        with open(first + "/history.json") as fh:
            original = json.load(fh)
        with open(second + "/history.json") as fh:
            rewritten = json.load(fh)
        assert rewritten == original

    def test_missing_plan_file_raises(self, store, tmp_path):
        import os

        from repro.runtime import StoreReloadError

        directory = str(tmp_path / "plans")
        paths = store.write_dir(directory)
        os.remove(paths[1])
        with pytest.raises(StoreReloadError, match="version 1"):
            PlanStore.read_dir(directory)

    def test_tampered_plan_raises(self, store, tmp_path):
        from repro.runtime import StoreReloadError

        directory = str(tmp_path / "plans")
        paths = store.write_dir(directory)
        with open(paths[2]) as fh:
            doc = json.load(fh)
        doc["placements"] = {}
        with open(paths[2], "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(StoreReloadError):
            PlanStore.read_dir(directory)

    def test_empty_directory_raises(self, tmp_path):
        from repro.runtime import StoreReloadError

        with pytest.raises(StoreReloadError, match="history.json"):
            PlanStore.read_dir(str(tmp_path / "nothing"))
