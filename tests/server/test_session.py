"""Unit tests for Session (no daemon) and the ops param layer."""

import pytest

from repro.runtime import StoreReloadError
from repro.server.ops import (
    DEPLOY_DEFAULTS,
    SIMULATE_DEFAULTS,
    OpError,
    resolve_params,
)
from repro.server.session import Session, solve_key

PARAMS = {"workload": "real:6", "topology": "wan:12:18", "seed": 3}


class TestResolveParams:
    def test_defaults_fill_in(self):
        p = resolve_params(None, DEPLOY_DEFAULTS)
        assert p["workload"] == "real:10"
        assert p["verify"] is False

    def test_explicit_values_win(self):
        p = resolve_params({"workload": "real:2"}, DEPLOY_DEFAULTS)
        assert p["workload"] == "real:2"

    def test_unknown_keys_rejected(self):
        with pytest.raises(OpError, match="unknown params: bogus"):
            resolve_params({"bogus": 1}, DEPLOY_DEFAULTS)

    @pytest.mark.parametrize(
        "defaults", [DEPLOY_DEFAULTS, SIMULATE_DEFAULTS]
    )
    def test_retired_solver_profile_rejected(self, defaults):
        # Each MILP job has one production solver; a client still
        # naming a search profile gets the unknown-param error.
        with pytest.raises(OpError, match="unknown params: solver_profile"):
            resolve_params({"solver_profile": "classic"}, defaults)


class TestSolveKey:
    def test_decoration_params_excluded(self):
        a = resolve_params(PARAMS, DEPLOY_DEFAULTS)
        b = resolve_params(
            {**PARAMS, "verify": True, "configs": True}, DEPLOY_DEFAULTS
        )
        assert solve_key(a) == solve_key(b)

    def test_solve_params_included(self):
        a = resolve_params(PARAMS, DEPLOY_DEFAULTS)
        b = resolve_params({**PARAMS, "seed": 4}, DEPLOY_DEFAULTS)
        assert solve_key(a) != solve_key(b)


class TestSessionWarmPath:
    def test_repeat_deploy_is_warm_and_identical(self):
        session = Session("t0")
        first = session.deploy(PARAMS)
        second = session.deploy(PARAMS)
        assert first["session"]["source"] == "cold"
        assert second["session"]["source"] == "warm:rebase"
        assert second["fingerprint"] == first["fingerprint"]
        assert session.warm_hits == 1 and session.cold_solves == 1

    def test_warm_versions_share_one_tdg(self):
        """A warm deploy keeps the plan it built instead of re-parsing
        its document, so the TDG (and its serialization memo) carries
        from one warm version to the next."""
        session = Session("t4")
        for _ in range(3):
            session.deploy(PARAMS)
        versions = session.store.versions
        assert [v.reason for v in versions] == [
            "initial", "incremental", "incremental",
        ]
        assert versions[2].plan.tdg is versions[1].plan.tdg
        assert versions[1].plan.tdg is versions[0].plan.tdg
        assert len(set(session.store.fingerprints())) == 1

    def test_changed_params_resolve_cold(self):
        session = Session("t1")
        session.deploy(PARAMS)
        changed = session.deploy({**PARAMS, "seed": 4})
        assert changed["session"]["source"] == "cold"
        assert session.cold_solves == 2

    def test_history_versions_accumulate(self):
        session = Session("t2")
        session.deploy(PARAMS)
        session.deploy(PARAMS)
        session.deploy({**PARAMS, "workload": "real:7"})
        reasons = [v.reason for v in session.store.versions]
        assert reasons == ["initial", "incremental", "replan"]

    def test_info_shape(self):
        session = Session("t3")
        assert session.info()["plan_version"] is None
        session.deploy(PARAMS)
        info = session.info()
        assert info["plan_version"] == 0
        assert info["history_digest"]
        assert info["recovered"] is False


class TestSessionPersistence:
    def test_recovery_resumes_history_and_warmth(self, tmp_path):
        state = str(tmp_path / "sess")
        original = Session("a", state_dir=state)
        first = original.deploy(PARAMS)

        resumed = Session("b", state_dir=state)
        assert resumed.info()["recovered"] is True
        assert resumed.store.fingerprints() == original.store.fingerprints()
        again = resumed.deploy(PARAMS)
        assert again["session"]["source"] == "warm:rebase"
        assert again["fingerprint"] == first["fingerprint"]

    def test_each_deploy_writes_one_plan_file(self, tmp_path, monkeypatch):
        import repro.runtime.store as store_module

        written = []
        real_write_plan = store_module.write_plan

        def counting_write_plan(plan, path):
            written.append(path)
            real_write_plan(plan, path)

        monkeypatch.setattr(store_module, "write_plan", counting_write_plan)
        state = tmp_path / "sess"
        session = Session("a", state_dir=str(state))
        for deploy in range(1, 4):
            session.deploy(PARAMS)
            assert len(written) == deploy
            prefix = str(state / f"plan-{deploy - 1:03d}-")
            assert written[-1].startswith(prefix)
        assert len(list(state.glob("plan-*.json"))) == 3
        resumed = Session("b", state_dir=str(state))
        assert resumed.store.fingerprints() == session.store.fingerprints()

    def test_recovery_continues_the_digest(self, tmp_path):
        state = str(tmp_path / "sess")
        original = Session("a", state_dir=state)
        original.deploy(PARAMS)
        original.deploy(PARAMS)

        resumed = Session("b", state_dir=state)
        assert (
            resumed.store.history_digest()
            == original.store.history_digest()
        )

    def test_corrupt_state_raises_not_restarts(self, tmp_path):
        state = tmp_path / "sess"
        Session("a", state_dir=str(state)).deploy(PARAMS)
        (state / "session.json").write_text("{broken")
        with pytest.raises(StoreReloadError):
            Session("b", state_dir=str(state))

    def test_fresh_state_dir_starts_cold(self, tmp_path):
        session = Session("a", state_dir=str(tmp_path / "new"))
        assert session.info()["recovered"] is False
        assert session.deploy(PARAMS)["session"]["source"] == "cold"
