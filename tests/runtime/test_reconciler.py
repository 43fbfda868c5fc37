"""Unit tests for the reconciler loop and its policies.

The timeout, retry and debounce policies each get a dedicated test, as
does byte-identical replay determinism — the subsystem's core
contracts.
"""

import time

import pytest

from repro.core import Hermes
from repro.network.generators import random_wan
from repro.plan.artifact import DeploymentError
from repro.runtime import (
    EventKind,
    NetworkEvent,
    Reconciler,
    ReconcilerPolicy,
    Scenario,
    generate_scenario,
    seed_rules,
)
from repro.telemetry import Recorder, attached
from tests.conftest import make_sketch_program


@pytest.fixture(scope="module")
def network():
    return random_wan(12, 18, seed=4, num_stages=4)


@pytest.fixture(scope="module")
def programs():
    return [
        make_sketch_program(f"p{i}", index_bytes=2 + i) for i in range(6)
    ]


def scenario_of(*events):
    return Scenario(
        name="unit",
        seed=0,
        workload_spec="sketches:6",
        topology_spec="wan:12:18:4",
        events=tuple(events),
    )


def fail_first_host(plan):
    return NetworkEvent(
        1.0, EventKind.SWITCH_FAIL, plan.occupied_switches()[0]
    )


class TestReconcilerBasics:
    def test_failure_forces_moves_and_rebinds(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        scenario = scenario_of(fail_first_host(plan))
        result = Reconciler(programs, network).run(scenario)
        (outcome,) = result.outcomes
        assert outcome.converged
        assert outcome.forced_moves > 0
        assert len(result.store) == 2
        assert outcome.fingerprint_after == result.store.latest.fingerprint
        # The controller follows the new plan.
        victim = scenario.events[0].target
        assert victim not in result.final_plan.occupied_switches()
        for name in result.final_plan.placements:
            switch, _ = result.controller.resolve(name)
            assert switch == result.final_plan.switch_of(name)

    def test_rules_replayed_with_prepare_hook(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        scenario = scenario_of(fail_first_host(plan))
        result = Reconciler(
            programs, network, prepare_fn=seed_rules
        ).run(scenario)
        (outcome,) = result.outcomes
        assert outcome.rules_replayed > 0

    def test_transient_window_bounds(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        scenario = scenario_of(fail_first_host(plan))
        result = Reconciler(programs, network).run(scenario)
        (outcome,) = result.outcomes
        assert outcome.transient_amax_bytes >= outcome.old_amax_bytes
        assert outcome.transient_amax_bytes >= outcome.new_amax_bytes

    def test_empty_scenario(self, programs, network):
        result = Reconciler(programs, network).run(scenario_of())
        assert len(result.store) == 1
        assert result.outcomes == []

    def test_telemetry_stream(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        scenario = scenario_of(fail_first_host(plan))
        recorder = Recorder()
        with attached(recorder):
            Reconciler(programs, network).run(scenario)
        assert recorder.count("runtime.scenario.start") == 1
        assert recorder.count("runtime.event") == 1
        assert recorder.count("runtime.replan.start") == 1
        assert recorder.count("runtime.rebind") == 1
        assert recorder.count("runtime.converged") == 1
        assert recorder.count("runtime.scenario.done") == 1


class TestDeterminism:
    def test_byte_identical_replay(self, programs, network):
        """Same scenario, two runs: identical fingerprints and diffs."""
        scenario = generate_scenario(network, num_events=8, seed=11)
        a = Reconciler(programs, network).run(scenario)
        b = Reconciler(programs, network).run(scenario)
        assert a.store.fingerprints() == b.store.fingerprints()
        assert [d.to_dict() for d in a.store.diffs()] == [
            d.to_dict() for d in b.store.diffs()
        ]
        assert a.store.history_digest() == b.store.history_digest()


class TestRetryPolicy:
    def test_bounded_retry_recovers(self, programs, network):
        hermes = Hermes()
        calls = {"n": 0}

        def flaky_deploy(progs, net):
            calls["n"] += 1
            if 2 <= calls["n"] <= 3:  # initial deploy succeeds
                raise DeploymentError("transient backend failure")
            return hermes.deploy(progs, net).plan

        plan = hermes.deploy(programs, network).plan
        scenario = scenario_of(fail_first_host(plan))
        policy = ReconcilerPolicy(max_retries=2, retry_backoff_s=0.25)
        result = Reconciler(
            programs, network, policy=policy, deploy_fn=flaky_deploy
        ).run(scenario)
        (outcome,) = result.outcomes
        assert outcome.converged
        assert outcome.attempts == 3
        # Virtual backoff: 0.25 * 2**0 + 0.25 * 2**1 on two failures.
        assert outcome.convergence_time_s >= 0.75

    def test_retries_exhausted_keeps_old_plan(self, programs, network):
        hermes = Hermes()
        state = {"deployed": False}

        def dying_deploy(progs, net):
            if state["deployed"]:
                raise DeploymentError("backend gone")
            state["deployed"] = True
            return hermes.deploy(progs, net).plan

        plan = hermes.deploy(programs, network).plan
        scenario = scenario_of(fail_first_host(plan))
        policy = ReconcilerPolicy(max_retries=1)
        recorder = Recorder()
        with attached(recorder):
            result = Reconciler(
                programs, network, policy=policy, deploy_fn=dying_deploy
            ).run(scenario)
        (outcome,) = result.outcomes
        assert not outcome.converged
        assert outcome.attempts == 2
        assert "backend gone" in outcome.error
        # The old plan stays active and the store gains no version.
        assert len(result.store) == 1
        assert outcome.fingerprint_after == outcome.fingerprint_before
        assert recorder.count("runtime.replan.retry") == 2
        assert recorder.count("runtime.replan.failed") == 1


class TestTimeoutPolicy:
    def test_budget_overrun_falls_back_to_patch(self, programs, network):
        hermes = Hermes()

        def slow_deploy(progs, net):
            time.sleep(0.02)
            return hermes.deploy(progs, net).plan

        plan = hermes.deploy(programs, network).plan
        scenario = scenario_of(fail_first_host(plan))
        policy = ReconcilerPolicy(replan_budget_s=0.0)
        recorder = Recorder()
        with attached(recorder):
            result = Reconciler(
                programs, network, policy=policy, deploy_fn=slow_deploy
            ).run(scenario)
        (outcome,) = result.outcomes
        assert outcome.converged
        assert outcome.used_patch
        assert recorder.count("runtime.replan.fallback") == 1
        assert result.store.latest.reason == "patch"
        # The patch is a valid plan with the victim evacuated.
        result.final_plan.validate()
        victim = scenario.events[0].target
        assert victim not in result.final_plan.occupied_switches()
        # Patch keeps every surviving placement in place: no
        # optimization moves, only forced ones.
        assert outcome.forced_moves > 0
        assert outcome.optimization_moves == 0

    def test_patch_failure_keeps_over_budget_plan(
        self, programs, network, monkeypatch
    ):
        """When no local repair exists, the slow full plan still wins."""
        hermes = Hermes()

        def slow_deploy(progs, net):
            time.sleep(0.02)
            return hermes.deploy(progs, net).plan

        def no_patch(old_plan, network, paths=None):
            raise DeploymentError("no feasible local repair")

        monkeypatch.setattr(
            "repro.runtime.reconciler.cheapest_patch", no_patch
        )
        plan = hermes.deploy(programs, network).plan
        scenario = scenario_of(fail_first_host(plan))
        policy = ReconcilerPolicy(replan_budget_s=0.0)
        recorder = Recorder()
        with attached(recorder):
            result = Reconciler(
                programs, network, policy=policy, deploy_fn=slow_deploy
            ).run(scenario)
        (outcome,) = result.outcomes
        assert outcome.converged
        assert not outcome.used_patch
        assert outcome.rung == "full"
        assert recorder.count("runtime.replan.fallback") == 1
        assert recorder.count("runtime.replan.patch_failed") == 1
        assert result.store.latest.reason == "replan"
        result.final_plan.validate()
        victim = scenario.events[0].target
        assert victim not in result.final_plan.occupied_switches()

    def test_no_budget_never_patches(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        scenario = scenario_of(fail_first_host(plan))
        result = Reconciler(programs, network).run(scenario)
        assert not any(o.used_patch for o in result.outcomes)
        assert all(
            v.reason in ("initial", "replan")
            for v in result.store.versions
        )

    def test_workload_change_skips_patch(self, programs, network):
        """The patch fallback only applies when the TDG is unchanged."""
        plan = Hermes().deploy(programs, network).plan
        events = (
            NetworkEvent(
                1.0, EventKind.WORKLOAD_ADD, "churn0", 42.0
            ),
        )
        scenario = scenario_of(*events)
        policy = ReconcilerPolicy(replan_budget_s=0.0)
        result = Reconciler(
            programs, network, policy=policy
        ).run(scenario)
        (outcome,) = result.outcomes
        assert outcome.converged
        assert not outcome.used_patch
        assert "churn0" in {
            name.split(".")[0]
            for name in result.final_plan.placements
        }


class TestDebouncePolicy:
    def test_burst_triggers_single_replan(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        occupied = plan.occupied_switches()
        events = (
            NetworkEvent(1.00, EventKind.SWITCH_FAIL, occupied[0]),
            NetworkEvent(1.01, EventKind.SWITCH_FAIL, occupied[1]),
            NetworkEvent(3.00, EventKind.LINK_LATENCY,
                         f"{occupied[0]}|{occupied[1]}"),
        )
        # The link event targets failed switches; replace with a live
        # link from the network to keep the scenario valid.
        link = next(
            candidate
            for candidate in network.links
            if candidate.u not in occupied[:2]
            and candidate.v not in occupied[:2]
        )
        events = events[:2] + (
            NetworkEvent(
                3.00, EventKind.LINK_LATENCY, f"{link.u}|{link.v}", 9.0
            ),
        )
        scenario = scenario_of(*events)
        policy = ReconcilerPolicy(debounce_s=0.5)
        recorder = Recorder()
        with attached(recorder):
            result = Reconciler(
                programs, network, policy=policy
            ).run(scenario)
        # Two batches: the 10 ms burst coalesced, the link event alone.
        assert len(result.outcomes) == 2
        assert recorder.count("runtime.replan.start") == 2
        assert len(result.outcomes[0].events) == 2
        # Both burst failures are reflected in the single replan.
        final = result.outcomes[0]
        assert final.converged
        survivors = result.store.versions[1].plan.occupied_switches()
        assert occupied[0] not in survivors
        assert occupied[1] not in survivors

    def test_zero_debounce_replans_every_event(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        occupied = plan.occupied_switches()
        events = (
            NetworkEvent(1.00, EventKind.SWITCH_FAIL, occupied[0]),
            NetworkEvent(1.01, EventKind.SWITCH_FAIL, occupied[1]),
        )
        result = Reconciler(programs, network).run(scenario_of(*events))
        assert len(result.outcomes) == 2


class TestPolicyValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ReconcilerPolicy(replan_budget_s=-1.0)
        with pytest.raises(ValueError):
            ReconcilerPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ReconcilerPolicy(retry_backoff_s=-0.1)
        with pytest.raises(ValueError):
            ReconcilerPolicy(debounce_s=-0.5)
