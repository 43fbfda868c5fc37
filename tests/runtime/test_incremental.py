"""Tests for the warm incremental rung of the reconciler ladder."""

import pytest

from repro.core import Hermes
from repro.network.generators import random_wan
from repro.network.topology import Network
from repro.runtime import (
    EventKind,
    IncrementalEscalation,
    IncrementalReplanner,
    NetworkEvent,
    Reconciler,
    ReconcilerPolicy,
    Scenario,
    find_orphans,
    generate_scenario,
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


def drop_switch(network, victim):
    out = Network(network.name)
    for switch in network.switches:
        if switch.name != victim:
            out.add_switch(switch)
    for link in network.links:
        if victim not in link.key:
            out.add_link(link)
    return out


WARM = ReconcilerPolicy(incremental=True)


class TestIncrementalReplanner:
    def test_rebase_mode_when_no_orphans(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        occupied = set(plan.occupied_switches())
        victim = next(
            s.name for s in network.switches if s.name not in occupied
        )
        shrunk = drop_switch(network, victim)
        assert find_orphans(plan, shrunk) == []
        repaired, mode = IncrementalReplanner().replan(shrunk, plan)
        assert mode == "rebase"
        assert repaired.placements == plan.placements
        assert (
            repaired.max_metadata_bytes() == plan.max_metadata_bytes()
        )

    def test_delta_mode_when_a_host_dies(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        victim = plan.occupied_switches()[0]
        shrunk = drop_switch(network, victim)
        orphans = find_orphans(plan, shrunk)
        assert orphans
        replanner = IncrementalReplanner(max_blast_fraction=1.0)
        repaired, mode = replanner.replan(shrunk, plan)
        assert mode == "delta"
        repaired.validate()
        assert victim not in repaired.occupied_switches()
        for name, placement in plan.placements.items():
            if name not in set(orphans):
                assert repaired.placements[name] == placement

    def test_workload_change_escalates(
        self, programs, network, monkeypatch
    ):
        # The replanner trusts its caller on the workload: the
        # reconciler escalates a batch whose live programs are not
        # those its plan was deployed for, without asking it.
        asked = []
        monkeypatch.setattr(
            IncrementalReplanner,
            "replan",
            lambda self, *args, **kwargs: asked.append(args),
        )
        scenario = scenario_of(
            NetworkEvent(1.0, EventKind.WORKLOAD_REMOVE, programs[-1].name)
        )
        recorder = Recorder()
        with attached(recorder):
            result = Reconciler(
                programs, network, policy=WARM
            ).run(scenario)
        (outcome,) = result.outcomes
        assert outcome.rung == "full"
        (escalation,) = recorder.of_kind("runtime.replan.escalate")
        assert escalation["reason"] == "workload_changed"
        assert asked == []
        deployed = {
            name.split(".", 1)[0] for name in result.final_plan.placements
        }
        assert deployed == {p.name for p in programs[:-1]}

    def test_blast_fraction_escalates(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        victim = plan.occupied_switches()[0]
        shrunk = drop_switch(network, victim)
        with pytest.raises(IncrementalEscalation) as exc:
            IncrementalReplanner(max_blast_fraction=0.0).replan(
                shrunk, plan
            )
        assert exc.value.reason == "blast_fraction"

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            IncrementalReplanner(max_blast_fraction=1.5)
        with pytest.raises(ValueError):
            ReconcilerPolicy(max_blast_fraction=-0.1)


class TestWarmLadder:
    def test_incremental_rung_recorded(self, programs, network):
        plan = Hermes().deploy(programs, network).plan
        occupied = set(plan.occupied_switches())
        spare = next(
            s.name for s in network.switches if s.name not in occupied
        )
        scenario = scenario_of(
            NetworkEvent(1.0, EventKind.SWITCH_FAIL, spare)
        )
        recorder = Recorder()
        with attached(recorder):
            result = Reconciler(
                programs, network, policy=WARM
            ).run(scenario)
        (outcome,) = result.outcomes
        assert outcome.converged
        assert outcome.rung == "incremental"
        assert outcome.attempts == 1
        assert result.store.latest.reason == "incremental"
        assert recorder.count("runtime.replan.incremental") == 1
        doc = outcome.to_dict()
        assert doc["rung"] == "incremental"
        assert doc["backoff_s"] == 0.0

    def test_workload_event_escalates_to_full(self, programs, network):
        scenario = scenario_of(
            NetworkEvent(1.0, EventKind.WORKLOAD_ADD, "churn0", 42.0)
        )
        recorder = Recorder()
        with attached(recorder):
            result = Reconciler(
                programs, network, policy=WARM
            ).run(scenario)
        (outcome,) = result.outcomes
        assert outcome.converged
        assert outcome.rung == "full"
        assert result.store.latest.reason == "replan"
        escalations = recorder.of_kind("runtime.replan.escalate")
        assert [e["reason"] for e in escalations] == [
            "workload_changed"
        ]

    def test_default_policy_never_runs_incremental(
        self, programs, network
    ):
        plan = Hermes().deploy(programs, network).plan
        scenario = scenario_of(
            NetworkEvent(
                1.0, EventKind.SWITCH_FAIL, plan.occupied_switches()[0]
            )
        )
        recorder = Recorder()
        with attached(recorder):
            result = Reconciler(programs, network).run(scenario)
        assert all(o.rung == "full" for o in result.outcomes)
        assert recorder.count("runtime.replan.incremental") == 0

    def test_warm_history_replays_deterministically(
        self, programs, network
    ):
        scenario = generate_scenario(network, num_events=10, seed=11)
        a = Reconciler(programs, network, policy=WARM).run(scenario)
        b = Reconciler(programs, network, policy=WARM).run(scenario)
        assert a.store.history_digest() == b.store.history_digest()
        assert [o.rung for o in a.outcomes] == [
            o.rung for o in b.outcomes
        ]

    def test_report_counts_rungs(self, programs, network):
        scenario = generate_scenario(network, num_events=10, seed=11)
        result = Reconciler(programs, network, policy=WARM).run(scenario)
        report = result.report()
        converged = [o for o in result.outcomes if o.converged]
        assert report.incremental_batches == sum(
            1 for o in converged if o.rung == "incremental"
        )
        assert (
            report.incremental_batches
            + report.full_batches
            + report.patch_batches
            == report.num_converged
        )
        rendered = report.render()
        assert "Rungs:" in rendered
        assert "incremental" in rendered
        doc = report.to_dict()
        assert doc["incremental_batches"] == report.incremental_batches
        from repro.runtime.report import DisruptionReport

        assert (
            DisruptionReport.from_dict(doc).incremental_batches
            == report.incremental_batches
        )
