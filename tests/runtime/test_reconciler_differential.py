"""Differential tests: the reconciler's default deploy, which analyses
the live workload once per change of it, against a cold deploy that
analyses on every call.

A network event leaves the workload alone, so the default deploy keeps
the merged TDG of the live programs (held by identity) and places it
again on every full replan until the workload changes.  The cold
reference is the ``deploy_fn`` the reconciler used to build for itself,
``Hermes().deploy(programs, network).plan``.  Both must produce the same
plan history: the same history digest and every version's fingerprint.

* Network-only scenarios of the repo benchmark's churn shape, warm and
  cold.
* Default-mix scenarios, program additions and removals included,
  replanned cold.
* A hand-written scenario that adds a program, removes it and adds a
  different program under the same name, once in a later batch and
  once in the same batch as the removal.

The analysis count is pinned too: a network-only run analyses once, a
run with ``k`` workload events at most ``1 + k`` times.
"""

import pytest

from repro.cli import parse_topology, parse_workload
from repro.core import Hermes
from repro.core.analyzer import ProgramAnalyzer
from repro.runtime import (
    EventKind,
    NetworkEvent,
    Reconciler,
    ReconcilerPolicy,
    Scenario,
    generate_scenario,
)
from repro.runtime.scenario import DEFAULT_EVENT_MIX

WARM = ReconcilerPolicy(incremental=True)
COLD = ReconcilerPolicy()

NETWORK_MIX = {
    kind: weight
    for kind, weight in DEFAULT_EVENT_MIX.items()
    if kind not in (EventKind.WORKLOAD_ADD, EventKind.WORKLOAD_REMOVE)
}


def cold_deploy(programs, network):
    return Hermes().deploy(programs, network).plan


def history(result):
    store = result.store
    return store.history_digest(), [v.fingerprint for v in store.versions]


def assert_histories_agree(programs, network, scenario, policy):
    default = Reconciler(programs, network, policy=policy).run(scenario)
    cold = Reconciler(
        programs, network, policy=policy, deploy_fn=cold_deploy
    ).run(scenario)
    assert history(default) == history(cold)
    return default


def network_only(seed, events=16):
    """The repo benchmark's churn shape."""
    topology = "wan:20:30:7"
    network = parse_topology(topology)
    scenario = generate_scenario(
        network,
        num_events=events,
        seed=seed,
        workload_spec="real:10",
        topology_spec=topology,
        event_mix=NETWORK_MIX,
    )
    return parse_workload("real:10"), network, scenario


def default_mix(seed):
    """The churn golden's cold default-mix shape."""
    topology = f"wan:16:24:{seed}"
    network = parse_topology(topology)
    scenario = generate_scenario(
        network,
        num_events=16,
        seed=seed,
        workload_spec="real:10",
        topology_spec=topology,
    )
    return parse_workload("real:10"), network, scenario


def re_added_name():
    """Add ``extra``, remove it, re-add a different ``extra``; then
    swap ``extra`` for another program of that name within one batch
    (``debounce_s`` coalesces the removal and the addition)."""
    programs, network, _ = default_mix(1)
    victim = next(s.name for s in network.switches if s.programmable)
    events = (
        NetworkEvent(1.0, EventKind.WORKLOAD_ADD, "extra", 3),
        NetworkEvent(2.0, EventKind.SWITCH_FAIL, victim),
        NetworkEvent(3.0, EventKind.WORKLOAD_REMOVE, "extra"),
        NetworkEvent(4.0, EventKind.SWITCH_RECOVER, victim),
        NetworkEvent(5.0, EventKind.WORKLOAD_ADD, "extra", 7),
        NetworkEvent(6.0, EventKind.WORKLOAD_REMOVE, "extra"),
        NetworkEvent(6.001, EventKind.WORKLOAD_ADD, "extra", 11),
        NetworkEvent(7.0, EventKind.SWITCH_FAIL, victim),
    )
    scenario = Scenario(
        name="re-added-name",
        seed=0,
        workload_spec="real:10",
        topology_spec="wan:16:24:1",
        events=events,
    )
    return programs, network, scenario


@pytest.mark.parametrize("seed", (4, 11))
@pytest.mark.parametrize("policy", (WARM, COLD), ids=("warm", "cold"))
def test_network_only_histories_agree(seed, policy):
    assert_histories_agree(*network_only(seed), policy)


@pytest.mark.parametrize("seed", (1, 2, 4))
def test_default_mix_histories_agree(seed):
    assert_histories_agree(*default_mix(seed), COLD)


def test_re_added_name_histories_agree():
    programs, network, scenario = re_added_name()
    policy = ReconcilerPolicy(debounce_s=0.01)
    result = assert_histories_agree(programs, network, scenario, policy)
    assert len(result.outcomes) == 7
    assert all(outcome.converged for outcome in result.outcomes)
    # The same-batch swap changed the plan although no name changed.
    assert (
        result.outcomes[5].fingerprint_before
        != result.outcomes[5].fingerprint_after
    )


# ----------------------------------------------------------------------
# How often Algorithm 1 runs
# ----------------------------------------------------------------------
@pytest.fixture
def analyses(monkeypatch):
    """Counts ``ProgramAnalyzer.analyze`` calls."""
    calls = []
    original = ProgramAnalyzer.analyze

    def counting(self, programs):
        calls.append(tuple(p.name for p in programs))
        return original(self, programs)

    monkeypatch.setattr(ProgramAnalyzer, "analyze", counting)
    return calls


@pytest.mark.parametrize("policy", (WARM, COLD), ids=("warm", "cold"))
def test_network_only_run_analyses_once(analyses, policy):
    programs, network, scenario = network_only(4)
    result = Reconciler(programs, network, policy=policy).run(scenario)
    assert len(result.outcomes) == 16
    assert any(o.rung == "full" for o in result.outcomes)
    assert len(analyses) == 1


@pytest.mark.parametrize("seed", (1, 2, 4))
def test_workload_events_bound_the_analyses(analyses, seed):
    programs, network, scenario = default_mix(seed)
    workload_events = sum(
        e.kind in (EventKind.WORKLOAD_ADD, EventKind.WORKLOAD_REMOVE)
        for e in scenario.events
    )
    assert workload_events
    Reconciler(programs, network, policy=COLD).run(scenario)
    assert len(analyses) <= 1 + workload_events


def test_injected_deploy_fn_runs_on_every_call(analyses):
    programs, network, scenario = network_only(4, events=4)
    result = Reconciler(
        programs, network, policy=COLD, deploy_fn=cold_deploy
    ).run(scenario)
    assert len(analyses) == 1 + len(result.outcomes)
