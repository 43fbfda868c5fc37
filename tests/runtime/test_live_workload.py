"""The replan ladder deploys the live workload, warm rung included.

Both warm repairs, rebase and delta splice, keep the old plan's TDG.
They are sound only while that TDG is still the live workload, and the
reconciler, not the replanner, decides that: it records the live
``Program`` objects each of its plans was deployed for and compares the
live programs with that record by identity.  A name comparison is not
enough: a ``workload_add`` can bring back a removed name as a different
program, and within one debounce batch a swap leaves every name in
place.

The lock is an invariant, not a golden: in every version of a warm
history, the plan's TDG section equals that of a fresh analysis of the
programs live at that version, and the plan passes ``verify_dataflow``.
"""

import pytest

from repro.core.analyzer import ProgramAnalyzer
from repro.core.verification import verify_dataflow
from repro.plan.serialize import _tdg_section
from repro.runtime import Reconciler, ReconcilerPolicy, WorldState
from repro.runtime.scenario import batch_events
from repro.telemetry import Recorder, attached
from tests.runtime.test_reconciler_differential import (
    default_mix,
    re_added_name,
)

WARM = ReconcilerPolicy(debounce_s=0.01, incremental=True)
COLD = ReconcilerPolicy(debounce_s=0.01)

#: The swap batch of ``re_added_name``: ``extra`` removed and another
#: program of that name added within one debounce window.
SWAP = 5


def live_workloads(programs, network, scenario, result, policy):
    """The programs live at each version of ``result``'s history,
    replayed on a fresh world."""
    world = WorldState(network, programs)
    live = [world.current_programs()]
    batches = batch_events(scenario.events, policy.debounce_s)
    assert len(batches) == len(result.outcomes)
    for batch, outcome in zip(batches, result.outcomes):
        for event in batch:
            world.apply(event)
        if outcome.converged:
            live.append(world.current_programs())
    return live


def assert_every_version_deploys_the_live_workload(
    programs, network, scenario, policy=WARM
):
    result = Reconciler(programs, network, policy=policy).run(scenario)
    versions = result.store.versions
    live = live_workloads(programs, network, scenario, result, policy)
    assert len(live) == len(versions)
    for version, workload in zip(versions, live):
        fresh = ProgramAnalyzer().analyze(workload)
        assert _tdg_section(version.plan.tdg) == _tdg_section(fresh), (
            f"version {version.version} ({version.reason}) deploys a "
            "stale workload"
        )
        verify_dataflow(version.plan)
    return result


@pytest.mark.parametrize("seed", (1, 2, 3, 4))
def test_warm_default_mix_deploys_the_live_workload(seed):
    result = assert_every_version_deploys_the_live_workload(
        *default_mix(seed)
    )
    rungs = {outcome.rung for outcome in result.outcomes}
    assert {"incremental", "full"} <= rungs


def test_warm_re_added_name_deploys_the_live_workload():
    result = assert_every_version_deploys_the_live_workload(*re_added_name())
    assert all(outcome.converged for outcome in result.outcomes)


def test_swap_batch_escalates_and_replans_the_new_program():
    programs, network, scenario = re_added_name()
    recorder = Recorder()
    with attached(recorder):
        warm = Reconciler(programs, network, policy=WARM).run(scenario)
    cold = Reconciler(programs, network, policy=COLD).run(scenario)
    swap = warm.outcomes[SWAP]
    assert [event.kind for event in swap.events] == [
        "workload_remove",
        "workload_add",
    ]
    # Named as before, yet another program: a rebase would keep the
    # removed program's MATs deployed.
    assert swap.rung == "full"
    assert swap.fingerprint_after != swap.fingerprint_before
    assert swap.fingerprint_after == cold.outcomes[SWAP].fingerprint_after
    reasons = [
        event["reason"]
        for event in recorder.of_kind("runtime.replan.escalate")
    ]
    # One per batch with a workload event, the swap's included.
    assert reasons.count("workload_changed") == 4


def test_network_batches_after_a_workload_change_stay_warm():
    """The record follows the full rung: once a changed workload is
    deployed, the next network-only batch is repaired warm again."""
    programs, network, scenario = re_added_name()
    result = Reconciler(programs, network, policy=WARM).run(scenario)
    rungs = [outcome.rung for outcome in result.outcomes]
    # Batch 3 (a switch recovery) follows the removal in batch 2.
    assert rungs[2] == "full"
    assert rungs[3] == "incremental"


def test_converged_events_report_the_reconcilers_verdict():
    """``runtime.converged``'s ``workload_changed`` says whether the
    active plan was deployed for other programs than the live ones, the
    verdict the warm rung acts on: network batches after a deployed
    workload change read False."""
    programs, network, scenario = re_added_name()
    recorder = Recorder()
    with attached(recorder):
        Reconciler(programs, network, policy=WARM).run(scenario)
    verdicts = [
        event["workload_changed"]
        for event in recorder.of_kind("runtime.converged")
    ]
    assert verdicts == [True, False, True, False, True, True, False]
