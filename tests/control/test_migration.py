"""Failure-driven migration: one-event reconciler runs and their moves.

A switch failure is a one-event batch for the lifecycle reconciler: its
full rung re-deploys the workload on the surviving network and
:func:`repro.control.compute_moves` splits the result into forced and
optimization moves.
"""

import pytest

from repro.control import compute_moves
from repro.core import Hermes
from repro.core.verification import verify_dataflow
from repro.dataplane.rules import MatchKind, MatchSpec, Rule
from repro.network import random_wan
from repro.network.switch import Switch
from repro.network.topology import Network
from repro.runtime import (
    EventKind,
    NetworkEvent,
    Reconciler,
    Scenario,
    WorldState,
)
from tests.conftest import make_sketch_program


@pytest.fixture
def programs():
    return [
        make_sketch_program(f"p{i}", index_bytes=2 + i) for i in range(8)
    ]


@pytest.fixture
def network():
    return random_wan(16, 24, seed=4, num_stages=4)


@pytest.fixture
def wan_plan(programs, network):
    return Hermes().deploy(programs, network).plan


def fail_switch(programs, network, victim, prepare_fn=None):
    """Reconcile a scenario whose only event fails ``victim``.

    Returns ``(result, outcome)`` for the run and its one batch.
    """
    scenario = Scenario(
        name="fail",
        seed=0,
        workload_spec="sketches",
        topology_spec=network.name,
        events=(NetworkEvent(1.0, EventKind.SWITCH_FAIL, victim),),
    )
    result = Reconciler(programs, network, prepare_fn=prepare_fn).run(
        scenario
    )
    (outcome,) = result.outcomes
    return result, outcome


class TestMigration:
    def test_failure_produces_valid_new_plan(
        self, programs, network, wan_plan
    ):
        failed = wan_plan.occupied_switches()[0]
        result, outcome = fail_switch(programs, network, failed)
        assert outcome.converged
        assert outcome.rung == "full"
        new_plan = result.final_plan
        new_plan.validate()
        verify_dataflow(new_plan)
        assert failed not in new_plan.occupied_switches()

    def test_every_orphaned_mat_moves(self, programs, network, wan_plan):
        failed = wan_plan.occupied_switches()[0]
        orphaned = set(wan_plan.mats_on(failed))
        result, outcome = fail_switch(programs, network, failed)
        moved = {change.mat_name for change in outcome.plan_diff.moved}
        assert orphaned <= moved
        # The orphans, and only they, are forced moves.
        assert outcome.forced_moves == len(orphaned)
        for name in orphaned:
            assert result.final_plan.switch_of(name) != failed

    def test_forced_vs_optimization_split(
        self, programs, network, wan_plan
    ):
        failed = wan_plan.occupied_switches()[0]
        orphaned = set(wan_plan.mats_on(failed))
        result, outcome = fail_switch(programs, network, failed)
        moves, _ = compute_moves(
            result.store.versions[0].plan,
            result.final_plan,
            vanished={failed},
        )
        forced = {m.mat_name for m in moves if m.forced}
        optimization = {m.mat_name for m in moves if not m.forced}
        assert forced == orphaned
        assert not (forced & optimization)
        assert outcome.forced_moves == len(forced)
        assert outcome.optimization_moves == len(optimization)
        assert outcome.moves == len(outcome.plan_diff.moved)
        for move in moves:
            if not move.forced:
                assert move.source is not None
                assert move.source != move.destination

    def test_unaffected_failure_keeps_plan_cheap(
        self, programs, network, wan_plan
    ):
        # Failing a switch that hosts nothing forces no move; the
        # heuristic may still re-shuffle, and the move set must stay
        # consistent either way.
        unused = next(
            s
            for s in network.switch_names
            if s not in wan_plan.occupied_switches()
        )
        result, outcome = fail_switch(programs, network, unused)
        assert outcome.converged
        assert outcome.forced_moves == 0
        moves, unchanged = compute_moves(
            wan_plan, result.final_plan, vanished={unused}
        )
        assert len(moves) + len(unchanged) == len(wan_plan.placements)

    def test_disruption_fraction(self, programs, network, wan_plan):
        failed = wan_plan.occupied_switches()[0]
        _, outcome = fail_switch(programs, network, failed)
        assert 0.0 < outcome.moves / len(wan_plan.placements) <= 1.0

    def test_rule_replay_counts_from_controller(
        self, programs, network, wan_plan
    ):
        victim = wan_plan.occupied_switches()[0]
        victim_mat = wan_plan.mats_on(victim)[0]
        rule = Rule(
            matches=(
                MatchSpec("ipv4.src_addr", MatchKind.EXACT, 7),
            ),
            action_name=wan_plan.tdg.node(victim_mat).actions[0].name,
        )

        def install(controller):
            controller.install_rule(victim_mat, rule)

        result, outcome = fail_switch(
            programs, network, victim, prepare_fn=install
        )
        assert outcome.rules_replayed == 1
        switch, _ = result.controller.resolve(victim_mat)
        assert switch == result.final_plan.switch_of(victim_mat)
        assert switch != victim
        assert result.controller.table(victim_mat).occupancy == 1

    def test_all_programmable_lost(self):
        # Make only one switch programmable, then fail it.
        custom = Network("one_prog")
        custom.add_switch(Switch("a", programmable=True))
        custom.add_switch(Switch("b", programmable=False))
        custom.connect("a", "b")
        result, outcome = fail_switch(
            [make_sketch_program("p0")], custom, "a"
        )
        assert not outcome.converged
        assert outcome.rung == "none"
        assert "no programmable switches" in outcome.error
        # The old plan stays active.
        assert len(result.store) == 1
        assert outcome.fingerprint_after == outcome.fingerprint_before

    def test_compute_moves_tolerates_workload_change(self, wan_plan):
        # The helper works over the common MAT subset so a reconciler
        # batch mixing a workload change with a failure still gets a
        # move set.
        programs = [
            make_sketch_program(f"p{i}", index_bytes=2 + i)
            for i in range(8)
        ] + [make_sketch_program("extra")]
        grown = Hermes().deploy(programs, wan_plan.network).plan
        moves, unchanged = compute_moves(wan_plan, grown)
        named = {m.mat_name for m in moves} | set(unchanged)
        common = set(wan_plan.placements) & set(grown.placements)
        assert named == common
        for move in moves:
            assert not move.forced  # no host vanished

    def test_compute_moves_vanished_marks_forced(
        self, programs, network, wan_plan
    ):
        victim = wan_plan.occupied_switches()[0]
        world = WorldState(network, programs)
        world.apply(NetworkEvent(1.0, EventKind.SWITCH_FAIL, victim))
        new_plan = Hermes().deploy(programs, world.current_network()).plan
        moves, _ = compute_moves(wan_plan, new_plan, vanished={victim})
        forced = [m for m in moves if m.forced]
        assert forced
        assert {m.mat_name for m in forced} >= set(
            wan_plan.mats_on(victim)
        )
