"""Unit tests for the runtime controller."""

import pytest

from repro.control import Controller, ControllerError
from repro.core import Hermes
from repro.dataplane.rules import MatchKind, MatchSpec, Rule


@pytest.fixture
def controller(six_programs, small_line):
    result = Hermes().deploy(six_programs, small_line)
    return Controller(result.plan)


class TestLookup:
    def test_resolve_returns_switch_and_stages(self, controller):
        switch, stages = controller.resolve("p0.hash")
        assert switch in controller.plan.network.switch_names
        assert stages and all(s >= 1 for s in stages)

    def test_resolve_matches_plan(self, controller):
        for mat_name in controller.plan.placements:
            switch, _stages = controller.resolve(mat_name)
            assert switch == controller.plan.switch_of(mat_name)

    def test_unknown_mat(self, controller):
        with pytest.raises(ControllerError, match="no deployed MAT"):
            controller.table("ghost")

    def test_tables_on_switch(self, controller):
        for switch in controller.plan.occupied_switches():
            names = {t.mat_name for t in controller.tables_on(switch)}
            assert names == set(controller.plan.mats_on(switch))


class TestRuleManagement:
    def rule(self, value=1):
        return Rule(
            matches=(
                MatchSpec("ipv4.src_addr", MatchKind.EXACT, value),
            ),
            action_name="hash_meta_p0_idx",
        )

    def test_install_and_remove(self, controller):
        event = controller.install_rule("p0.hash", self.rule())
        assert event.kind == "install"
        assert controller.table("p0.hash").occupancy == 1
        controller.remove_rule("p0.hash", self.rule())
        assert controller.table("p0.hash").occupancy == 0
        assert len(controller.event_log) == 2

    def test_capacity_enforced(self, controller):
        handle = controller.table("p0.hash")
        for i in range(handle.capacity):
            controller.install_rule("p0.hash", self.rule(i))
        with pytest.raises(ControllerError, match="full"):
            controller.install_rule("p0.hash", self.rule(9999))

    def test_batch_install_all_or_nothing(self, controller):
        handle = controller.table("p0.hash")
        too_many = [self.rule(i) for i in range(handle.capacity + 1)]
        with pytest.raises(ControllerError, match="free entries"):
            controller.install_rules("p0.hash", too_many)
        assert handle.occupancy == 0  # nothing installed

    def test_schema_checked(self, controller):
        bad_action = Rule(action_name="ghost_action")
        with pytest.raises(ControllerError, match="unknown action"):
            controller.install_rule("p0.hash", bad_action)
        bad_field = Rule(
            matches=(MatchSpec("tcp.flags", MatchKind.EXACT, 1),),
            action_name="hash_meta_p0_idx",
        )
        with pytest.raises(ControllerError, match="not in"):
            controller.install_rule("p0.hash", bad_field)

    def test_remove_missing_rule(self, controller):
        with pytest.raises(ControllerError, match="not installed"):
            controller.remove_rule("p0.hash", self.rule())

    def test_drain(self, controller):
        for i in range(3):
            controller.install_rule("p0.hash", self.rule(i))
        assert controller.drain_table("p0.hash") == 3
        assert controller.table("p0.hash").occupancy == 0

    def test_occupancy_report_and_switch_totals(self, controller):
        controller.install_rule("p0.hash", self.rule())
        report = controller.occupancy_report()
        assert report["p0.hash"][0] == 1
        switch, _stages = controller.resolve("p0.hash")
        assert controller.switch_occupancy(switch) >= 1

    def test_rules_to_replay(self, controller):
        controller.install_rule("p0.hash", self.rule(5))
        replay = controller.rules_to_replay("p0.hash")
        assert len(replay) == 1
        assert replay[0].matches[0].value == 5


class TestRebind:
    """install -> migrate -> install: the controller follows the plan."""

    @pytest.fixture
    def controller(self, six_programs):
        # A WAN with enough spare capacity that failing any one host
        # still leaves a feasible re-deployment (small_line does not).
        from repro.core import Hermes
        from repro.network import random_wan

        network = random_wan(12, 18, seed=4, num_stages=4)
        return Controller(Hermes().deploy(six_programs, network).plan)

    def rule(self, value=1):
        return Rule(
            matches=(
                MatchSpec("ipv4.src_addr", MatchKind.EXACT, value),
            ),
            action_name="hash_meta_p0_idx",
        )

    def migrated(self, controller):
        """A plan with p0.hash's host failed, forcing it to move."""
        from repro.core.heuristic import GreedyHeuristic
        from repro.runtime import EventKind, NetworkEvent, WorldState

        plan = controller.plan
        world = WorldState(plan.network, [])
        world.apply(
            NetworkEvent(
                1.0, EventKind.SWITCH_FAIL, plan.switch_of("p0.hash")
            )
        )
        return GreedyHeuristic().deploy(plan.tdg, world.current_network())

    def test_install_migrate_install(self, controller):
        controller.install_rule("p0.hash", self.rule(1))
        old_switch = controller.plan.switch_of("p0.hash")
        new_plan = self.migrated(controller)
        report = controller.rebind(new_plan)
        assert controller.plan is new_plan
        # The runtime rule survived the move and is replayed.
        assert "p0.hash" in report.moved
        assert report.replayed_rules >= 1
        switch, _ = controller.resolve("p0.hash")
        assert switch == new_plan.switch_of("p0.hash")
        assert switch != old_switch
        assert controller.table("p0.hash").occupancy == 1
        # Installs after the migration land on the new switch.
        event = controller.install_rule("p0.hash", self.rule(2))
        assert event.switch == switch
        assert controller.table("p0.hash").occupancy == 2

    def test_replay_events_logged(self, controller):
        controller.install_rule("p0.hash", self.rule(3))
        controller.rebind(self.migrated(controller))
        replays = [
            e for e in controller.event_log if e.kind == "replay"
        ]
        assert replays
        assert any(e.mat_name == "p0.hash" for e in replays)

    def test_unmoved_mats_not_replayed(self, controller):
        old_plan = controller.plan
        new_plan = self.migrated(controller)
        report = controller.rebind(new_plan)
        stayed = [
            name
            for name in new_plan.placements
            if old_plan.switch_of(name) == new_plan.switch_of(name)
        ]
        assert not (set(report.moved) & set(stayed))

    def test_dropped_mat_rejected_with_clear_error(
        self, six_programs, small_line
    ):
        from repro.core import Hermes

        full = Hermes().deploy(six_programs, small_line)
        controller = Controller(full.plan)
        shrunk = Hermes().deploy(six_programs[:3], small_line)
        report = controller.rebind(shrunk.plan)
        dropped = sorted(
            set(full.plan.placements) - set(shrunk.plan.placements)
        )
        assert list(report.dropped) == dropped
        with pytest.raises(
            ControllerError, match="dropped by a migration"
        ):
            controller.install_rule(dropped[0], self.rule())
        # Rebinding back makes the MAT installable again.
        controller.rebind(full.plan)
        controller.install_rule("p3.hash", Rule(
            matches=(
                MatchSpec("ipv4.src_addr", MatchKind.EXACT, 1),
            ),
            action_name="hash_meta_p3_idx",
        ))

    def test_added_mats_reported(self, six_programs, small_line):
        from repro.core import Hermes

        small = Hermes().deploy(six_programs[:3], small_line)
        controller = Controller(small.plan)
        full = Hermes().deploy(six_programs, small_line)
        report = controller.rebind(full.plan)
        assert set(report.added) == (
            set(full.plan.placements) - set(small.plan.placements)
        )
