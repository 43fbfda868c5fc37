"""The runtime controller.

After deployment, administrators keep managing the network: installing
measurement rules, updating ACL entries, draining tables.  Logical
programs address their MATs by name; the controller resolves names to
the hosting switch (and pipeline stages) through the deployment plan
and enforces each table's rule capacity ``C_a``.

All mutations are recorded as :class:`RuleEvent` entries, giving the
audit trail real controllers (ONOS, P4Runtime shims) expose.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.dataplane.mat import Mat
from repro.dataplane.rules import Rule
from repro.plan.artifact import DeploymentPlan


class ControllerError(RuntimeError):
    """A control-plane operation could not be applied."""


class _EventKind(enum.Enum):
    INSTALL = "install"
    REMOVE = "remove"
    REPLAY = "replay"


@dataclass(frozen=True)
class RuleEvent:
    """One audit-log entry."""

    sequence: int
    kind: str
    mat_name: str
    switch: str
    rule: Rule


@dataclass(frozen=True)
class RebindReport:
    """What :meth:`Controller.rebind` did to the table set.

    Attributes:
        moved: MATs whose hosting switch changed (rules replayed).
        replayed_rules: Total rules re-installed on moved MATs.
        dropped: MATs present before but absent from the new plan.
        added: MATs the new plan introduces.
    """

    moved: Tuple[str, ...]
    replayed_rules: int
    dropped: Tuple[str, ...]
    added: Tuple[str, ...]


@dataclass
class TableHandle:
    """Runtime view of one deployed MAT.

    Attributes:
        mat_name: Qualified MAT name in the merged TDG.
        switch: Hosting switch.
        stages: Pipeline stages the MAT occupies.
        capacity: ``C_a`` — maximum rules.
        installed: Currently installed rules (baseline rules from the
            program plus runtime additions).
    """

    mat_name: str
    switch: str
    stages: Tuple[int, ...]
    capacity: int
    installed: List[Rule]

    @property
    def occupancy(self) -> int:
        return len(self.installed)

    @property
    def free_entries(self) -> int:
        return self.capacity - self.occupancy


class Controller:
    """Runtime rule management over a deployed plan.

    Args:
        plan: A validated deployment plan.  The MATs' pre-installed
            rules become the initial table contents.
    """

    def __init__(self, plan: DeploymentPlan) -> None:
        self.plan = plan
        self._tables: Dict[str, TableHandle] = {}
        self._log: List[RuleEvent] = []
        self._seq = itertools.count(1)
        self._dropped: set = set()
        for mat_name, placement in plan.placements.items():
            mat = plan.tdg.node(mat_name)
            self._tables[mat_name] = TableHandle(
                mat_name=mat_name,
                switch=placement.switch,
                stages=placement.stages,
                capacity=mat.capacity,
                installed=list(mat.rules),
            )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def table(self, mat_name: str) -> TableHandle:
        try:
            return self._tables[mat_name]
        except KeyError:
            if mat_name in self._dropped:
                raise ControllerError(
                    f"MAT {mat_name!r} was dropped by a migration; its "
                    "table no longer exists on any switch"
                ) from None
            raise ControllerError(
                f"no deployed MAT named {mat_name!r}"
            ) from None

    def resolve(self, mat_name: str) -> Tuple[str, Tuple[int, ...]]:
        """Where a logical MAT physically lives: (switch, stages)."""
        handle = self.table(mat_name)
        return handle.switch, handle.stages

    def tables_on(self, switch: str) -> List[TableHandle]:
        return [t for t in self._tables.values() if t.switch == switch]

    def switch_occupancy(self, switch: str) -> int:
        """Total rules installed across a switch's tables."""
        return sum(t.occupancy for t in self.tables_on(switch))

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def install_rule(self, mat_name: str, rule: Rule) -> RuleEvent:
        """Install one rule, enforcing capacity and schema.

        Raises:
            ControllerError: If the table is full, the rule references
                an unknown action, or matches undeclared fields.
        """
        handle = self.table(mat_name)
        mat = self.plan.tdg.node(mat_name)
        self._check_rule(mat, rule)
        if handle.occupancy >= handle.capacity:
            raise ControllerError(
                f"table {mat_name!r} is full "
                f"({handle.occupancy}/{handle.capacity})"
            )
        handle.installed.append(rule)
        event = RuleEvent(
            next(self._seq), _EventKind.INSTALL.value, mat_name,
            handle.switch, rule,
        )
        self._log.append(event)
        return event

    def install_rules(
        self, mat_name: str, rules: List[Rule]
    ) -> List[RuleEvent]:
        """Batch install; all-or-nothing on capacity."""
        handle = self.table(mat_name)
        if handle.free_entries < len(rules):
            raise ControllerError(
                f"table {mat_name!r} has {handle.free_entries} free "
                f"entries, cannot install {len(rules)}"
            )
        return [self.install_rule(mat_name, rule) for rule in rules]

    def remove_rule(self, mat_name: str, rule: Rule) -> RuleEvent:
        handle = self.table(mat_name)
        try:
            handle.installed.remove(rule)
        except ValueError:
            raise ControllerError(
                f"rule not installed in {mat_name!r}"
            ) from None
        event = RuleEvent(
            next(self._seq), _EventKind.REMOVE.value, mat_name,
            handle.switch, rule,
        )
        self._log.append(event)
        return event

    def drain_table(self, mat_name: str) -> int:
        """Remove every installed rule; returns how many were removed."""
        handle = self.table(mat_name)
        count = len(handle.installed)
        for rule in list(handle.installed):
            self.remove_rule(mat_name, rule)
        return count

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def rebind(self, plan: DeploymentPlan) -> RebindReport:
        """Point the controller at a migrated plan.

        Without this, rule installs after a migration resolve against
        the *old* plan's handles and target a switch that may no longer
        host the MAT (or no longer exist).  ``rebind`` remaps every
        :class:`TableHandle` to the new plan's placement, carries the
        installed rules along — logging one ``replay`` event per rule
        on each MAT that changed switches, the re-installs an operator
        would drive — and forgets tables for MATs the new plan dropped;
        later installs against those raise a :class:`ControllerError`
        naming the migration instead of silently targeting dead state.
        """
        old_tables = self._tables
        new_tables: Dict[str, TableHandle] = {}
        moved: List[str] = []
        added: List[str] = []
        replayed = 0
        for mat_name, placement in plan.placements.items():
            mat = plan.tdg.node(mat_name)
            old = old_tables.get(mat_name)
            installed = (
                list(old.installed) if old is not None else list(mat.rules)
            )
            handle = TableHandle(
                mat_name=mat_name,
                switch=placement.switch,
                stages=placement.stages,
                capacity=mat.capacity,
                installed=installed,
            )
            new_tables[mat_name] = handle
            if old is None:
                added.append(mat_name)
            elif old.switch != placement.switch:
                moved.append(mat_name)
                for rule in installed:
                    self._log.append(
                        RuleEvent(
                            next(self._seq),
                            _EventKind.REPLAY.value,
                            mat_name,
                            placement.switch,
                            rule,
                        )
                    )
                replayed += len(installed)
        dropped = sorted(set(old_tables) - set(new_tables))
        self._dropped |= set(dropped)
        self._dropped -= set(new_tables)
        self._tables = new_tables
        self.plan = plan
        return RebindReport(
            moved=tuple(sorted(moved)),
            replayed_rules=replayed,
            dropped=tuple(dropped),
            added=tuple(sorted(added)),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def event_log(self) -> List[RuleEvent]:
        return list(self._log)

    def rules_to_replay(self, mat_name: str) -> List[Rule]:
        """The rules a migration must re-install elsewhere."""
        return list(self.table(mat_name).installed)

    def occupancy_report(self) -> Mapping[str, Tuple[int, int]]:
        """MAT name -> (installed, capacity) for every table."""
        return {
            name: (handle.occupancy, handle.capacity)
            for name, handle in self._tables.items()
        }

    @staticmethod
    def _check_rule(mat: Mat, rule: Rule) -> None:
        known_actions = {a.name for a in mat.actions}
        if rule.action_name not in known_actions:
            raise ControllerError(
                f"rule references unknown action {rule.action_name!r} "
                f"(table {mat.name!r} offers {sorted(known_actions)})"
            )
        known_fields = mat.match_fields.names
        for spec in rule.matches:
            if spec.field_name not in known_fields:
                raise ControllerError(
                    f"rule matches field {spec.field_name!r} not in "
                    f"table {mat.name!r}'s key {sorted(known_fields)}"
                )
