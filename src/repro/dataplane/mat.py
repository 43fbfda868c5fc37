"""Match-action tables (MATs).

The MAT is the unit of placement in network-wide program deployment.
Following the paper, each MAT ``a`` carries five properties:

* ``match_fields`` — the set ``F^m_a`` of fields the table matches on;
* ``actions`` — the set ``A_a`` of actions it may perform;
* ``modified_fields`` — the set ``F^a_a`` of fields written by those
  actions (derived);
* ``rules`` — the user-specified rule set ``R_a``;
* ``capacity`` — ``C_a``, the maximum number of rules.

In addition each MAT exposes a *resource demand*: how much of a pipeline
stage it occupies.  The optimization framework treats per-stage capacity
as a single scalar ``C_res`` (the paper's simplification), so the demand
is normalized to stage fractions; a detailed SRAM/TCAM/ALU breakdown is
kept for the resource-consumption experiment (Exp#6).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Tuple

from repro.dataplane.actions import Action
from repro.dataplane.fields import Field, FieldSet
from repro.dataplane.rules import Rule

#: Reference per-stage capacities used to normalize detailed demands.
#: Loosely modeled on one Tofino MAU stage.
STAGE_SRAM_BITS = 128 * 8 * 1024 * 8  # 128 blocks x 8 KiB
STAGE_TCAM_BITS = 24 * 512 * 44  # 24 blocks x 512 rows x 44 bits
STAGE_ALUS = 4


@dataclass(frozen=True)
class ResourceDemand:
    """Detailed per-resource demand of one MAT.

    Attributes:
        sram_bits: Exact-match table + register memory.
        tcam_bits: Ternary/LPM match memory.
        alus: Arithmetic units used by the MAT's actions.
    """

    sram_bits: int = 0
    tcam_bits: int = 0
    alus: int = 0

    def __post_init__(self) -> None:
        for name in ("sram_bits", "tcam_bits", "alus"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def normalized(self) -> float:
        """The stage fraction this demand occupies.

        The binding resource determines the fraction: a MAT that needs
        30% of a stage's TCAM and 10% of its SRAM occupies 30% of the
        stage for placement purposes.
        """
        return max(
            self.sram_bits / STAGE_SRAM_BITS,
            self.tcam_bits / STAGE_TCAM_BITS,
            self.alus / STAGE_ALUS,
        )

    def __add__(self, other: "ResourceDemand") -> "ResourceDemand":
        return ResourceDemand(
            self.sram_bits + other.sram_bits,
            self.tcam_bits + other.tcam_bits,
            self.alus + other.alus,
        )


class Mat:
    """A match-action table.

    Args:
        name: Table name, unique within the merged TDG.
        match_fields: The fields the table matches on (``F^m``).
        actions: The table's actions (``A``).
        capacity: Maximum number of rules (``C_a``).
        rules: Installed rules; must not exceed ``capacity`` and must
            reference declared actions and match fields.
        resource_demand: Normalized stage fraction in ``(0, +inf)``.
            If omitted it is derived from capacity, key width and match
            kinds via the reference stage model.
        detailed_demand: Optional SRAM/TCAM/ALU breakdown; derived when
            omitted.

    No value derived from these arguments (the demands, the field sets,
    the signature) reads the name, so a copy renamed for the merged
    namespace (:func:`repro.tdg.builder.build_tdg`) shares them.
    """

    def __init__(
        self,
        name: str,
        match_fields: Iterable[Field] = (),
        actions: Iterable[Action] = (),
        capacity: int = 1024,
        rules: Iterable[Rule] = (),
        resource_demand: Optional[float] = None,
        detailed_demand: Optional[ResourceDemand] = None,
    ) -> None:
        if not name:
            raise ValueError("MAT name must be non-empty")
        if capacity <= 0:
            raise ValueError(f"MAT {name!r}: capacity must be positive")
        self.name = name
        self.match_fields = FieldSet(match_fields)
        self.actions: Tuple[Action, ...] = tuple(actions)
        if not self.actions:
            raise ValueError(f"MAT {name!r} needs at least one action")
        action_names = [a.name for a in self.actions]
        if len(action_names) != len(set(action_names)):
            raise ValueError(f"MAT {name!r} has duplicate action names")
        self.capacity = capacity
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self._validate_rules()
        self._detailed = detailed_demand or self._derive_detailed_demand()
        if resource_demand is None:
            resource_demand = self._detailed.normalized()
        if resource_demand <= 0:
            # Every MAT occupies some nonzero slice of a stage (match
            # crossbar, gateway logic) even with an empty rule set.
            resource_demand = 0.01
        self.resource_demand = float(resource_demand)

    def _validate_rules(self) -> None:
        if len(self.rules) > self.capacity:
            raise ValueError(
                f"MAT {self.name!r}: {len(self.rules)} rules exceed "
                f"capacity {self.capacity}"
            )
        known_actions = {a.name for a in self.actions}
        known_fields = self.match_fields.names
        for rule in self.rules:
            if rule.action_name not in known_actions:
                raise ValueError(
                    f"MAT {self.name!r}: rule references unknown action "
                    f"{rule.action_name!r}"
                )
            for spec in rule.matches:
                if spec.field_name not in known_fields:
                    raise ValueError(
                        f"MAT {self.name!r}: rule matches undeclared "
                        f"field {spec.field_name!r}"
                    )

    def _derive_detailed_demand(self) -> ResourceDemand:
        key_bits = sum(f.width_bits for f in self.match_fields)
        uses_tcam = any(
            spec.kind.needs_tcam
            for rule in self.rules
            for spec in rule.matches
        )
        # Without installed rules, infer TCAM use from wide keys being
        # typical LPM/ternary candidates only if explicitly ruled; keep
        # SRAM as the default residence.
        entry_bits = max(key_bits, 1) + 32  # key + action data
        total_bits = entry_bits * self.capacity
        alus = sum(a.alu_cost for a in self.actions)
        if uses_tcam:
            return ResourceDemand(tcam_bits=total_bits, alus=alus)
        return ResourceDemand(sram_bits=total_bits, alus=alus)

    @property
    def detailed_demand(self) -> ResourceDemand:
        return self._detailed

    # A MAT never changes after construction (nothing reassigns its
    # actions, match fields, rules or capacity), so the values below
    # are computed once.
    @cached_property
    def modified_fields(self) -> FieldSet:
        """``F^a``: the union of fields written by the MAT's actions."""
        return FieldSet(
            field for action in self.actions for field in action.writes
        )

    @cached_property
    def read_fields(self) -> FieldSet:
        """Fields consumed either as match key or as action inputs."""
        return FieldSet(
            chain(
                self.match_fields,
                (field for action in self.actions for field in action.reads),
            )
        )

    def signature(self) -> Tuple:
        """A structural fingerprint for redundancy detection.

        Two MATs with equal signatures implement the same processing
        (same match key, same action read/write behaviour, same rules
        and capacity) and can be deduplicated during TDG merging.
        """
        return self._signature

    @cached_property
    def _signature(self) -> Tuple:
        action_sig = tuple(
            sorted(
                (a.name, a.primitive.value, a.read_set.names, a.write_set.names)
                for a in self.actions
            )
        )
        rule_sig = tuple(
            sorted(
                (
                    tuple(
                        (m.field_name, m.kind.value, m.value, m.mask_or_prefix)
                        for m in rule.matches
                    ),
                    rule.action_name,
                    rule.priority,
                )
                for rule in self.rules
            )
        )
        return (self.match_fields.names, action_sig, self.capacity, rule_sig)

    def is_redundant_with(self, other: "Mat") -> bool:
        """Whether ``other`` performs identical processing (see paper §IV)."""
        return self.signature() == other.signature()

    def action(self, name: str) -> Action:
        for act in self.actions:
            if act.name == name:
                return act
        raise KeyError(f"MAT {self.name!r} has no action {name!r}")

    def uses_tcam(self) -> bool:
        return self._detailed.tcam_bits > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Mat({self.name!r}, key={sorted(self.match_fields.names)}, "
            f"demand={self.resource_demand:.3f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.name == other.name and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash((self.name, self.signature()))
