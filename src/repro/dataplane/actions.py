"""MAT actions.

An action is what a MAT performs on a matched packet.  For deployment
purposes an action is fully characterized by the sets of fields it
*reads* and *writes*: dependency classification (match / action /
reverse-match dependencies) is computed from these read/write sets, and
the byte overhead of an edge is computed from the metadata subset of the
written fields.

The module also exposes convenience constructors for the primitives that
appear in the bundled workloads (forwarding, field rewrites, hash index
computation, counter updates).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterable, Sequence, Tuple

from repro.dataplane.fields import Field, FieldSet


class ActionPrimitive(enum.Enum):
    """The kind of operation an action performs.

    The primitive determines the ALU demand of the action (used by the
    per-stage resource model) but not its dependency behaviour, which is
    derived purely from the read/write sets.
    """

    NO_OP = "no_op"
    FORWARD = "forward"
    DROP = "drop"
    MODIFY_FIELD = "modify_field"
    HASH = "hash"
    COUNTER = "counter"
    REGISTER = "register"
    ENCAP = "encap"
    DECAP = "decap"

    @property
    def alu_cost(self) -> int:
        """Number of ALU slots the primitive occupies in one stage."""
        return _ALU_COSTS[self]


_ALU_COSTS = {
    ActionPrimitive.NO_OP: 0,
    ActionPrimitive.FORWARD: 1,
    ActionPrimitive.DROP: 1,
    ActionPrimitive.MODIFY_FIELD: 1,
    ActionPrimitive.HASH: 2,
    ActionPrimitive.COUNTER: 2,
    ActionPrimitive.REGISTER: 2,
    ActionPrimitive.ENCAP: 2,
    ActionPrimitive.DECAP: 2,
}


@dataclass(frozen=True)
class Action:
    """A single MAT action.

    Attributes:
        name: Action name, unique within its MAT.
        primitive: The operation kind (drives ALU cost).
        reads: Fields whose values the action consumes.
        writes: Fields whose values the action modifies.  The union of
            these across a MAT's actions forms the MAT's ``F^a`` set.
    """

    name: str
    primitive: ActionPrimitive = ActionPrimitive.NO_OP
    reads: Tuple[Field, ...] = dc_field(default_factory=tuple)
    writes: Tuple[Field, ...] = dc_field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("action name must be non-empty")
        object.__setattr__(self, "reads", tuple(self.reads))
        object.__setattr__(self, "writes", tuple(self.writes))

    # An action never changes after construction, so its field sets
    # are built once (``cached_property`` writes the instance dict,
    # which a frozen dataclass still has).
    @cached_property
    def read_set(self) -> FieldSet:
        return FieldSet(self.reads)

    @cached_property
    def write_set(self) -> FieldSet:
        return FieldSet(self.writes)

    @property
    def alu_cost(self) -> int:
        return self.primitive.alu_cost

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Action({self.name!r}, {self.primitive.value}, "
            f"reads={[f.name for f in self.reads]}, "
            f"writes={[f.name for f in self.writes]})"
        )


def no_op(name: str = "no_op") -> Action:
    """An action that matches but modifies nothing."""
    return Action(name, ActionPrimitive.NO_OP)


def forward(port_field: Field, name: str = "forward") -> Action:
    """Set the egress port (writes the given metadata field)."""
    return Action(name, ActionPrimitive.FORWARD, writes=(port_field,))


def drop(name: str = "drop") -> Action:
    """Drop the packet."""
    return Action(name, ActionPrimitive.DROP)


def modify(
    target: Field,
    sources: Sequence[Field] = (),
    name: str | None = None,
) -> Action:
    """Rewrite ``target`` from ``sources`` (a plain field assignment)."""
    return Action(
        name or f"set_{target.name.replace('.', '_')}",
        ActionPrimitive.MODIFY_FIELD,
        reads=tuple(sources),
        writes=(target,),
    )


def hash_compute(
    output: Field,
    inputs: Iterable[Field],
    name: str | None = None,
) -> Action:
    """Compute a hash of ``inputs`` into the metadata field ``output``.

    This is the canonical upstream half of a match dependency: a sketch
    or hash-table MAT downstream matches (or indexes) on ``output``.
    """
    return Action(
        name or f"hash_{output.name.replace('.', '_')}",
        ActionPrimitive.HASH,
        reads=tuple(inputs),
        writes=(output,),
    )


def counter_update(
    index: Field,
    result: Field | None = None,
    name: str | None = None,
) -> Action:
    """Update a counter/register array at ``index``.

    If ``result`` is given the read-back value is written there (e.g.
    sketch query results carried to a downstream threshold MAT).
    """
    writes = (result,) if result is not None else ()
    return Action(
        name or f"count_{index.name.replace('.', '_')}",
        ActionPrimitive.COUNTER,
        reads=(index,),
        writes=writes,
    )
