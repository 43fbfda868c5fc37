"""Packet fields: headers and metadata.

Hermes distinguishes two kinds of fields:

* **Header fields** already travel inside each packet (e.g. the IPv4
  source address).  Passing them between switches is free.
* **Metadata fields** exist only inside a switch pipeline (e.g. a
  computed hash index or an ingress timestamp).  When two interdependent
  MATs land on *different* switches, every metadata field the downstream
  MAT needs must be piggybacked on the packet — this is exactly the
  per-packet byte overhead the paper minimizes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple


class FieldKind(enum.Enum):
    """Whether a field lives in the packet or only in the pipeline."""

    HEADER = "header"
    METADATA = "metadata"


@dataclass(frozen=True, order=True)
class Field:
    """A named packet-processing field.

    Attributes:
        name: Fully qualified field name, e.g. ``"ipv4.src_addr"`` or
            ``"meta.flow_index"``.
        width_bits: Field width in bits.  Must be positive.
        kind: Whether the field is a header field or pipeline metadata.
    """

    name: str
    width_bits: int
    kind: FieldKind = FieldKind.HEADER

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("field name must be non-empty")
        if self.width_bits <= 0:
            raise ValueError(
                f"field {self.name!r} must have positive width, "
                f"got {self.width_bits}"
            )

    @property
    def size_bytes(self) -> int:
        """Size in bytes, rounded up to whole bytes (wire occupancy)."""
        return (self.width_bits + 7) // 8

    @property
    def is_metadata(self) -> bool:
        return self.kind is FieldKind.METADATA

    @property
    def is_header(self) -> bool:
        return self.kind is FieldKind.HEADER

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = "meta" if self.is_metadata else "hdr"
        return f"Field({self.name!r}, {self.width_bits}b, {tag})"


def header_field(name: str, width_bits: int) -> Field:
    """Construct a header field (resides in the packet on the wire)."""
    return Field(name, width_bits, FieldKind.HEADER)


def metadata_field(name: str, width_bits: int) -> Field:
    """Construct a metadata field (pipeline-local, costs bytes to ship)."""
    return Field(name, width_bits, FieldKind.METADATA)


class FieldSet:
    """An immutable, order-preserving collection of distinct fields.

    MAT properties (match fields ``F^m``, modified fields ``F^a``) are
    field sets.  The class provides the byte-accounting helpers used by
    the TDG analysis: :meth:`metadata_bytes` implements the
    "sum of sizes of metadata fields" quantity from Algorithm 1.
    """

    # ``_names`` and ``_metadata`` cache :attr:`names` and
    # :meth:`metadata_only`; the fields never change after __init__.
    __slots__ = ("_fields", "_names", "_metadata")

    def __init__(self, fields: Iterable[Field] = ()) -> None:
        seen: Dict[str, Field] = {}
        for field in fields:
            existing = seen.get(field.name)
            if existing is not None and existing != field:
                raise ValueError(
                    f"conflicting definitions for field {field.name!r}: "
                    f"{existing} vs {field}"
                )
            seen.setdefault(field.name, field)
        self._fields: Tuple[Field, ...] = tuple(seen.values())
        self._names: Optional[FrozenSet[str]] = None
        self._metadata: Optional[FieldSet] = None

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Field):
            return item in self._fields
        if isinstance(item, str):
            return any(f.name == item for f in self._fields)
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldSet):
            return NotImplemented
        return frozenset(self._fields) == frozenset(other._fields)

    def __hash__(self) -> int:
        return hash(frozenset(self._fields))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ", ".join(f.name for f in self._fields)
        return f"FieldSet({{{names}}})"

    @property
    def names(self) -> FrozenSet[str]:
        if self._names is None:
            self._names = frozenset(f.name for f in self._fields)
        return self._names

    def union(self, other: "FieldSet") -> "FieldSet":
        return FieldSet(tuple(self._fields) + tuple(other._fields))

    def intersection(self, other: "FieldSet") -> "FieldSet":
        other_names = other.names
        return FieldSet(f for f in self._fields if f.name in other_names)

    def metadata_only(self) -> "FieldSet":
        """The subset of fields that are pipeline metadata."""
        if self._metadata is None:
            self._metadata = FieldSet(f for f in self._fields if f.is_metadata)
        return self._metadata

    def metadata_bytes(self) -> int:
        """Total wire bytes needed to ship every metadata field here.

        Header fields contribute zero: they already ride in the packet.
        """
        return sum(f.size_bytes for f in self._fields if f.is_metadata)

    def total_bytes(self) -> int:
        """Total byte size of every field, header and metadata alike."""
        return sum(f.size_bytes for f in self._fields)


def standard_headers() -> Dict[str, Field]:
    """A catalog of common header fields used by the bundled workloads.

    Mirrors the fields that switch.p4-style programs match on.  Keys are
    field names; values are :class:`Field` instances.
    """
    fields = [
        header_field("ethernet.dst_addr", 48),
        header_field("ethernet.src_addr", 48),
        header_field("ethernet.ether_type", 16),
        header_field("vlan.vid", 12),
        header_field("ipv4.src_addr", 32),
        header_field("ipv4.dst_addr", 32),
        header_field("ipv4.protocol", 8),
        header_field("ipv4.ttl", 8),
        header_field("ipv4.dscp", 6),
        header_field("ipv6.src_addr", 128),
        header_field("ipv6.dst_addr", 128),
        header_field("tcp.src_port", 16),
        header_field("tcp.dst_port", 16),
        header_field("tcp.flags", 8),
        header_field("udp.src_port", 16),
        header_field("udp.dst_port", 16),
    ]
    return {f.name: f for f in fields}
