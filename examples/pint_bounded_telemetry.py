#!/usr/bin/env python3
"""Bounding coordination overhead with PINT-style sampling.

The paper names PINT as complementary to Hermes: Hermes minimizes what
must cross switches; PINT caps what each packet carries.  This example
shows the combination on an INT-heavy deployment: a channel shipping
22 bytes of telemetry is bounded to 6 bytes per packet, and the
coverage curve shows how many packets the collector needs before it has
seen every value — the latency/overhead tradeoff PINT trades on.

Run:  python examples/pint_bounded_telemetry.py
"""

from repro.core.coordination import MetadataChannel
from repro.dataplane.fields import metadata_field
from repro.extensions.pint import PintChannel, simulate_coverage
from repro.simulation import overhead_impact


def telemetry_channel() -> MetadataChannel:
    """A hand-rolled INT channel: Table I's heaviest metadata."""
    fields = [
        metadata_field("int.switch_id", 32),  # 4 B
        metadata_field("int.queue_len", 48),  # 6 B
        metadata_field("int.ts_ingress", 48),  # 6 B
        metadata_field("int.ts_egress", 48),  # 6 B
    ]
    layout = []
    offset = 0
    for fld in fields:
        layout.append((fld, offset))
        offset += fld.size_bytes
    return MetadataChannel(
        source="edge1",
        destination="sink",
        edges=[],
        declared_bytes=offset,
        layout=layout,
        layout_bytes=offset,
    )


def main() -> None:
    channel = telemetry_channel()
    print(
        f"deterministic channel {channel.source} -> "
        f"{channel.destination}: {channel.layout_bytes} B/packet"
    )
    fct_full, gp_full = overhead_impact(channel.layout_bytes, 512)
    print(
        f"  512B-packet impact: FCT {(fct_full - 1) * 100:+.1f}%, "
        f"goodput {(gp_full - 1) * 100:+.1f}%\n"
    )

    values = {
        "int.switch_id": 7,
        "int.queue_len": 1200,
        "int.ts_ingress": 123_456,
        "int.ts_egress": 123_999,
    }
    for budget in (6, 12):
        pint = PintChannel(channel, budget_bytes=budget)
        curve, completed = simulate_coverage(pint, values, 64)
        fct, gp = overhead_impact(budget, 512)
        estimate = pint.expected_completion_packets()
        print(f"PINT budget {budget} B/packet:")
        print(
            f"  512B-packet impact: FCT {(fct - 1) * 100:+.1f}%, "
            f"goodput {(gp - 1) * 100:+.1f}%"
        )
        print(
            f"  collector complete after {completed} packets "
            f"(coupon-collector estimate {estimate:.1f})"
        )
        milestones = {
            pkt: f"{cov:.0%}"
            for pkt, cov in enumerate(curve[:16], start=1)
        }
        shown = ", ".join(
            f"p{pkt}={cov}" for pkt, cov in list(milestones.items())[:8]
        )
        print(f"  coverage curve: {shown}\n")


if __name__ == "__main__":
    main()
