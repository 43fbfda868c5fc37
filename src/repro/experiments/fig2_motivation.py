"""Fig. 2: impact of the per-packet byte overhead on FCT and goodput.

Reproduces the §II-B motivation experiment: a flow of fixed-size
packets crosses five switch hops; metadata of 28-108 bytes is added to
every packet; FCT and goodput are reported normalized against the
metadata-free run.  Packet sizes follow the paper: 512 B (DCN traffic),
1024 B (RDMA MTU) and 1500 B (Ethernet MTU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.experiments.harness import E2E_HOPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentRunner
from repro.experiments.reporting import Table
from repro.simulation.engine import get_engine
from repro.simulation.packet import BASE_HEADER_BYTES
from repro.simulation.spec import SimulationSpec

#: The paper's sweep: 28 to 108 bytes.
OVERHEAD_SWEEP = (28, 48, 68, 88, 108)
PACKET_SIZES = (512, 1024, 1500)


@dataclass
class Fig2Row:
    """One point of Fig. 2."""

    packet_size: int
    overhead_bytes: int
    fct_ratio: float
    goodput_ratio: float


def _size_rows(
    job: Tuple[int, Tuple[int, ...], int, int, Optional[str]]
) -> List[Fig2Row]:
    """The sweep for one packet size (module-level: pool-safe).

    One :class:`SimulationSpec` per packet size — a flow per overhead
    on the shared uniform path — dispatched to the named engine.  The
    golden suite tests pin the closed-form numbers bit for bit to the
    legacy hand-built-flow loop.
    """
    packet_size, overheads, message_bytes, hops, engine = job
    payload = max(packet_size - BASE_HEADER_BYTES, 1)
    spec = SimulationSpec.uniform_sweep(
        overheads,
        packet_payload_bytes=payload,
        hops=hops,
        message_bytes=message_bytes,
    )
    result = get_engine(engine).evaluate(spec)
    return [
        Fig2Row(
            packet_size=packet_size,
            overhead_bytes=overhead,
            fct_ratio=result.fct_ratios[i],
            goodput_ratio=result.goodput_ratios[i],
        )
        for i, overhead in enumerate(overheads)
    ]


def run(
    overheads: Sequence[int] = OVERHEAD_SWEEP,
    packet_sizes: Sequence[int] = PACKET_SIZES,
    message_bytes: int = 1_000_000,
    hops: int = E2E_HOPS,
    engine: Optional[str] = None,
    runner: Optional["ExperimentRunner"] = None,
) -> List[Fig2Row]:
    """Run the sweep on ``engine`` (see
    :func:`repro.simulation.engine.get_engine`): no name runs the
    closed form, ``"exact"`` the packet-level discrete-event simulator
    (slower, identical shape).  A parallel ``runner`` fans the
    per-packet-size series out across workers (worthwhile on the
    DES)."""
    jobs = [
        (packet_size, tuple(overheads), message_bytes, hops, engine)
        for packet_size in packet_sizes
    ]
    if runner is not None:
        per_size = runner.map(_size_rows, jobs)
    else:
        per_size = [_size_rows(job) for job in jobs]
    return [row for rows in per_size for row in rows]


def render(rows: List[Fig2Row]) -> str:
    """The two Fig. 2 tables (what ``main`` prints; the suite's
    ``fig2`` aggregator shares it).  Overheads and packet sizes are
    derived from the rows, so reduced sweeps render consistently."""
    overheads = sorted({r.overhead_bytes for r in rows})
    packet_sizes = sorted({r.packet_size for r in rows})
    fct = Table(
        "Fig. 2(a): normalized FCT vs per-packet overhead",
        ["overhead(B)"] + [f"{s}B pkts" for s in packet_sizes],
    )
    goodput = Table(
        "Fig. 2(b): normalized goodput vs per-packet overhead",
        ["overhead(B)"] + [f"{s}B pkts" for s in packet_sizes],
    )
    for overhead in overheads:
        per_size = [r for r in rows if r.overhead_bytes == overhead]
        per_size.sort(key=lambda r: r.packet_size)
        fct.add_row([overhead] + [r.fct_ratio for r in per_size])
        goodput.add_row([overhead] + [r.goodput_ratio for r in per_size])
    return fct.render() + "\n\n" + goodput.render()


def main(runner: Optional["ExperimentRunner"] = None) -> str:
    """Print the Fig. 2 series as two tables (FCT and goodput)."""
    output = render(run(runner=runner))
    print(output)
    return output


if __name__ == "__main__":
    main()
