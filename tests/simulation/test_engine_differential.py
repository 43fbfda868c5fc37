"""Differential suite: the engines against their references.

Two contracts:

* the batch engine against the tests' per-flow closed-form loop
  (:mod:`loop_oracle`), bit for bit on every column;
* the contention engine against the exact DES at contention-free
  loads.

Fast tier-1 cells prove the contention contract on a seeded subset of
the (topology x seed) grid; the ``slow``-marked sweep runs the full
matrix (picked up by the scheduled differential-sweep CI job).  The
harness itself is exercised against known-good (batch vs the loop)
and known-bad (overloaded contention vs exact) pairs so a silent
always-pass bug cannot hide.
"""

from __future__ import annotations

import random

import pytest
from differential import (
    TOPOLOGIES,
    ToleranceContract,
    assert_agreement,
    compare,
    spec_grid,
)
from loop_oracle import LoopEngine

from repro.simulation.contention import (
    CONTENTION_FREE_LOAD,
    CONTENTION_REL_TOLERANCE,
    ContentionEngine,
)
from repro.simulation.engine import BatchEngine
from repro.simulation.netsim import HopSpec
from repro.simulation.packet import BASE_HEADER_BYTES
from repro.simulation.spec import FlowSpec, SimulationSpec, TrafficModel

#: Loads at or below the structural threshold and at the 1%% contract
#: point named in the engine's documentation.
LOW_LOADS = (0.01, CONTENTION_FREE_LOAD)

CONTRACT = ToleranceContract(
    fct_rel=CONTENTION_REL_TOLERANCE,
    goodput_rel=CONTENTION_REL_TOLERANCE,
)

FAST_CELLS = spec_grid(seeds=(1, 2), num_flows=30)
assert len({label.split("/")[0] for label, _ in FAST_CELLS}) >= 3

#: No tolerance at all: the batch engine against the per-flow loop.
BIT_FOR_BIT = ToleranceContract(fct_rel=0.0, goodput_rel=0.0)

#: Every column the closed form produces.
COLUMNS = (
    "fct_us",
    "goodput_gbps",
    "num_packets",
    "wire_bytes",
    "baseline_fct_us",
    "baseline_goodput_gbps",
)

#: The paper's range, the MTU-widening boundary (1500 - 54 - 64 =
#: 1382) and overheads past the whole 1500 B MTU.
OVERHEADS = (0, 28, 48, 108, 300, 1381, 1382, 1383, 1446, 1500, 1501, 3000)


def multipath_spec(seed: int, num_flows: int = 500) -> SimulationSpec:
    """1-5 paths of 1-8 hops at 10-400 Gbps with mixed latencies."""
    rng = random.Random(seed)
    paths = tuple(
        tuple(
            HopSpec(
                rate_gbps=rng.choice(
                    (10, 25, 40.0, 100, 400, rng.uniform(10.0, 400.0))
                ),
                latency_us=rng.choice((1, 0.5, rng.uniform(0.0, 50.0))),
            )
            for _ in range(rng.randint(1, 8))
        )
        for _ in range(rng.randint(1, 5))
    )
    flows = tuple(
        FlowSpec(
            i,
            rng.randint(1, 2_000_000),
            rng.choice(OVERHEADS + (rng.randint(0, 3000),)),
            rng.randrange(len(paths)),
        )
        for i in range(num_flows)
    )
    payload = rng.choice((458, 512, 970, 1024, 1446))
    return SimulationSpec(
        paths,
        flows,
        TrafficModel(packet_payload_bytes=payload),
        source=f"multipath/seed{seed}",
    )


def assert_bit_identical(spec: SimulationSpec) -> None:
    loop = LoopEngine().evaluate(spec)
    batch = BatchEngine().evaluate(spec)
    for column in COLUMNS:
        assert getattr(batch, column) == getattr(loop, column), (
            spec.source,
            column,
        )


class TestBatchMatchesLoopBitForBit:
    """The batch engine adds in the per-flow loop's order, so every
    column equals the oracle's with ``==``, not within a tolerance."""

    @pytest.mark.parametrize("seed", range(24))
    def test_heterogeneous_multipath(self, seed):
        assert_bit_identical(multipath_spec(seed))

    @pytest.mark.parametrize("payload", (458, 512, 970, 1024, 1446))
    def test_overhead_sweep_across_the_mtu(self, payload):
        assert_bit_identical(
            SimulationSpec.uniform_sweep(
                tuple(range(0, 3001, 3)), packet_payload_bytes=payload
            )
        )

    def test_one_flow_specs(self):
        for overhead in OVERHEADS:
            for payload in (458, 1024, 1446):
                assert_bit_identical(
                    SimulationSpec.uniform(
                        overhead, packet_payload_bytes=payload
                    )
                )

    def test_fig2_grid(self):
        for packet_size in (512, 1024, 1500):
            assert_bit_identical(
                SimulationSpec.uniform_sweep(
                    (28, 48, 68, 88, 108),
                    packet_payload_bytes=packet_size - BASE_HEADER_BYTES,
                )
            )


class TestContentionVsExact:
    """The headline contract: DES agreement at contention-free load."""

    @pytest.mark.parametrize(
        "label,spec", FAST_CELLS, ids=[label for label, _ in FAST_CELLS]
    )
    @pytest.mark.parametrize("load", LOW_LOADS)
    def test_low_load_matches_exact_des(self, label, spec, load):
        report = assert_agreement(
            "exact", ContentionEngine(load=load), spec, CONTRACT
        )
        # The integer columns must not merely be within tolerance —
        # they are bit-identical by construction.
        for column in report.columns:
            if column.column in ("num_packets", "wire_bytes"):
                assert column.max_delta == 0.0, report.summary()

    @pytest.mark.parametrize(
        "label,spec", FAST_CELLS[:2], ids=[label for label, _ in FAST_CELLS[:2]]
    )
    def test_low_load_waits_are_zero(self, label, spec):
        result = ContentionEngine(load=CONTENTION_FREE_LOAD).evaluate(spec)
        assert result.wait_us is not None
        assert max(result.wait_us) == 0.0
        assert result.contended_fraction == 0.0

    def test_spec_offered_load_drives_the_engine(self):
        [(label, spec)] = spec_grid(
            seeds=(3,), topologies=("uniform5",), num_flows=20,
            offered_load=0.01,
        )
        assert spec.traffic.offered_load == 0.01
        # Engine constructed with no load must pick the spec's up.
        assert_agreement("exact", ContentionEngine(), spec, CONTRACT)


class TestFctInflationMonotoneInLoad:
    """Per-flow FCT never decreases as offered load rises."""

    @pytest.mark.parametrize(
        "label,spec", FAST_CELLS[:3], ids=[label for label, _ in FAST_CELLS[:3]]
    )
    def test_per_flow_fct_monotone(self, label, spec):
        loads = (0.05, 0.3, 0.6, 0.9, 1.2)
        prev = None
        for load in loads:
            fct = ContentionEngine(load=load, seed=0).evaluate(spec).fct_us
            if prev is not None:
                slack = [b - a for a, b in zip(prev, fct)]
                assert min(slack) >= -1e-9 * max(fct), (
                    f"{label}: FCT decreased when load rose to {load}"
                )
            prev = fct

    def test_waits_monotone_too(self):
        [(_, spec)] = spec_grid(
            seeds=(5,), topologies=("uniform5",), num_flows=40
        )
        prev_total = -1.0
        for load in (0.2, 0.5, 0.9):
            waits = ContentionEngine(load=load).evaluate(spec).wait_us
            total = sum(waits)
            assert total >= prev_total
            prev_total = total
        assert prev_total > 0.0  # high load really queues


class TestHarnessSelfChecks:
    """The harness must catch disagreement, not just bless agreement."""

    def test_batch_vs_analytic_through_harness(self):
        """The retired analytic engine's loop, now the tests' oracle,
        against batch with a zero tolerance on every grid cell."""
        for label, spec in FAST_CELLS:
            assert_agreement(LoopEngine(), "batch", spec, BIT_FOR_BIT)

    def test_overloaded_engine_is_flagged(self):
        _, spec = FAST_CELLS[0]
        report = compare("exact", ContentionEngine(load=1.5), spec, CONTRACT)
        assert not report.ok
        failing = {c.column for c in report.failures}
        assert "fct_us" in failing
        # Packetization is load-independent: those columns still agree.
        assert "num_packets" not in failing
        assert "wire_bytes" not in failing

    def test_summary_names_engines_and_verdict(self):
        _, spec = FAST_CELLS[0]
        report = compare(LoopEngine(), "batch", spec)
        text = report.summary()
        assert "loop" in text and "batch" in text
        assert "AGREE" in text

    def test_relaxed_contract_loosens_bounds(self):
        loose = CONTRACT.relaxed(fct_rel=10.0, goodput_rel=10.0)
        _, spec = FAST_CELLS[0]
        report = compare("exact", ContentionEngine(load=1.5), spec, loose)
        assert {c.column for c in report.failures} == set()


@pytest.mark.slow
class TestFullDifferentialMatrix:
    """Scheduled sweep: every topology, more seeds, larger traces.

    Specs are built inside the test so deselected runs (tier-1 runs
    ``-m "not slow"``) pay no WAN-deployment cost at collection time.
    """

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("load", LOW_LOADS)
    def test_matrix_cell(self, topology, seed, load):
        [(label, spec)] = spec_grid(
            seeds=(seed,), topologies=(topology,), num_flows=120,
            max_bytes=256 * 1024,
        )
        assert_agreement(
            "exact", ContentionEngine(load=load), spec, CONTRACT
        )
