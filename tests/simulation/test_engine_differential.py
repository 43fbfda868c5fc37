"""Differential suite: contention engine vs the exact DES.

Fast tier-1 cells prove the contract on a seeded subset of the
(topology x seed) grid; the ``slow``-marked sweep runs the full
matrix (picked up by the scheduled differential-sweep CI job).  The
harness itself is exercised against known-good (batch vs analytic)
and known-bad (overloaded contention vs exact) pairs so a silent
always-pass bug cannot hide.
"""

from __future__ import annotations

import pytest
from differential import (
    TOPOLOGIES,
    ToleranceContract,
    assert_agreement,
    compare,
    spec_grid,
)

from repro.simulation.contention import (
    CONTENTION_FREE_LOAD,
    CONTENTION_REL_TOLERANCE,
    ContentionEngine,
)

#: Loads at or below the structural threshold and at the 1%% contract
#: point named in the engine's documentation.
LOW_LOADS = (0.01, CONTENTION_FREE_LOAD)

CONTRACT = ToleranceContract(
    fct_rel=CONTENTION_REL_TOLERANCE,
    goodput_rel=CONTENTION_REL_TOLERANCE,
)

FAST_CELLS = spec_grid(seeds=(1, 2), num_flows=30)
assert len({label.split("/")[0] for label, _ in FAST_CELLS}) >= 3


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
        for label, spec in FAST_CELLS[:3]:
            assert_agreement("analytic", "batch", spec)

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
        report = compare("analytic", "batch", spec)
        text = report.summary()
        assert "analytic" in text and "batch" in text
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
