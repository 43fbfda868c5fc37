"""Unit tests for the contention engine itself.

The differential suite (``test_engine_differential.py``) proves
agreement with the exact DES; this module covers the engine's own
contract: engine selection, load resolution and validation,
determinism, the structural contention-free guarantee, conservation
laws, and the 10^6-flow performance budget (slow-marked).
"""

from __future__ import annotations

import time

import pytest
from loop_oracle import LoopEngine

from repro.simulation import (
    CONTENTION_FREE_LOAD,
    DEFAULT_LOAD,
    ContentionEngine,
    SimulationSpec,
    get_engine,
    overhead_impact,
)
from repro.simulation.netsim import uniform_path
from repro.simulation.traces import TraceConfig, generate_trace


def _spec(flows=50, seed=7, load=None, overhead=96):
    trace = generate_trace(
        seed, TraceConfig(num_flows=flows, max_bytes=256 * 1024)
    )
    spec = SimulationSpec.from_trace(trace, uniform_path(5), overhead)
    if load is not None:
        from dataclasses import replace

        spec = replace(spec, traffic=replace(spec.traffic, offered_load=load))
    return spec


class TestRegistry:
    def test_contention_is_registered(self):
        for engine in (get_engine("contention"), get_engine(load=0.5)):
            assert isinstance(engine, ContentionEngine)

    def test_get_engine_forwards_kwargs(self):
        engine = get_engine("contention", load=0.7)
        assert engine.load == 0.7
        assert engine.seed == 0

    def test_engine_instance_passthrough(self):
        engine = ContentionEngine(load=0.4)
        assert get_engine(engine) is engine


class TestLoadResolution:
    @pytest.mark.parametrize("bad", (0.0, -0.5))
    def test_rejects_nonpositive_load(self, bad):
        with pytest.raises(ValueError):
            ContentionEngine(load=bad)

    def test_constructor_load_wins_over_spec(self):
        spec = _spec(load=0.9)
        assert ContentionEngine(load=0.2).resolved_load(spec) == 0.2

    def test_spec_load_wins_over_default(self):
        assert ContentionEngine().resolved_load(_spec(load=0.9)) == 0.9

    def test_default_load_when_nothing_set(self):
        assert ContentionEngine().resolved_load(_spec()) == DEFAULT_LOAD

    def test_result_records_resolved_load(self):
        result = ContentionEngine(load=0.75).evaluate(_spec())
        assert result.load == 0.75


class TestContentionFreeRegime:
    def test_threshold_load_has_zero_waits(self):
        result = ContentionEngine(load=CONTENTION_FREE_LOAD).evaluate(_spec())
        assert result.wait_us == [0.0] * result.num_flows
        assert result.mean_wait_us == 0.0
        assert result.max_wait_us == 0.0
        assert result.contended_fraction == 0.0

    def test_single_flow_never_waits(self):
        result = ContentionEngine(load=5.0).evaluate(_spec(flows=1))
        assert result.wait_us == [0.0]

    def test_high_load_queues(self):
        result = ContentionEngine(load=0.9).evaluate(_spec())
        assert result.max_wait_us > 0.0
        assert 0.0 < result.contended_fraction <= 1.0


class TestDeterminism:
    def test_same_inputs_same_outputs(self):
        spec = _spec()
        a = ContentionEngine(load=0.8, seed=4).evaluate(spec)
        b = ContentionEngine(load=0.8, seed=4).evaluate(spec)
        assert a.fct_us == b.fct_us
        assert a.wait_us == b.wait_us

    def test_seed_changes_the_arrival_jitter(self):
        spec = _spec()
        a = ContentionEngine(load=0.8, seed=0).evaluate(spec)
        b = ContentionEngine(load=0.8, seed=1).evaluate(spec)
        assert a.wait_us != b.wait_us
        # Packetization is schedule-independent.
        assert a.num_packets == b.num_packets
        assert a.wire_bytes == b.wire_bytes


class TestConservation:
    def test_wire_and_packet_columns_match_other_engines(self):
        spec = _spec()
        contended = ContentionEngine(load=0.9).evaluate(spec)
        for other in (LoopEngine(), "batch"):
            reference = get_engine(other).evaluate(spec)
            assert contended.wire_bytes == reference.wire_bytes
            assert contended.num_packets == reference.num_packets

    def test_fct_is_base_plus_wait(self):
        spec = _spec()
        calm = ContentionEngine(load=CONTENTION_FREE_LOAD).evaluate(spec)
        busy = ContentionEngine(load=0.9).evaluate(spec)
        for base, fct, wait in zip(calm.fct_us, busy.fct_us, busy.wait_us):
            assert fct == pytest.approx(base + wait, rel=1e-12)


class TestCongestedOverheadImpact:
    """:func:`overhead_impact` with a flow population on the
    contention engine: the Fig. 2 model under congestion."""

    def test_overhead_inflates_fct_under_load(self):
        ratio, goodput = overhead_impact(
            192, engine=ContentionEngine(load=0.9, seed=0), flows=64
        )
        assert ratio > 1.0
        assert goodput < 1.0

    def test_zero_overhead_is_neutral(self):
        ratio, goodput = overhead_impact(
            0, engine=get_engine(load=0.9), flows=64
        )
        assert ratio == pytest.approx(1.0)
        assert goodput == pytest.approx(1.0)


@pytest.mark.slow
class TestPerformanceBudget:
    def test_million_flows_under_60s(self):
        trace = generate_trace(
            0, TraceConfig(num_flows=1_000_000, max_bytes=1 << 20)
        )
        spec = SimulationSpec.from_trace(trace, uniform_path(5), 96)
        started = time.perf_counter()
        result = ContentionEngine(load=0.9).evaluate(spec)
        elapsed = time.perf_counter() - started
        assert result.num_flows == 1_000_000
        assert elapsed < 60.0, f"10^6 flows took {elapsed:.1f}s"
