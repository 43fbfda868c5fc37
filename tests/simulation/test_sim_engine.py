"""Tests for the evaluation engines (repro.simulation.engine).

The heart of this module is the differential lock-in: the legacy
hand-built-flow implementations of ``end_to_end_impact`` and
``evaluate_trace`` are copied here verbatim as oracles (over the
per-flow closed form of :mod:`loop_oracle`), and the spec+engine
pipeline must reproduce them bit-for-bit through the default (batch)
engine.
"""

from typing import List, Sequence

import pytest
from loop_oracle import LoopEngine, loop_fct

from repro.simulation.contention import ContentionEngine
from repro.simulation.engine import (
    BatchEngine,
    Engine,
    ExactEngine,
    get_engine,
    overhead_impact,
)
from repro.simulation.flow import Flow
from repro.simulation.metrics import normalized_against
from repro.simulation.netsim import HopSpec, uniform_path
from repro.simulation.spec import SimulationSpec
from repro.simulation.traces import (
    TraceConfig,
    TraceFlow,
    evaluate_trace,
    generate_trace,
)
from repro.telemetry import Recorder, attached

# ----------------------------------------------------------------------
# Legacy oracles (pre-refactor implementations, kept verbatim)
# ----------------------------------------------------------------------
LEGACY_MIN_PAYLOAD_BYTES = 64


def legacy_end_to_end_impact(
    overhead_bytes: int,
    packet_payload_bytes: int = 1024,
    hops: int = 5,
    message_bytes: int = 1_000_000,
):
    """The pre-spec harness implementation, copied verbatim."""
    path = uniform_path(hops)
    baseline_flow = Flow(
        0, message_bytes, packet_payload_bytes, overhead_bytes=0
    )
    mtu = max(
        baseline_flow.mtu,
        overhead_bytes
        + baseline_flow.header_bytes
        + LEGACY_MIN_PAYLOAD_BYTES,
    )
    baseline = loop_fct(baseline_flow, path)
    measured = loop_fct(
        Flow(
            1,
            message_bytes,
            packet_payload_bytes,
            overhead_bytes=overhead_bytes,
            mtu=mtu,
        ),
        path,
    )
    norm = normalized_against(measured, baseline)
    return norm.fct_ratio, norm.goodput_ratio


def legacy_evaluate_trace(
    trace: Sequence[TraceFlow],
    path: Sequence[HopSpec],
    overhead_bytes: int,
    packet_payload_bytes: int = 1024,
):
    """The pre-spec trace evaluator, copied verbatim."""
    fcts: List[float] = []
    slowdowns: List[float] = []
    wire = 0
    for flow in trace:
        loaded = loop_fct(
            Flow(
                flow.flow_id,
                flow.message_bytes,
                packet_payload_bytes,
                overhead_bytes=overhead_bytes,
                mtu=max(1500, overhead_bytes + 54 + 64),
            ),
            path,
        )
        baseline = loop_fct(
            Flow(
                flow.flow_id,
                flow.message_bytes,
                packet_payload_bytes,
                overhead_bytes=0,
            ),
            path,
        )
        fcts.append(loaded.fct_us)
        slowdowns.append(loaded.fct_us / baseline.fct_us)
        wire += loaded.wire_bytes_per_hop
    fcts_sorted = sorted(fcts)
    p99_index = min(len(fcts_sorted) - 1, int(0.99 * len(fcts_sorted)))
    return (
        sum(fcts) / len(fcts),
        fcts_sorted[p99_index],
        sum(slowdowns) / len(slowdowns),
        wire,
    )


# The sweep crosses the MTU-widening boundary (1500 - 54 - 64 = 1382)
# and goes far past the nominal MTU.
OVERHEADS = (0, 1, 28, 48, 108, 400, 1382, 1383, 1446, 1500, 2000, 3000)


class TestDifferentialLockIn:
    @pytest.mark.parametrize("overhead", OVERHEADS)
    def test_overhead_impact_bit_for_bit(self, overhead):
        assert overhead_impact(overhead) == legacy_end_to_end_impact(
            overhead
        )

    @pytest.mark.parametrize("payload", (458, 512, 970, 1024, 1446))
    def test_bit_for_bit_across_payloads(self, payload):
        for overhead in (0, 48, 1400, 2000):
            new = overhead_impact(
                overhead, packet_payload_bytes=payload
            )
            old = legacy_end_to_end_impact(
                overhead, packet_payload_bytes=payload
            )
            assert new == old

    def test_harness_delegates_to_the_pipeline(self):
        from repro.baselines import Ffl
        from repro.experiments.harness import run_single_deployment
        from repro.network.generators import linear_topology
        from repro.workloads import real_programs

        record = run_single_deployment(
            real_programs(6), linear_topology(3), Ffl()
        )
        assert record.overhead_bytes > 0
        assert (record.fct_ratio, record.goodput_ratio) == (
            legacy_end_to_end_impact(record.overhead_bytes)
        )

    @pytest.mark.parametrize("overhead", (0, 6, 64, 1400, 2000))
    def test_evaluate_trace_bit_for_bit(self, overhead):
        trace = generate_trace(11, TraceConfig(num_flows=200))
        path = uniform_path(5)
        metrics = evaluate_trace(trace, path, overhead)
        mean, p99, slowdown, wire = legacy_evaluate_trace(
            trace, path, overhead
        )
        assert metrics.mean_fct_us == mean
        assert metrics.p99_fct_us == p99
        assert metrics.mean_slowdown == slowdown
        assert metrics.total_wire_bytes == wire

    def test_fig2_rows_match_legacy_normalization(self):
        from repro.experiments.fig2_motivation import run

        for row in run():
            old_fct, old_goodput = legacy_end_to_end_impact(
                row.overhead_bytes,
                packet_payload_bytes=row.packet_size - 54,
            )
            assert row.fct_ratio == old_fct
            assert row.goodput_ratio == old_goodput


class TestEngineAgreement:
    def _spec(self):
        trace = generate_trace(7, TraceConfig(num_flows=40))
        return SimulationSpec.from_trace(trace, uniform_path(5), 96)

    def test_batch_matches_analytic_within_tolerance(self):
        """The retired analytic engine's per-flow loop (the tests'
        oracle) and the batch engine agree with no tolerance at all."""
        spec = self._spec()
        loop = LoopEngine().evaluate(spec)
        batch = BatchEngine().evaluate(spec)
        assert batch.num_packets == loop.num_packets
        assert batch.wire_bytes == loop.wire_bytes
        assert batch.fct_us == loop.fct_us
        assert batch.goodput_gbps == loop.goodput_gbps

    def test_exact_close_to_analytic_on_shared_support(self):
        # Messages dividing evenly into packets: the closed form is
        # exact, so the DES must land on the same FCT.
        flows = [TraceFlow(i, 0.0, 1024 * (i + 1)) for i in range(6)]
        spec = SimulationSpec.from_trace(
            flows, uniform_path(4), 0, packet_payload_bytes=1024
        )
        exact = ExactEngine().evaluate(spec)
        batch = BatchEngine().evaluate(spec)
        for a, e in zip(batch.fct_us, exact.fct_us):
            assert e == pytest.approx(a, rel=1e-9)

    def test_engines_agree_on_plan_specs(self):
        from repro.baselines import Ffl
        from repro.network.generators import random_wan
        from repro.workloads import real_programs

        network = random_wan(10, 16, seed=2)
        plan = Ffl().deploy(real_programs(8), network).plan
        spec = SimulationSpec.from_plan(plan, network)
        loop = LoopEngine().evaluate(spec)
        batch = BatchEngine().evaluate(spec)
        assert batch.fct_ratio == loop.fct_ratio
        assert batch.goodput_ratio == loop.goodput_ratio


class TestResultAggregates:
    def test_ratios_and_aggregates(self):
        spec = SimulationSpec.uniform_sweep(
            (0, 100), message_bytes=102_400
        )
        result = BatchEngine().evaluate(spec)
        assert result.num_flows == 2
        assert result.fct_ratios[0] == 1.0
        assert result.fct_ratios[1] > 1.0
        assert result.fct_ratio == max(result.fct_ratios)
        assert result.goodput_ratio == min(result.goodput_ratios)
        assert result.mean_fct_us == sum(result.fct_us) / 2
        assert result.total_wire_bytes == sum(result.wire_bytes)

    def test_p99_matches_trace_convention(self):
        spec = SimulationSpec.from_trace(
            generate_trace(1, TraceConfig(num_flows=101)),
            uniform_path(5),
            0,
        )
        result = BatchEngine().evaluate(spec)
        ordered = sorted(result.fct_us)
        assert result.p99_fct_us == ordered[min(100, int(0.99 * 101))]


class TestEngineRegistry:
    def test_registry_names(self):
        """No engine named is the batch closed form; a load alone is
        the contention engine."""
        assert isinstance(get_engine(), BatchEngine)
        assert overhead_impact(48) == overhead_impact(48, engine="batch")
        engine = get_engine(load=0.7)
        assert isinstance(engine, ContentionEngine)
        assert engine.load == 0.7

    def test_get_engine_resolves_names(self):
        for name, cls in (
            ("exact", ExactEngine),
            ("batch", BatchEngine),
            ("contention", ContentionEngine),
        ):
            engine = get_engine(name)
            assert isinstance(engine, cls)
            assert engine.name == name
        assert get_engine("contention", load=0.7).load == 0.7

    def test_get_engine_passes_instances_through(self):
        engine = BatchEngine()
        assert get_engine(engine) is engine

    def test_unknown_engine_rejected(self):
        for name in ("quantum", "analytic"):
            with pytest.raises(ValueError, match="unknown engine") as err:
                get_engine(name)
            assert "exact, batch, contention" in str(err.value)

    @pytest.mark.parametrize("name", ("exact", "batch", "quantum"))
    def test_load_with_another_engine_rejected(self, name):
        with pytest.raises(ValueError) as err:
            get_engine(name, load=0.5)
        assert "exact, batch, contention" in str(err.value)

    def test_base_engine_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Engine()._evaluate(SimulationSpec.uniform(0))


class TestTelemetry:
    def test_evaluate_emits_sim_event(self):
        spec = SimulationSpec.uniform_sweep((0, 48))
        recorder = Recorder()
        with attached(recorder):
            BatchEngine().evaluate(spec)
        events = [
            e for e in recorder.events if e["kind"] == "sim.evaluate"
        ]
        assert len(events) == 1
        (event,) = events
        assert event["engine"] == "batch"
        assert event["flows"] == 2
        assert event["source"] == "uniform-sweep"
        assert event["wall_s"] >= 0.0

    def test_result_records_engine_and_wall(self):
        result = ExactEngine().evaluate(SimulationSpec.uniform(16))
        assert result.engine == "exact"
        assert result.wall_s > 0.0
