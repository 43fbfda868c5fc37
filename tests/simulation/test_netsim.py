"""Unit tests for the flow transmission models.

The closed form is checked through the tests' per-flow oracle
(:mod:`loop_oracle`), which the batch engine reproduces bit for bit
(``test_engine_differential.py``).
"""

import pytest
from loop_oracle import loop_fct

from repro.simulation.flow import Flow
from repro.simulation.metrics import FlowMetrics, normalized_against
from repro.simulation.netsim import FlowSimulator, HopSpec, uniform_path


class TestHopSpec:
    def test_tx_time(self):
        hop = HopSpec(rate_gbps=100.0)
        # 1250 bytes = 10000 bits at 100 Gbps = 0.1 us
        assert hop.tx_time_us(1250) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            HopSpec(rate_gbps=0)
        with pytest.raises(ValueError):
            HopSpec(latency_us=-1)

    def test_uniform_path(self):
        path = uniform_path(5, rate_gbps=40, latency_us=2)
        assert len(path) == 5
        assert all(h.rate_gbps == 40 for h in path)
        with pytest.raises(ValueError):
            uniform_path(0)


class TestAgreement:
    @pytest.mark.parametrize("overhead", [0, 28, 108])
    @pytest.mark.parametrize("hops", [1, 3, 5])
    def test_des_matches_analytic_on_uniform_packets(self, overhead, hops):
        # message divides evenly into packets -> closed form is exact.
        flow = Flow(
            1,
            message_bytes=1024 * 50,
            packet_payload_bytes=1024,
            overhead_bytes=overhead,
        )
        path = uniform_path(hops)
        des = FlowSimulator(path).run(flow)
        closed = loop_fct(flow, path)
        assert des.fct_us == pytest.approx(closed.fct_us, rel=1e-9)
        assert des.num_packets == closed.num_packets

    def test_analytic_upper_bounds_des_with_short_tail(self):
        flow = Flow(1, message_bytes=1024 * 10 + 1, packet_payload_bytes=1024)
        path = uniform_path(3)
        des = FlowSimulator(path).run(flow)
        closed = loop_fct(flow, path)
        assert closed.fct_us >= des.fct_us


class TestBehaviour:
    def test_overhead_increases_fct(self):
        path = uniform_path(5)
        base = loop_fct(
            Flow(1, 1_000_000, 512, overhead_bytes=0), path
        )
        loaded = loop_fct(
            Flow(1, 1_000_000, 512, overhead_bytes=108), path
        )
        assert loaded.fct_us > base.fct_us
        assert loaded.goodput_gbps < base.goodput_gbps

    def test_fct_monotone_in_overhead(self):
        path = uniform_path(5)
        fcts = [
            loop_fct(Flow(1, 500_000, 512, overhead_bytes=ov), path).fct_us
            for ov in (0, 28, 48, 68, 88, 108)
        ]
        assert fcts == sorted(fcts)

    def test_smaller_packets_hurt_more(self):
        path = uniform_path(5)

        def degradation(payload):
            base = loop_fct(Flow(1, 1_000_000, payload), path)
            loaded = loop_fct(
                Flow(1, 1_000_000, payload, overhead_bytes=108), path
            )
            return loaded.fct_us / base.fct_us

        assert degradation(512) > degradation(1024) > degradation(1446)

    def test_more_hops_increase_fct(self):
        flow = Flow(1, 100_000, 1024)
        short = loop_fct(flow, uniform_path(2))
        long = loop_fct(flow, uniform_path(6))
        assert long.fct_us > short.fct_us

    def test_slow_bottleneck_dominates(self):
        flow = Flow(1, 1_000_000, 1024)
        fast = loop_fct(flow, uniform_path(3, rate_gbps=100))
        slow_middle = loop_fct(
            flow,
            [HopSpec(100), HopSpec(10), HopSpec(100)],
        )
        assert slow_middle.fct_us > fast.fct_us


class TestMetrics:
    def test_normalization(self):
        base = FlowMetrics(100.0, 10.0, 5, 1000)
        measured = FlowMetrics(120.0, 8.0, 6, 1200)
        norm = normalized_against(measured, base)
        assert norm.fct_ratio == pytest.approx(1.2)
        assert norm.goodput_ratio == pytest.approx(0.8)
        assert norm.fct_increase_pct == pytest.approx(20.0)
        assert norm.goodput_decrease_pct == pytest.approx(20.0)

    def test_metric_validation(self):
        with pytest.raises(ValueError):
            FlowMetrics(0.0, 1.0, 1, 1)
        with pytest.raises(ValueError):
            FlowMetrics(1.0, 1.0, 0, 1)
