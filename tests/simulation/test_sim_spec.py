"""Tests for the simulation spec (repro.simulation.spec)."""

import pytest

from repro.network.generators import linear_topology, random_wan
from repro.network.paths import path_latency_us, shortest_path
from repro.plan.artifact import DeploymentError
from repro.simulation.engine import get_engine
from repro.simulation.flow import (
    MIN_PAYLOAD_BYTES,
    flow_pair,
    widened_mtu,
)
from repro.simulation.netsim import HopSpec, uniform_path
from repro.simulation.spec import (
    E2E_HOPS,
    E2E_MESSAGE_BYTES,
    FlowSpec,
    SimulationSpec,
    TrafficModel,
    hop_chain,
)
from repro.simulation.traces import TraceConfig, generate_trace


class TestWidenedMtu:
    def test_small_overhead_keeps_nominal_mtu(self):
        assert widened_mtu(0) == 1500
        assert widened_mtu(108) == 1500

    def test_large_overhead_opens_the_mtu(self):
        assert widened_mtu(1500) == 1500 + 54 + MIN_PAYLOAD_BYTES

    def test_boundary_is_exact(self):
        boundary = 1500 - 54 - MIN_PAYLOAD_BYTES
        assert widened_mtu(boundary) == 1500
        assert widened_mtu(boundary + 1) == 1501

    def test_flow_pair_baseline_is_overhead_free(self):
        baseline, measured = flow_pair(10_000, 1024, 300)
        assert baseline.overhead_bytes == 0
        assert baseline.mtu == 1500
        assert measured.overhead_bytes == 300
        assert measured.mtu == widened_mtu(300)

    def test_flow_pair_always_leaves_payload_room(self):
        # The payload floor guarantees constructability at any overhead.
        for overhead in (0, 1382, 1383, 5000, 100_000):
            _, measured = flow_pair(1_000, 1024, overhead)
            assert measured.effective_payload_bytes >= 1


class TestConstructors:
    def test_uniform_matches_e2e_defaults(self):
        spec = SimulationSpec.uniform(48)
        assert len(spec.paths) == 1
        assert len(spec.paths[0]) == E2E_HOPS
        assert spec.num_flows == 1
        assert spec.flows[0].message_bytes == E2E_MESSAGE_BYTES
        assert spec.flows[0].overhead_bytes == 48
        assert spec.source == "uniform"

    def test_uniform_sweep_shares_one_path(self):
        spec = SimulationSpec.uniform_sweep((28, 48, 68))
        assert len(spec.paths) == 1
        assert [f.overhead_bytes for f in spec.flows] == [28, 48, 68]

    def test_from_trace_binds_every_flow(self):
        trace = generate_trace(3, TraceConfig(num_flows=25))
        spec = SimulationSpec.from_trace(trace, uniform_path(5), 64)
        assert spec.num_flows == 25
        assert all(f.overhead_bytes == 64 for f in spec.flows)
        assert [f.message_bytes for f in spec.flows] == [
            t.message_bytes for t in trace
        ]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            SimulationSpec.uniform_sweep(())
        with pytest.raises(ValueError):
            SimulationSpec.from_trace([], uniform_path(5), 0)
        with pytest.raises(ValueError):
            SimulationSpec(paths=(), flows=(FlowSpec(0, 1, 0),))
        with pytest.raises(ValueError):
            SimulationSpec(
                paths=(tuple(uniform_path(2)),), flows=()
            )

    @pytest.mark.parametrize("engine", ["exact", "batch", "contention"])
    def test_empty_hop_chain_rejected_at_construction(self, engine):
        """An empty hop chain fails when the spec is built, naming the
        path, so no engine ever evaluates it: the contention engine
        used to return an FCT of 0 for it, and the others raised only
        when evaluating."""
        evaluate = get_engine(engine).evaluate
        with pytest.raises(ValueError, match="path 1 needs at least one hop"):
            evaluate(
                SimulationSpec(
                    paths=(tuple(uniform_path(3)), ()),
                    flows=(
                        FlowSpec(0, 10_000, 48),
                        FlowSpec(1, 10_000, 48, path_id=1),
                    ),
                )
            )

    def test_dangling_path_id_rejected(self):
        with pytest.raises(ValueError, match="unknown path"):
            SimulationSpec(
                paths=(tuple(uniform_path(2)),),
                flows=(FlowSpec(0, 1, 0, path_id=3),),
            )

    def test_flow_objects_follow_the_shared_rule(self):
        spec = SimulationSpec.uniform(2000, packet_payload_bytes=512)
        baseline, measured = spec.flow_objects(spec.flows[0])
        expected_baseline, expected_measured = flow_pair(
            E2E_MESSAGE_BYTES, 512, 2000
        )
        assert baseline.mtu == expected_baseline.mtu
        assert measured.mtu == expected_measured.mtu
        assert measured.effective_payload_bytes >= 1


class TestHopChain:
    def test_latency_equals_path_latency(self):
        network = random_wan(12, 20, seed=4)
        names = network.switch_names
        path = shortest_path(network, names[0], names[-1])
        hops = hop_chain(network, path.switches)
        assert len(hops) == len(path.switches) - 1
        assert sum(h.latency_us for h in hops) == pytest.approx(
            path_latency_us(network, path.switches)
        )

    def test_rates_come_from_links(self):
        network = linear_topology(3)
        hops = hop_chain(network, tuple(network.switch_names))
        for hop, (u, v) in zip(
            hops,
            zip(network.switch_names, network.switch_names[1:]),
        ):
            assert hop.rate_gbps == network.link(u, v).bandwidth_gbps

    def test_degenerate_single_switch(self):
        network = linear_topology(2)
        (hop,) = hop_chain(network, (network.switch_names[0],))
        assert hop.latency_us == network.switches[0].latency_us


class TestFromPlan:
    def _deploy(self):
        from repro.baselines import Ffl
        from repro.workloads import real_programs

        network = random_wan(10, 16, seed=2)
        plan = Ffl().deploy(real_programs(8), network).plan
        return plan, network

    def test_pairs_become_paths_and_flows(self):
        plan, network = self._deploy()
        pair_bytes = plan.pair_metadata_bytes()
        spec = SimulationSpec.from_plan(plan, network)
        assert len(spec.paths) == len(pair_bytes)
        assert spec.num_flows == len(pair_bytes)
        by_pair = {f.pair: f.overhead_bytes for f in spec.flows}
        assert by_pair == dict(pair_bytes)

    def test_hop_chains_follow_plan_routing(self):
        plan, network = self._deploy()
        spec = SimulationSpec.from_plan(plan, network)
        routing = plan.routing
        for flow in spec.flows:
            path = routing[flow.pair]
            hops = spec.paths[flow.path_id]
            assert len(hops) == len(path.switches) - 1

    def test_trace_spreads_round_robin(self):
        plan, network = self._deploy()
        trace = generate_trace(0, TraceConfig(num_flows=13))
        spec = SimulationSpec.from_plan(plan, network, trace=trace)
        assert spec.num_flows == 13
        npairs = len(plan.pair_metadata_bytes())
        for i, flow in enumerate(spec.flows):
            assert flow.path_id == i % npairs

    @staticmethod
    def _idle_plan(network):
        from repro.plan.artifact import DeploymentPlan
        from repro.tdg.graph import Tdg

        return DeploymentPlan(Tdg("idle"), network, {})

    def test_idle_plan_falls_back_to_uniform(self):
        network = random_wan(6, 9, seed=1)
        plan = self._idle_plan(network)
        spec = SimulationSpec.from_plan(plan, network)
        assert spec.source == "plan:idle"
        assert spec.num_flows == 1
        assert spec.flows[0].overhead_bytes == 0

    def test_idle_plan_still_evaluates_a_trace(self):
        network = random_wan(6, 9, seed=1)
        plan = self._idle_plan(network)
        trace = generate_trace(5, TraceConfig(num_flows=7))
        spec = SimulationSpec.from_plan(plan, network, trace=trace)
        assert spec.source == "plan:idle"
        assert spec.num_flows == 7

    def test_unrouted_coordinating_pair_raises(self):
        plan, network = self._deploy()
        stripped = plan.with_routing({})
        if not plan.pair_metadata_bytes():
            pytest.skip("workload produced no coordinating pairs")
        with pytest.raises(DeploymentError):
            SimulationSpec.from_plan(stripped, network)


class TestTrafficModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficModel(packet_payload_bytes=0)
        with pytest.raises(ValueError):
            TrafficModel(message_bytes=0)

    def test_spec_is_hashable_and_frozen(self):
        spec = SimulationSpec.uniform(10)
        with pytest.raises(AttributeError):
            spec.source = "other"
        assert hash(spec.traffic) == hash(TrafficModel())


def test_hopspec_reexported_shape():
    # The spec's paths are plain HopSpec chains, interchangeable with
    # hand-built uniform paths.
    assert SimulationSpec.uniform(0).paths[0][0] == HopSpec()
