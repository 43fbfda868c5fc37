"""Property-based tests (hypothesis) on core invariants."""

import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.dataplane.actions import no_op
from repro.dataplane.fields import FieldSet, header_field, metadata_field
from repro.dataplane.mat import Mat
from repro.dataplane.rules import MatchKind, MatchSpec
from repro.core.stages import assign_stages, segment_fits
from repro.core.heuristic import split_tdg
from repro.milp.expr import LinExpr
from repro.milp.model import Model
from repro.milp.branch_bound import BranchBoundSolver
from repro.milp.solution import SolveStatus
from repro.network.generators import random_wan
from repro.network.paths import k_shortest_paths
from repro.network.switch import Switch
from repro.simulation.flow import (
    BASE_HEADER_BYTES,
    DEFAULT_MTU,
    Flow,
    flow_pair,
    packet_list,
    widened_mtu,
)
from repro.simulation.netsim import (
    FlowSimulator,
    HopSpec,
    analytic_fct,
    uniform_path,
)
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def random_dag(draw, max_nodes=10):
    """A random annotated DAG with forward-only edges."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    tdg = Tdg("prop")
    demands = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=0.6),
            min_size=n,
            max_size=n,
        )
    )
    for i in range(n):
        tdg.add_node(
            Mat(f"m{i}", actions=[no_op()], resource_demand=demands[i])
        )
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                weight = draw(st.integers(min_value=0, max_value=16))
                tdg.add_edge(f"m{i}", f"m{j}", DependencyType.MATCH, weight)
    return tdg


# ----------------------------------------------------------------------
# FieldSet
# ----------------------------------------------------------------------
field_strategy = st.builds(
    lambda name, width, is_meta: (
        metadata_field(name, width) if is_meta else header_field(name, width)
    ),
    st.text(alphabet="abcdef", min_size=1, max_size=4),
    st.integers(min_value=1, max_value=128),
    st.booleans(),
)


class TestFieldSetProperties:
    @given(st.lists(field_strategy, max_size=10))
    def test_union_idempotent(self, fields):
        try:
            fs = FieldSet(fields)
        except ValueError:
            assume(False)
        assert fs.union(fs) == fs

    @given(st.lists(field_strategy, max_size=8), st.lists(field_strategy, max_size=8))
    def test_union_commutative_and_bytes_bounded(self, a_fields, b_fields):
        try:
            a, b = FieldSet(a_fields), FieldSet(b_fields)
            union = a.union(b)
        except ValueError:
            assume(False)
        assert union == b.union(a)
        assert union.metadata_bytes() <= (
            a.metadata_bytes() + b.metadata_bytes()
        )
        assert union.metadata_bytes() >= max(
            a.metadata_bytes(), b.metadata_bytes()
        )

    @given(st.lists(field_strategy, max_size=10))
    def test_metadata_never_exceeds_total(self, fields):
        try:
            fs = FieldSet(fields)
        except ValueError:
            assume(False)
        assert 0 <= fs.metadata_bytes() <= fs.total_bytes()


# ----------------------------------------------------------------------
# Match semantics
# ----------------------------------------------------------------------
class TestMatchProperties:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_lpm_matches_own_prefix(self, value, prefix):
        spec = MatchSpec("f", MatchKind.LPM, value, mask_or_prefix=prefix)
        assert spec.matches(value, 32)
        if prefix > 0:
            flipped = value ^ (1 << (32 - prefix))
            assert not spec.matches(flipped & (2**32 - 1), 32)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_ternary_with_full_mask_is_exact(self, value, other):
        spec = MatchSpec("f", MatchKind.TERNARY, value, mask_or_prefix=0xFF)
        assert spec.matches(value, 8)
        assert spec.matches(other, 8) == (other == value)


# ----------------------------------------------------------------------
# TDG invariants
# ----------------------------------------------------------------------
class TestTdgProperties:
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(random_dag())
    def test_both_topological_orders_are_valid(self, tdg):
        for strategy in ("kahn", "dfs"):
            order = tdg.topological_order(strategy=strategy)
            assert sorted(order) == sorted(tdg.node_names)
            position = {name: i for i, name in enumerate(order)}
            for edge in tdg.edges:
                assert position[edge.upstream] < position[edge.downstream]

    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(random_dag(), st.integers(min_value=1, max_value=8))
    def test_prefix_cut_matches_cut_bytes(self, tdg, split_at):
        order = tdg.topological_order(strategy="dfs")
        assume(1 <= split_at < len(order))
        prefix, suffix = order[:split_at], order[split_at:]
        direct = sum(
            e.metadata_bytes
            for e in tdg.edges
            if e.upstream in set(prefix) and e.downstream in set(suffix)
        )
        assert tdg.cut_bytes(prefix, suffix) == direct
        # Nothing flows backwards across a topological split.
        assert tdg.cut_bytes(suffix, prefix) == 0

    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(random_dag())
    def test_subgraph_edges_are_induced(self, tdg):
        order = tdg.topological_order()
        half = order[: max(1, len(order) // 2)]
        sub = tdg.subgraph(half)
        expected = {
            e.key
            for e in tdg.edges
            if e.upstream in set(half) and e.downstream in set(half)
        }
        assert {e.key for e in sub.edges} == expected


# ----------------------------------------------------------------------
# Splitter invariants
# ----------------------------------------------------------------------
class TestSplitterProperties:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(random_dag(max_nodes=12))
    def test_split_partitions_and_fits(self, tdg):
        reference = Switch("ref", num_stages=3, stage_capacity=1.0)
        deepest = max(
            len(tdg.node_names), 1
        )  # chains may be too deep for 3 stages; skip those
        assume(_chain_depth(tdg) <= reference.num_stages)
        segments = split_tdg(tdg, reference)
        names = [n for s in segments for n in s.node_names]
        assert sorted(names) == sorted(tdg.node_names)
        for segment in segments:
            assert segment_fits(segment, reference)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(random_dag(max_nodes=12))
    def test_split_is_chain_ordered(self, tdg):
        reference = Switch("ref", num_stages=3, stage_capacity=1.0)
        assume(_chain_depth(tdg) <= reference.num_stages)
        segments = split_tdg(tdg, reference)
        seen = set()
        for segment in segments:
            for edge in tdg.edges:
                if edge.downstream in segment.node_names:
                    assert (
                        edge.upstream in segment.node_names
                        or edge.upstream in seen
                    )
            seen.update(segment.node_names)


def _chain_depth(tdg: Tdg) -> int:
    levels = {}
    for name in tdg.topological_order():
        preds = tdg.predecessors(name)
        levels[name] = max((levels[p] for p in preds), default=-1) + 1
    return max(levels.values()) + 1 if levels else 0


# ----------------------------------------------------------------------
# Stage assignment invariants
# ----------------------------------------------------------------------
class TestStageProperties:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(random_dag(max_nodes=8))
    def test_assignment_respects_order_and_capacity(self, tdg):
        switch = Switch("s", num_stages=10, stage_capacity=1.0)
        assume(segment_fits(tdg, switch))
        placements = assign_stages(tdg, switch)
        for edge in tdg.edges:
            assert (
                placements[edge.upstream].last_stage
                < placements[edge.downstream].first_stage
            )
        load = {}
        for p in placements.values():
            share = tdg.node(p.mat_name).resource_demand / len(p.stages)
            for stage in p.stages:
                load[stage] = load.get(stage, 0.0) + share
        assert all(v <= switch.stage_capacity + 1e-9 for v in load.values())


# ----------------------------------------------------------------------
# MILP solver vs brute force
# ----------------------------------------------------------------------
@st.composite
def small_binary_milp(draw):
    num_vars = draw(st.integers(min_value=2, max_value=6))
    num_constraints = draw(st.integers(min_value=1, max_value=4))
    coefs = st.integers(min_value=-5, max_value=5)
    objective = draw(
        st.lists(coefs, min_size=num_vars, max_size=num_vars)
    )
    constraints = [
        (
            draw(st.lists(coefs, min_size=num_vars, max_size=num_vars)),
            draw(st.integers(min_value=-5, max_value=10)),
        )
        for _ in range(num_constraints)
    ]
    return objective, constraints


class TestSolverProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(small_binary_milp())
    def test_matches_brute_force(self, problem):
        objective, constraints = problem
        n = len(objective)

        model = Model("prop")
        xs = [model.add_binary(f"x{i}") for i in range(n)]
        for row, rhs in constraints:
            model.add_constr(
                LinExpr.total(c * x for c, x in zip(row, xs)) <= rhs
            )
        model.minimize(LinExpr.total(c * x for c, x in zip(objective, xs)))
        solution = BranchBoundSolver(time_limit_s=30).solve(model)

        best = None
        for assignment in itertools.product((0, 1), repeat=n):
            if all(
                sum(c * v for c, v in zip(row, assignment)) <= rhs
                for row, rhs in constraints
            ):
                value = sum(c * v for c, v in zip(objective, assignment))
                best = value if best is None else min(best, value)

        if best is None:
            assert solution.status is SolveStatus.INFEASIBLE
        else:
            assert solution.status is SolveStatus.OPTIMAL
            assert solution.objective == pytest.approx(best, abs=1e-6)


# ----------------------------------------------------------------------
# Flow / simulation invariants
# ----------------------------------------------------------------------
class TestFlowProperties:
    @given(
        st.integers(min_value=1, max_value=200_000),
        st.integers(min_value=64, max_value=1446),
        st.integers(min_value=0, max_value=200),
    )
    def test_packetization_conserves_message(
        self, message, payload, overhead
    ):
        flow = Flow(1, message, payload, overhead_bytes=overhead)
        packets = packet_list(flow)
        assert sum(p.payload_bytes for p in packets) == message
        assert len(packets) == flow.num_packets
        assert all(
            p.payload_bytes <= flow.effective_payload_bytes for p in packets
        )

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=128, max_value=1024),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_des_never_beats_analytic_bound(
        self, packets, payload, overhead, hops
    ):
        flow = Flow(1, packets * payload, payload, overhead_bytes=overhead)
        path = uniform_path(hops)
        des = FlowSimulator(path).run(flow)
        closed = analytic_fct(flow, path)
        # Message divides evenly: the closed form is exact.
        assert des.fct_us == pytest.approx(closed.fct_us, rel=1e-9)

    @given(
        st.integers(min_value=0, max_value=150),
        st.integers(min_value=0, max_value=150),
    )
    def test_fct_monotone_in_overhead(self, ov1, ov2):
        assume(ov1 != ov2)
        lo, hi = sorted((ov1, ov2))
        path = uniform_path(5)
        fct_lo = analytic_fct(Flow(1, 100_000, 512, overhead_bytes=lo), path)
        fct_hi = analytic_fct(Flow(1, 100_000, 512, overhead_bytes=hi), path)
        assert fct_lo.fct_us <= fct_hi.fct_us


# ----------------------------------------------------------------------
# Packetization edge cases under MTU widening
# ----------------------------------------------------------------------
class TestPacketizationEdges:
    @given(st.integers(min_value=1383, max_value=100_000))
    def test_crushing_overhead_kills_flow_but_not_flow_pair(
        self, overhead
    ):
        """Past the widening boundary the nominal MTU leaves <1 payload
        byte, so a bare Flow is unconstructable — but flow_pair widens
        the MTU per the shared rule and always succeeds."""
        assume(
            DEFAULT_MTU - BASE_HEADER_BYTES - overhead < 1
        )  # genuinely crushing
        with pytest.raises(ValueError):
            Flow(1, 1_000, 1024, overhead_bytes=overhead)
        _, measured = flow_pair(1_000, 1024, overhead)
        assert measured.effective_payload_bytes >= 1
        assert measured.mtu == widened_mtu(overhead)

    @given(
        st.integers(min_value=64, max_value=1446),
        st.integers(min_value=0, max_value=200),
    )
    def test_zero_byte_messages_rejected(self, payload, overhead):
        with pytest.raises(ValueError):
            Flow(1, 0, payload, overhead_bytes=overhead)
        with pytest.raises(ValueError):
            flow_pair(0, payload, overhead)

    @given(
        st.integers(min_value=64, max_value=1446),
        st.integers(min_value=0, max_value=200),
    )
    def test_one_byte_message_is_one_packet(self, payload, overhead):
        baseline, measured = flow_pair(1, payload, overhead)
        for flow in (baseline, measured):
            assert flow.num_packets == 1
            (packet,) = packet_list(flow)
            assert packet.payload_bytes == 1

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=64, max_value=1446),
        st.integers(min_value=0, max_value=200),
    )
    def test_exact_multiple_fills_every_packet(
        self, packets, payload, overhead
    ):
        """A message that is an exact multiple of the effective payload
        packetizes with no runt: every packet, including the last, is
        full, and the count matches the closed form exactly."""
        flow = Flow(1, 1, payload, overhead_bytes=overhead)
        eff = flow.effective_payload_bytes
        full = Flow(
            1, packets * eff, payload, overhead_bytes=overhead
        )
        assert full.num_packets == packets
        assert all(
            p.payload_bytes == eff for p in packet_list(full)
        )


# ----------------------------------------------------------------------
# Heterogeneous hop chains: DES vs closed form
# ----------------------------------------------------------------------
@st.composite
def hetero_path(draw, max_hops=5):
    """A store-and-forward path with per-hop rates and latencies."""
    hops = draw(st.integers(min_value=1, max_value=max_hops))
    return [
        HopSpec(
            rate_gbps=draw(
                st.sampled_from((1.0, 2.5, 10.0, 40.0, 100.0))
            ),
            latency_us=draw(
                st.floats(min_value=0.0, max_value=500.0)
            ),
        )
        for _ in range(hops)
    ]


class TestHeterogeneousPathProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        hetero_path(),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=128, max_value=1024),
        st.integers(min_value=0, max_value=100),
    )
    def test_des_matches_analytic_on_mixed_hops(
        self, path, packets, payload, overhead
    ):
        """The closed form sum(tx) + sum(lat) + (N-1)*max(tx) must hold
        on paths whose hops differ in both rate and latency, not just
        the uniform chains the legacy harness used."""
        flow = Flow(1, packets * payload, payload, overhead_bytes=overhead)
        des = FlowSimulator(path).run(flow)
        closed = analytic_fct(flow, path)
        assert des.fct_us == pytest.approx(closed.fct_us, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        hetero_path(),
        st.integers(min_value=1, max_value=200_000),
        st.integers(min_value=128, max_value=1024),
    )
    def test_uneven_division_never_beats_the_bound(
        self, path, message, payload
    ):
        """With a runt last packet the closed form (which prices every
        packet at full wire size) is an upper bound on the DES."""
        flow = Flow(1, message, payload)
        des = FlowSimulator(path).run(flow)
        closed = analytic_fct(flow, path)
        assert des.fct_us <= closed.fct_us * (1 + 1e-9)


# ----------------------------------------------------------------------
# Path enumeration invariants
# ----------------------------------------------------------------------
class TestPathProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=6, max_value=15),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=4),
    )
    def test_k_shortest_sorted_distinct_loopfree(self, n, seed, k):
        net = random_wan(n, min(n + 4, n * (n - 1) // 2), seed=seed)
        names = net.switch_names
        paths = k_shortest_paths(net, names[0], names[-1], k)
        assert len(paths) <= k
        latencies = [p.latency_us for p in paths]
        assert latencies == sorted(latencies)
        switch_seqs = [p.switches for p in paths]
        assert len(set(switch_seqs)) == len(switch_seqs)
        for path in paths:
            assert path.source == names[0]
            assert path.destination == names[-1]
            assert len(set(path.switches)) == len(path.switches)


# ----------------------------------------------------------------------
# Whole-pipeline property: deploy -> verify -> execute
# ----------------------------------------------------------------------
class TestDeploymentExecutability:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
    )
    def test_heuristic_plans_always_execute(
        self, num_programs, seed, num_stages
    ):
        """Any plan the heuristic emits must verify AND run packets."""
        from repro.core.analyzer import ProgramAnalyzer
        from repro.core.heuristic import GreedyHeuristic
        from repro.core.verification import verify_dataflow
        from repro.network.generators import linear_topology
        from repro.plan.artifact import DeploymentError
        from repro.simulation.interpreter import PlanInterpreter
        from repro.workloads.synthetic import (
            SyntheticConfig,
            synthetic_programs,
        )

        config = SyntheticConfig(
            min_mats=3, max_mats=6, dependency_probability=0.4,
            shared_pool_size=2, shared_probability=0.5,
        )
        programs = synthetic_programs(num_programs, seed=seed, config=config)
        tdg = ProgramAnalyzer().analyze(programs)
        network = linear_topology(
            12, num_stages=num_stages, stage_capacity=1.0
        )
        try:
            plan = GreedyHeuristic().deploy(tdg, network)
        except DeploymentError:
            assume(False)  # infeasible instance; not what we test
        plan.validate()
        report = verify_dataflow(plan)
        assert len(report.execution_order) == len(tdg)

        interpreter = PlanInterpreter(plan)
        packet = {
            "ipv4.src_addr": seed & 0xFFFFFFFF,
            "ipv4.dst_addr": (seed * 31) & 0xFFFFFFFF,
            "ipv4.protocol": 6,
            "tcp.src_port": 1234,
            "tcp.dst_port": 80,
            "ethernet.src_addr": 1,
            "ethernet.dst_addr": 2,
            "vlan.vid": 1,
            "ipv4.ttl": 64,
            "ipv4.dscp": 0,
            "udp.src_port": 1,
            "udp.dst_port": 2,
            "tcp.flags": 0,
            "ipv6.src_addr": 0,
            "ipv6.dst_addr": 0,
            "ethernet.ether_type": 0x0800,
        }
        trace = interpreter.run_packet(packet)  # must not raise
        assert trace.visited_switches


# ----------------------------------------------------------------------
# Failure injection: migration keeps plans executable
# ----------------------------------------------------------------------
class TestFailureInjection:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=5),
    )
    def test_single_switch_failures_survivable(self, seed, victim_pick):
        """Any single occupied-switch failure on a redundant WAN must
        yield a valid, dataflow-verified re-deployment."""
        from repro.control import compute_moves
        from repro.core.analyzer import ProgramAnalyzer
        from repro.core.heuristic import GreedyHeuristic
        from repro.core.verification import verify_dataflow
        from repro.plan.artifact import DeploymentError
        from repro.runtime import EventKind, NetworkEvent, WorldState
        from repro.workloads.synthetic import (
            SyntheticConfig,
            synthetic_programs,
        )

        config = SyntheticConfig(min_mats=3, max_mats=5)
        programs = synthetic_programs(4, seed=seed, config=config)
        network = random_wan(14, 26, seed=seed, num_stages=6)
        tdg = ProgramAnalyzer().analyze(programs)
        try:
            plan = GreedyHeuristic().deploy(tdg, network)
        except DeploymentError:
            assume(False)
        occupied = plan.occupied_switches()
        victim = occupied[victim_pick % len(occupied)]
        world = WorldState(network, programs)
        world.apply(NetworkEvent(1.0, EventKind.SWITCH_FAIL, victim))
        try:
            new_plan = GreedyHeuristic().deploy(
                tdg, world.current_network()
            )
        except DeploymentError:
            # The surviving network may genuinely lack capacity or
            # connectivity; that is a legitimate outcome, not a bug.
            assume(False)
        new_plan.validate()
        verify_dataflow(new_plan)
        assert victim not in new_plan.occupied_switches()
        moves, unchanged = compute_moves(plan, new_plan, vanished={victim})
        assert len(moves) + len(unchanged) == len(plan.placements)
        assert {m.mat_name for m in moves if m.forced} == set(
            plan.mats_on(victim)
        )


# ----------------------------------------------------------------------
# Contention engine invariants
# ----------------------------------------------------------------------
class TestContentionProperties:
    """Hypothesis coverage for the queueing layer on top of the
    DES-exact base: conservation, lower-boundedness, monotonicity."""

    @staticmethod
    def _spec(seed, flows, overhead):
        from repro.simulation.spec import SimulationSpec
        from repro.simulation.traces import TraceConfig, generate_trace

        trace = generate_trace(
            seed, TraceConfig(num_flows=flows, max_bytes=256 * 1024)
        )
        return SimulationSpec.from_trace(trace, uniform_path(4), overhead)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=256),
        st.floats(min_value=0.05, max_value=2.0),
    )
    def test_wire_bytes_conserved_under_contention(
        self, seed, flows, overhead, load
    ):
        """Queueing delays packets; it never creates or destroys them.
        Packet and wire-byte columns must match the analytic engine
        bit-for-bit at any load."""
        from repro.simulation import ContentionEngine, get_engine

        spec = self._spec(seed, flows, overhead)
        contended = ContentionEngine(load=load).evaluate(spec)
        analytic = get_engine("analytic").evaluate(spec)
        assert contended.wire_bytes == analytic.wire_bytes
        assert contended.num_packets == analytic.num_packets
        assert sum(contended.wire_bytes) == sum(analytic.wire_bytes)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=256),
        st.floats(min_value=0.05, max_value=2.0),
    )
    def test_fct_never_below_uncontended(self, seed, flows, overhead, load):
        """A shared queue can only add delay: every flow's FCT is
        bounded below by its value at the structurally contention-free
        load, where waits are exactly zero."""
        from repro.simulation import CONTENTION_FREE_LOAD, ContentionEngine

        spec = self._spec(seed, flows, overhead)
        calm = ContentionEngine(load=CONTENTION_FREE_LOAD).evaluate(spec)
        assert all(w == 0.0 for w in calm.wait_us)
        busy = ContentionEngine(load=load).evaluate(spec)
        for floor, fct in zip(calm.fct_us, busy.fct_us):
            assert fct >= floor * (1 - 1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=60),
        st.integers(min_value=0, max_value=256),
        st.lists(
            st.floats(min_value=0.05, max_value=2.0),
            min_size=2,
            max_size=4,
        ),
    )
    def test_fct_monotone_in_offered_load(
        self, seed, flows, overhead, loads
    ):
        """With the jitter sequence held fixed (same engine seed),
        raising offered load compresses every arrival gap, so each
        flow's FCT is non-decreasing in load."""
        from repro.simulation import ContentionEngine

        spec = self._spec(seed, flows, overhead)
        previous = None
        for load in sorted(loads):
            fct = ContentionEngine(load=load, seed=0).evaluate(spec).fct_us
            if previous is not None:
                scale = max(fct)
                for before, after in zip(previous, fct):
                    assert after >= before - 1e-9 * scale
            previous = fct
