"""Integration tests: the full pipeline, programs to switch configs."""

from repro.baselines import HermesHeuristic, HermesOptimal
from repro.core import Backend, CoordinationAnalysis, Hermes
from repro.experiments.harness import end_to_end_impact
from repro.network import fat_tree, linear_topology, topology_zoo_wan
from repro.workloads import real_programs, sketch_programs, synthetic_programs
from tests.conftest import make_sketch_program


class TestFullPipeline:
    def test_real_programs_on_testbed(self):
        programs = real_programs(10)
        network = linear_topology(3)
        result = Hermes().deploy(programs, network)
        result.plan.validate()
        configs = Backend().compile(result.plan)
        assert set(configs) == set(result.plan.occupied_switches())

    def test_sketches_on_wan(self):
        programs = sketch_programs(10)
        network = topology_zoo_wan(2)
        result = Hermes().deploy(programs, network)
        result.plan.validate()
        # Merging must have deduplicated the shared hash.
        assert len(result.tdg) < sum(len(p) for p in programs)

    def test_mixed_workload_on_fat_tree(self):
        programs = real_programs(4) + synthetic_programs(4, seed=1)
        network = fat_tree(4)
        result = Hermes().deploy(programs, network)
        result.plan.validate()
        # Core switches are fixed-function: nothing lands there.
        for switch in result.plan.occupied_switches():
            assert network.switch(switch).programmable

    def test_heuristic_vs_optimal_consistency(self, six_programs):
        network = linear_topology(3, num_stages=4, stage_capacity=1.0)
        heuristic = HermesHeuristic().deploy(six_programs, network)
        optimal = HermesOptimal(time_limit_s=60).deploy(
            six_programs, network
        )
        assert optimal.overhead_bytes <= heuristic.overhead_bytes
        # Both plans deploy the same merged TDG.
        assert set(heuristic.plan.placements) == set(
            optimal.plan.placements
        )

    def test_backend_headers_match_coordination(self):
        programs = [
            make_sketch_program(f"p{i}", index_bytes=4) for i in range(4)
        ]
        network = linear_topology(8, num_stages=2, stage_capacity=1.0)
        result = Hermes().deploy(programs, network)
        coordination = CoordinationAnalysis(result.plan)
        configs = Backend().compile(result.plan)
        for (u, v), channel in coordination.channels.items():
            layout = configs[u].emit_headers[v]
            assert sum(size for _n, _o, size in layout) == channel.layout_bytes

    def test_overhead_propagates_to_performance_model(self):
        programs = [
            make_sketch_program(f"p{i}", index_bytes=12) for i in range(4)
        ]
        network = linear_topology(8, num_stages=2, stage_capacity=1.0)
        result = Hermes().deploy(programs, network)
        overhead = result.overhead_bytes
        assert overhead > 0
        fct_ratio, goodput_ratio = end_to_end_impact(overhead)
        assert fct_ratio > 1.0
        assert goodput_ratio < 1.0

    def test_epsilon_constraints_respected_end_to_end(self, six_programs):
        network = linear_topology(4, num_stages=4, stage_capacity=1.0)
        result = Hermes(epsilon2=2).deploy(six_programs, network)
        assert result.plan.num_occupied_switches() <= 2

    def test_fifty_program_scale(self):
        programs = real_programs(10) + synthetic_programs(40, seed=7)
        network = topology_zoo_wan(1)
        result = Hermes().deploy(programs, network)
        result.plan.validate()
        assert result.solve_time_s < 30.0  # heuristic stays fast

    def test_deterministic_given_same_inputs(self, six_programs):
        network = linear_topology(3, num_stages=4, stage_capacity=1.0)
        a = Hermes().deploy(six_programs, network)
        b = Hermes().deploy(six_programs, network)
        assert {
            k: (v.switch, v.stages) for k, v in a.plan.placements.items()
        } == {
            k: (v.switch, v.stages) for k, v in b.plan.placements.items()
        }
