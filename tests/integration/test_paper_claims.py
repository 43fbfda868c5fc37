"""Regression tests for the paper's headline claims (reduced scale).

Each test pins one qualitative claim from the evaluation so that any
change that breaks the reproduction's *shape* — not just its code —
fails loudly.
"""

import pytest

from repro.baselines import (
    Ffl,
    Ffls,
    HermesHeuristic,
    HermesOptimal,
    MinStage,
    Speed,
)
from repro.experiments import fig2_motivation
from repro.experiments.exp2_overhead import workload
from repro.network.topozoo import topology_zoo_wan
from repro.simulation import overhead_impact
from repro.workloads.sketches import sketch_programs
from repro.network.generators import linear_topology


@pytest.fixture(scope="module")
def scale_results():
    """One mid-scale deployment, every framework class represented."""
    programs = workload(16, seed=7)
    network = topology_zoo_wan(4)
    frameworks = [
        HermesHeuristic(),
        HermesOptimal(time_limit_s=10),
        Ffl(),
        Ffls(),
        MinStage(time_limit_s=0.5),
        Speed(time_limit_s=10),
    ]
    return {
        fw.name: fw.deploy(programs, network) for fw in frameworks
    }


class TestClaim1HermesMinimizesOverhead:
    """§VI: 'Hermes reduces the per-packet byte overhead' vs baselines."""

    def test_beats_first_fit(self, scale_results):
        hermes = scale_results["Hermes"].overhead_bytes
        assert hermes <= scale_results["FFL"].overhead_bytes
        assert hermes <= scale_results["FFLS"].overhead_bytes

    def test_beats_min_stage(self, scale_results):
        assert (
            scale_results["Hermes"].overhead_bytes
            <= scale_results["MS"].overhead_bytes
        )

    def test_meaningful_reduction(self, scale_results):
        """Exp#2 claims up to 34% reduction; demand at least 20% here."""
        hermes = scale_results["Hermes"].overhead_bytes
        worst = max(
            scale_results[name].overhead_bytes for name in ("FFL", "FFLS", "MS")
        )
        assert hermes <= 0.8 * worst


class TestClaim2HeuristicNearOptimal:
    """§VI: 'the heuristic ... makes near-optimal decisions'."""

    def test_on_testbed_scale_matches_optimal(self):
        from repro.workloads.switchp4 import real_programs

        programs = real_programs(6)
        network = linear_topology(3)
        heuristic = HermesHeuristic().deploy(programs, network)
        optimal = HermesOptimal(time_limit_s=30).deploy(programs, network)
        assert heuristic.overhead_bytes == optimal.overhead_bytes


class TestClaim3HeuristicIsFast:
    """§VI: 'orders-of-magnitude lower execution time'."""

    def test_heuristic_vs_ilp_gap(self, scale_results):
        hermes_t = scale_results["Hermes"].solve_time_s
        speed_t = scale_results["SPEED"].solve_time_s
        assert hermes_t * 10 < speed_t or scale_results["SPEED"].timed_out

    def test_heuristic_subsecond_at_scale(self, scale_results):
        assert scale_results["Hermes"].solve_time_s < 2.0


class TestClaim4OverheadHurtsPerformance:
    """§II-B: overhead inflates FCT and depresses goodput."""

    def test_fig2_direction_and_magnitude(self):
        rows = fig2_motivation.run(packet_sizes=(512,))
        worst = rows[-1]  # 108 bytes
        assert worst.fct_ratio > 1.10
        assert worst.goodput_ratio < 0.90

    def test_end_to_end_consistency(self, scale_results):
        """Deployments with higher overhead must show worse e2e numbers."""
        pairs = sorted(
            (r.overhead_bytes for r in scale_results.values())
        )
        impacts = [overhead_impact(ov)[0] for ov in pairs]
        assert impacts == sorted(impacts)


class TestClaim5NoExtraResources:
    """Exp#6: coordination consumes no additional switch resources."""

    def test_sketch_consumption(self):
        programs = sketch_programs(10)
        standalone = sum(p.total_resource_demand for p in programs)
        result = HermesHeuristic().deploy(
            programs, linear_topology(3)
        )
        merged = sum(m.resource_demand for m in result.tdg.mats)
        assert merged <= standalone + 1e-9
