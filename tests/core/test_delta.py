"""Tests for the blast-radius-restricted delta formulation.

The load-bearing property: the delta model minimizes the *same*
``A_max`` P#1 does, just over a restricted cube — so with everything
free it must match the full formulation's optimum, and with a real
blast radius its prediction must equal the spliced plan's exact probe.
"""

import pytest

from repro.core.analyzer import ProgramAnalyzer
from repro.core.delta import DeltaFormulation, select_delta_candidates
from repro.core.formulation import HermesMilp
from repro.core.heuristic import GreedyHeuristic
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentError
from repro.plan.splice import splice_plan


@pytest.fixture
def deployed(six_programs, small_line):
    tdg = ProgramAnalyzer().analyze(six_programs)
    paths = PathEnumerator(small_line)
    plan = GreedyHeuristic().deploy(tdg, small_line, paths)
    return tdg, small_line, paths, plan


def drop_switch(network, victim):
    out = Network(network.name)
    for switch in network.switches:
        if switch.name != victim:
            out.add_switch(switch)
    for link in network.links:
        if victim not in link.key:
            out.add_link(link)
    return out


class TestDeltaMatchesFullModel:
    def test_all_free_equals_full_optimum(self, deployed):
        tdg, network, paths, plan = deployed
        full = HermesMilp(max_candidates=3)
        optimal = full.deploy(tdg, network, paths)
        delta = DeltaFormulation()
        assignment = delta.solve(
            tdg, network, plan, list(plan.placements), paths
        )
        assert set(assignment) == set(plan.placements)
        assert delta.last_predicted_amax == optimal.max_metadata_bytes()

    def test_prediction_equals_spliced_probe(self, deployed):
        tdg, network, paths, plan = deployed
        victim = plan.occupied_switches()[0]
        shrunk = drop_switch(network, victim)
        free = [
            name
            for name, p in plan.placements.items()
            if p.switch == victim
        ]
        if not free:
            pytest.skip("greedy colocated everything elsewhere")
        delta = DeltaFormulation()
        shrunk_paths = PathEnumerator(shrunk)
        assignment = delta.solve(tdg, shrunk, plan, free, shrunk_paths)
        spliced = splice_plan(
            plan,
            shrunk,
            assignment,
            shrunk_paths,
            amax_cap=delta.last_predicted_amax,
        )
        assert (
            spliced.max_metadata_bytes() == delta.last_predicted_amax
        )


class TestDeltaMechanics:
    def test_fixed_mats_stay_out_of_the_assignment(self, deployed):
        tdg, network, paths, plan = deployed
        free = [sorted(plan.placements)[0]]
        delta = DeltaFormulation()
        assignment = delta.solve(tdg, network, plan, free, paths)
        assert set(assignment) == set(free)

    def test_empty_blast_radius_short_circuits(self, deployed):
        tdg, network, paths, plan = deployed
        delta = DeltaFormulation()
        assert delta.solve(tdg, network, plan, [], paths) == {}
        assert delta.last_predicted_amax == plan.max_metadata_bytes()
        assert delta.last_solution is None

    def test_presolve_cache_reused_across_solves(self, deployed):
        tdg, network, paths, plan = deployed
        free = [sorted(plan.placements)[0]]
        delta = DeltaFormulation()
        delta.solve(tdg, network, plan, free, paths)
        delta.solve(tdg, network, plan, free, paths)
        assert delta.presolve_cache.hits >= 1

    def test_unknown_free_mat_raises(self, deployed):
        tdg, network, paths, plan = deployed
        with pytest.raises(DeploymentError, match="not in TDG"):
            DeltaFormulation().solve(
                tdg, network, plan, ["ghost.mat"], paths
            )

    def test_candidates_cover_residual_demand(self, deployed):
        tdg, network, paths, plan = deployed
        free = sorted(plan.placements)[:3]
        candidates = select_delta_candidates(
            tdg, network, paths, plan, free, max_candidates=1
        )
        fixed_load = {}
        for name, p in plan.placements.items():
            if name not in set(free):
                fixed_load[p.switch] = (
                    fixed_load.get(p.switch, 0.0)
                    + tdg.node(name).resource_demand
                )
        residual = sum(
            network.switch(u).total_capacity - fixed_load.get(u, 0.0)
            for u in candidates
        )
        demand = sum(tdg.node(name).resource_demand for name in free)
        assert residual >= demand
