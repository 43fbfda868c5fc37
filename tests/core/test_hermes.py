"""Unit tests for the Hermes facade."""

import pytest

from repro.core.hermes import Hermes, HermesResult, MODE_HEURISTIC, MODE_OPTIMAL


class TestHermes:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            Hermes(mode="quantum")

    def test_heuristic_deploy(self, six_programs, small_line):
        result = Hermes().deploy(six_programs, small_line)
        assert isinstance(result, HermesResult)
        assert result.mode == MODE_HEURISTIC
        result.plan.validate()
        assert result.overhead_bytes == result.plan.max_metadata_bytes()
        assert result.total_time_s >= result.solve_time_s

    def test_optimal_deploy(self, six_programs, small_line):
        result = Hermes(mode=MODE_OPTIMAL, time_limit_s=60).deploy(
            six_programs, small_line
        )
        assert result.mode == MODE_OPTIMAL
        assert result.timed_out is False
        result.plan.validate()

    def test_optimal_reports_greedy_fallback(
        self, six_programs, small_line, monkeypatch
    ):
        # The solve stops on its limit without an incumbent: the plan
        # is the greedy one, and the result says it is not proven.
        from repro.milp.highs import HighsSolver
        from repro.milp.solution import Solution, SolveStatus

        monkeypatch.setattr(
            HighsSolver,
            "solve",
            lambda self, model, initial=None: Solution(
                SolveStatus.TIME_LIMIT
            ),
        )
        result = Hermes(mode=MODE_OPTIMAL).deploy(six_programs, small_line)
        greedy = Hermes().deploy(six_programs, small_line)
        assert result.timed_out is True
        assert result.plan.fingerprint() == greedy.plan.fingerprint()

    def test_analyze_only(self, six_programs):
        tdg = Hermes().analyze(six_programs)
        assert len(tdg) == sum(len(p) for p in six_programs)

    def test_deploy_tdg_separately(self, six_programs, small_line):
        hermes = Hermes()
        tdg = hermes.analyze(six_programs)
        plan, solve_time = hermes.deploy_tdg(tdg, small_line)
        plan.validate()
        assert solve_time >= 0

    def test_epsilon2_threaded_through(self, six_programs, small_line):
        result = Hermes(epsilon2=2).deploy(six_programs, small_line)
        assert result.plan.num_occupied_switches() <= 2

    def test_merge_flag_threaded_through(self):
        from repro.workloads.sketches import sketch_programs

        programs = sketch_programs(3)
        merged = Hermes(merge=True).analyze(programs)
        unmerged = Hermes(merge=False).analyze(programs)
        assert len(merged) < len(unmerged)
