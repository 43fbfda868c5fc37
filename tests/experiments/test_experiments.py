"""Tests for the experiment harness (reduced budgets)."""

import pytest

from repro.baselines import Ffl, Ffls, HermesHeuristic
from repro.experiments import fig2_motivation
from repro.experiments.exp1_testbed import run as run_exp1, main as main_exp1
from repro.experiments.exp2_overhead import (
    run as run_exp2,
    workload,
)
from repro.experiments.exp3_exectime import main as main_exp3
from repro.experiments.exp4_endtoend import main as main_exp4
from repro.experiments.exp5_scalability import run as run_exp5, main as main_exp5
from repro.experiments.exp6_resources import ground_truth_units, run as run_exp6
from repro.experiments.harness import (
    DeploymentRecord,
    default_frameworks,
    run_deployment_suite,
)
from repro.experiments.reporting import Table, format_series
from repro.network.generators import linear_topology
from repro.simulation import overhead_impact


FAST = [HermesHeuristic(), Ffl(), Ffls()]


class TestReporting:
    def test_table_renders(self):
        table = Table("T", ["a", "b"])
        table.add_row([1, 2.5])
        table.add_row(["x", 1e-7])
        out = table.render()
        assert "T" in out and "a" in out and "2.5" in out

    def test_row_width_checked(self):
        table = Table("T", ["a"])
        with pytest.raises(ValueError):
            table.add_row([1, 2])

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            Table("T", [])

    def test_format_series(self):
        assert format_series("s", [1, 2.5]) == "s: 1, 2.5"


class TestHarness:
    def test_end_to_end_impact_monotone(self):
        fct0, gp0 = overhead_impact(0)
        fct1, gp1 = overhead_impact(100)
        assert fct0 == pytest.approx(1.0)
        assert gp0 == pytest.approx(1.0)
        assert fct1 > 1.0
        assert gp1 < 1.0

    def test_unrouted_plan_falls_back_on_the_named_engine(self):
        from repro.experiments.harness import plan_overhead_impact
        from repro.workloads import real_programs

        network = linear_topology(3)
        plan = Ffl().deploy(real_programs(6), network).plan
        assert plan.max_metadata_bytes() > 0
        stripped = plan.with_routing({})
        for engine in ("exact", "batch"):
            assert plan_overhead_impact(
                stripped, network, engine=engine
            ) == overhead_impact(plan.max_metadata_bytes(), engine=engine)

    def test_default_frameworks_order(self):
        frameworks = default_frameworks()
        names = [f.name for f in frameworks]
        assert names[-2:] == ["Hermes", "Optimal"]
        assert len(names) == 10

    def test_run_suite_records_everything(self, six_programs):
        net = linear_topology(3, num_stages=4, stage_capacity=1.0)
        records = run_deployment_suite(six_programs, net, frameworks=FAST)
        assert set(records) == {"Hermes", "FFL", "FFLS"}
        for record in records.values():
            assert isinstance(record, DeploymentRecord)
            assert record.overhead_bytes >= 0
            assert record.fct_ratio >= 1.0
            assert 0 < record.goodput_ratio <= 1.0

    def test_reported_time_caps_timeouts(self):
        record = DeploymentRecord("f", 0, 1.0, True, 1)
        assert record.reported_time_ms == 1e7
        record = DeploymentRecord("f", 0, 1.0, False, 1)
        assert record.reported_time_ms == pytest.approx(1000.0)


class TestFig2:
    def test_rows_cover_sweep(self):
        rows = fig2_motivation.run()
        assert len(rows) == len(fig2_motivation.OVERHEAD_SWEEP) * len(
            fig2_motivation.PACKET_SIZES
        )

    def test_fct_rises_goodput_falls_with_overhead(self):
        rows = fig2_motivation.run(packet_sizes=(512,))
        fcts = [r.fct_ratio for r in rows]
        goodputs = [r.goodput_ratio for r in rows]
        assert fcts == sorted(fcts)
        assert goodputs == sorted(goodputs, reverse=True)

    def test_des_agrees_with_analytic(self):
        closed = fig2_motivation.run(
            overheads=(48,), packet_sizes=(1024,), message_bytes=102_400
        )
        des = fig2_motivation.run(
            overheads=(48,),
            packet_sizes=(1024,),
            message_bytes=102_400,
            engine="exact",
        )
        # The message does not divide evenly into 970-byte payloads, so
        # the closed form is a (tight) upper bound, not exact.
        assert closed[0].fct_ratio == pytest.approx(
            des[0].fct_ratio, rel=1e-2
        )

    def test_main_prints(self, capsys):
        fig2_motivation.main()
        assert "Fig. 2" in capsys.readouterr().out


class TestExperimentRuns:
    def test_exp1_reduced(self):
        points = run_exp1(program_counts=(2, 4), frameworks=FAST)
        assert len(points) == 2 * len(FAST)
        out = main_exp1(points)
        assert "Fig. 5(a)" in out

    def test_exp2_reduced(self):
        points = run_exp2(
            topology_ids=(1,), num_programs=6, frameworks=FAST
        )
        assert len(points) == len(FAST)
        hermes = next(
            p for p in points if p.record.framework == "Hermes"
        )
        ffl = next(p for p in points if p.record.framework == "FFL")
        assert hermes.record.overhead_bytes <= ffl.record.overhead_bytes
        assert "Fig. 7" in main_exp3(points)
        assert "Fig. 8" in main_exp4(points)

    def test_exp5_reduced(self):
        points = run_exp5(
            program_counts=(4, 8), topology_id=2, frameworks=FAST
        )
        assert len(points) == 2 * len(FAST)
        assert "Fig. 9(a)" in main_exp5(points)

    def test_exp6(self):
        rows = run_exp6(num_sketches=6, frameworks=[HermesHeuristic()])
        assert rows[0].strategy.startswith("standalone")
        hermes = rows[1]
        # Coordination adds no switch resources; merging may save some.
        assert hermes.extra_vs_ground_truth <= 1e-9
        assert ground_truth_units(6) == pytest.approx(
            rows[0].total_stage_units
        )

    def test_exp2_workload_composition(self):
        programs = workload(15, seed=3)
        assert len(programs) == 15
        names = {p.name for p in programs}
        assert "l3_routing" in names  # real slice present
        assert any(n.startswith("syn") for n in names)


class TestEndToEndImpactEdgeCases:
    def test_huge_overhead_uses_fragmentation_fallback(self):
        # Overhead beyond the whole MTU: real deployments fragment; the
        # model must degrade gracefully rather than raise.
        fct_ratio, goodput_ratio = overhead_impact(1468)
        assert fct_ratio > 1.5
        assert 0 < goodput_ratio < 0.7

    def test_moderate_overhead_unaffected_by_fallback(self):
        # Below the MTU boundary the fallback must not kick in.
        a = overhead_impact(100)
        b = overhead_impact(101)
        assert abs(a[0] - b[0]) < 0.01

    def test_monotone_across_the_mtu_boundary(self):
        ratios = [overhead_impact(ov)[0] for ov in (0, 400, 1400, 1500, 2000)]
        assert ratios == sorted(ratios)
