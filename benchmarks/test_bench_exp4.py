"""Benchmark: Exp#4 (Fig. 8) — end-to-end impact of measured overheads."""

from repro.experiments.exp4_endtoend import main
from repro.simulation import overhead_impact


def test_bench_exp4_endtoend(benchmark, exp2_points):
    from conftest import record_report

    record_report(main(exp2_points))

    overheads = [
        p.record.overhead_bytes
        for p in exp2_points
        if p.record.framework == "FFL"
    ]

    def impact_sweep():
        return [overhead_impact(ov) for ov in overheads]

    results = benchmark(impact_sweep)
    for fct_ratio, goodput_ratio in results:
        assert fct_ratio >= 1.0
        assert goodput_ratio <= 1.0

    # Paper shape: Hermes' deployments degrade end-to-end performance
    # no more than the overhead-oblivious baselines'.
    hermes = [
        p.record for p in exp2_points if p.record.framework == "Hermes"
    ]
    ffl = [p.record for p in exp2_points if p.record.framework == "FFL"]
    for h, f in zip(hermes, ffl):
        assert h.fct_ratio <= f.fct_ratio
        assert h.goodput_ratio >= f.goodput_ratio
