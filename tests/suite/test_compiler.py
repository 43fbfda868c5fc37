"""Compiler semantics: cell plans, frameworks, caching, reports."""

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.suite import (
    SuiteReport,
    SuiteSpec,
    build_frameworks,
    cell_plan,
    deployment_cells,
    load_spec,
    run_suite,
    shipped_specs,
)
from repro.telemetry import Recorder, attached

#: The shipped specs' resolved matrix sizes (axes cross-products).
SHIPPED_CELL_COUNTS = {
    "exp1": 50,     # 5 counts x 1 topology x 10 frameworks
    "exp2": 100,    # 1 workload x 10 topologies x 10 frameworks
    "exp3": 100,
    "exp4": 100,
    "exp5": 50,     # 5 counts x 1 topology x 10 frameworks
    "exp6": 2,      # speed + hermes
    "exp7": 5,      # 5 seeds
    "fig2": 15,     # 3 packet sizes x 5 overheads
    "smoke": 8,     # 2 workloads x 2 topologies x 2 frameworks
    "diurnal": 16,  # 8 hours x 2 overheads
}


def tiny_spec(**overrides):
    """A two-cell deployment suite that solves in well under a second."""
    doc = {
        "suite": "repro.suite/v1",
        "name": "tiny",
        "kind": "deployment",
        "axes": {
            "workloads": [{"spec": "real:2", "tag": 2}],
            "topologies": ["linear-3"],
            "frameworks": ["ffl", "ffls"],
        },
    }
    doc.update(overrides)
    return SuiteSpec.from_dict(doc)


class TestCellPlan:
    def test_shipped_matrix_sizes(self):
        for name, spec in shipped_specs().items():
            assert len(cell_plan(spec)) == SHIPPED_CELL_COUNTS[name], name

    def test_deployment_coordinates(self):
        coords = cell_plan(load_spec("smoke"))
        assert coords[0] == {
            "workload": 2, "topology": "linear-3", "framework": "Hermes",
        }
        # workload -> topology -> framework nesting, workload slowest
        assert [c["workload"] for c in coords] == [2] * 4 + [3] * 4

    def test_churn_and_sweep_coordinates(self):
        assert cell_plan(load_spec("exp7")) == [
            {"seed": s} for s in range(5)
        ]
        fig2 = cell_plan(load_spec("fig2"))
        assert fig2[0] == {"packet_size": 512, "overhead": 28}
        assert len(fig2) == 15


class TestFrameworks:
    def test_paper_set_matches_default_frameworks(self):
        from repro.experiments.harness import default_frameworks

        spec = tiny_spec(
            axes={
                "workloads": ["real:2"],
                "topologies": ["linear-3"],
                "frameworks": {"set": "paper"},
            }
        )
        names = [f.name for f in build_frameworks(spec)]
        assert names == [f.name for f in default_frameworks()]

    def test_list_form_kwargs_pass_through(self):
        from repro.baselines import Speed

        spec = tiny_spec(
            axes={
                "workloads": ["real:2"],
                "topologies": ["linear-3"],
                "frameworks": [
                    {"name": "speed", "time_limit_s": 1.5},
                    "hermes",
                ],
            }
        )
        frameworks = build_frameworks(spec)
        assert isinstance(frameworks[0], Speed)
        assert frameworks[0].time_limit_s == 1.5
        assert frameworks[1].name == "Hermes"

    def test_deployment_cells_share_instances(self):
        cells = deployment_cells(load_spec("smoke"))
        assert len(cells) == 8
        # one network instance per unique topology spec
        assert cells[0].network is cells[4].network
        assert cells[2].network is cells[6].network
        assert cells[0].network is not cells[2].network
        # tags follow the workload axis
        assert [c.tag for c in cells] == [2] * 4 + [3] * 4

    def test_deployment_cells_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="deployment"):
            deployment_cells(load_spec("exp7"))


class TestRunSuite:
    def test_rerun_hits_the_cache_and_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        cold = run_suite(
            spec, runner=ExperimentRunner(cache_dir=str(tmp_path))
        )
        assert cold.num_cells == 2
        assert cold.cached_cells == 0

        warm = run_suite(
            spec, runner=ExperimentRunner(cache_dir=str(tmp_path))
        )
        assert warm.cached_cells == warm.num_cells == 2
        assert warm.render() == cold.render()
        assert warm.tables == cold.tables

        # identical except the cache flags
        def strip(cells):
            return [
                {k: v for k, v in c.items() if k != "cached"} for c in cells
            ]

        assert strip(warm.cells) == strip(cold.cells)

    def test_default_aggregator_is_the_pivot(self):
        report = run_suite(tiny_spec())
        assert report.meta["aggregators"] == ["pivot"]
        assert "tiny: per-packet byte overhead (B)" in report.tables[0]
        assert "FFL" in report.tables[0]

    def test_telemetry_stream(self):
        recorder = Recorder()
        with attached(recorder):
            run_suite(tiny_spec())
        kinds = [e["kind"] for e in recorder.events]
        assert kinds.count("suite.start") == 1
        assert kinds.count("suite.cell") == 2
        assert kinds.count("suite.done") == 1
        start = next(e for e in recorder.events if e["kind"] == "suite.start")
        assert start["suite"] == "tiny"
        assert start["suite_kind"] == "deployment"
        assert start["cells"] == 2

    def test_traffic_suite_applies_the_diurnal_model(self):
        from repro.simulation.spec import DiurnalLoad

        spec = SuiteSpec.from_dict(
            {
                "suite": "repro.suite/v1",
                "name": "t",
                "kind": "traffic",
                "axes": {"hours": [0, 6], "overheads": [48]},
                "params": {
                    "flows": 20,
                    "load": {"base": 0.5, "amplitude": 0.4},
                },
            }
        )
        report = run_suite(spec)
        assert report.num_cells == 2
        model = DiurnalLoad(base=0.5, amplitude=0.4)
        by_hour = {c["hour"]: c for c in report.cells}
        assert by_hour[0]["load"] == model.load_at(0)
        assert by_hour[6]["load"] == model.load_at(6)
        # peak hour carries more contention than the trough
        assert by_hour[6]["load"] > by_hour[0]["load"]

    def test_resources_suite_uses_the_frameworks_axis(self):
        spec = SuiteSpec.from_dict(
            {
                "suite": "repro.suite/v1",
                "name": "r",
                "kind": "resources",
                "axes": {"frameworks": ["ffl", "hermes"]},
                "params": {"num_sketches": 3},
            }
        )
        report = run_suite(spec)
        assert [c["strategy"] for c in report.cells] == [
            "standalone (ground truth)", "FFL", "Hermes",
        ]


class TestReport:
    def test_round_trip(self):
        report = run_suite(tiny_spec())
        doc = report.to_dict()
        again = SuiteReport.from_dict(doc)
        assert again == report
        assert again.dumps() == report.dumps()

    def test_save_and_load(self, tmp_path):
        report = run_suite(tiny_spec())
        path = tmp_path / "report.json"
        report.save(str(path))
        assert SuiteReport.load(str(path)) == report

    def test_version_and_unknown_keys(self):
        report = run_suite(tiny_spec())
        doc = report.to_dict()
        doc["version"] = "repro.suite-report/v0"
        with pytest.raises(ValueError, match="version"):
            SuiteReport.from_dict(doc)
        doc = report.to_dict()
        doc["bogus"] = 1
        with pytest.raises(ValueError, match="unknown"):
            SuiteReport.from_dict(doc)
