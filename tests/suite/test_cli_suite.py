"""The ``repro suite`` subcommands, end to end through ``main``."""

from legacy_oracles import fig2_render, fig2_rows

from repro.cli import main
from repro.suite import SuiteReport, load_spec, run_suite


class TestList:
    def test_lists_every_shipped_spec(self, capsys):
        assert main(["suite", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("exp1", "exp2", "exp7", "fig2", "smoke", "diurnal"):
            assert name in out
        assert "deployment" in out and "churn" in out


class TestValidate:
    def test_prints_the_cell_plan(self, capsys):
        assert main(["suite", "validate", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "valid: smoke (deployment), 8 cells" in out
        assert "workload=2 topology=linear-3 framework=Hermes" in out

    def test_unknown_spec_fails(self, capsys):
        assert main(["suite", "validate", "exp99"]) == 1
        assert "error:" in capsys.readouterr().out

    def test_bad_spec_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"suite": "repro.suite/v1", "kind": "nope"}')
        assert main(["suite", "validate", str(bad)]) == 1
        assert "error:" in capsys.readouterr().out


class TestRun:
    def test_fig2_tables_match_the_legacy_bytes(self, capsys):
        """The shipped fig2 spec through the CLI reproduces the
        pre-refactor stdout bit for bit (closed form: deterministic)."""
        assert main(["suite", "run", "fig2"]) == 0
        out = capsys.readouterr().out
        expected = fig2_render(fig2_rows())
        assert out.startswith(expected + "\n\n")
        assert "suite fig2 (overhead_sweep): 15 cells" in out

    def test_cache_rerun_and_report_round_trip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        report_path = str(tmp_path / "report.json")
        spec_path = str(tmp_path / "tiny.json")
        import json

        json.dump(
            {
                "suite": "repro.suite/v1",
                "name": "tiny",
                "kind": "deployment",
                "axes": {
                    "workloads": ["real:2"],
                    "topologies": ["linear-3"],
                    "frameworks": ["ffl", "ffls"],
                },
            },
            open(spec_path, "w"),
        )
        assert main(
            ["suite", "run", spec_path, "--cache-dir", cache,
             "--out", report_path]
        ) == 0
        cold = capsys.readouterr().out
        assert "suite tiny (deployment): 2 cells, 0 cached" in cold
        assert f"wrote report to {report_path}" in cold

        assert main(
            ["suite", "run", spec_path, "--cache-dir", cache]
        ) == 0
        warm = capsys.readouterr().out
        assert "suite tiny (deployment): 2 cells, 2 cached" in warm
        # the tables region is byte-identical across the rerun
        assert warm.split("\n\nsuite tiny")[0] == cold.split(
            "\n\nsuite tiny"
        )[0]

        report = SuiteReport.load(report_path)
        assert report.num_cells == 2
        assert main(["suite", "report", report_path]) == 0
        shown = capsys.readouterr().out
        assert report.render() in shown
        assert "suite tiny (deployment): 2 cells" in shown

    def test_report_missing_file(self, capsys):
        assert main(["suite", "report", "/no/such/report.json"]) == 1
        assert "cannot load report" in capsys.readouterr().out


class TestModuleEquivalence:
    def test_cli_run_matches_run_suite(self, tmp_path, capsys):
        """``repro suite run`` prints exactly ``report.render()`` plus
        the footer — cross-checked through a shared cache (execution
        times replay from cache, so the bytes can be compared)."""
        from repro.experiments.runner import ExperimentRunner

        cache = str(tmp_path / "cache")
        report = run_suite(
            load_spec("smoke"),
            runner=ExperimentRunner(cache_dir=cache),
        )
        assert main(
            ["suite", "run", "smoke", "--cache-dir", cache]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith(report.render() + "\n\n")
        assert "8 cells, 8 cached" in out
