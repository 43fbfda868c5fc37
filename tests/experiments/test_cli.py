"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, parse_topology, parse_workload


class TestParseWorkload:
    def test_real(self):
        assert len(parse_workload("real:4")) == 4

    def test_sketches(self):
        assert len(parse_workload("sketches:3")) == 3

    def test_synthetic_with_seed(self):
        a = parse_workload("synthetic:2:5")
        b = parse_workload("synthetic:2:5")
        assert len(a) == 2
        assert [p.name for p in a] == [p.name for p in b]

    def test_combined(self):
        programs = parse_workload("real:2+sketches:2+synthetic:2")
        assert len(programs) == 6

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="workload kind"):
            parse_workload("quantum:3")


class TestParseTopology:
    def test_zoo(self):
        net = parse_topology("zoo:1")
        assert net.num_switches == 79

    def test_linear(self):
        assert parse_topology("linear:4").num_switches == 4

    def test_fattree(self):
        assert parse_topology("fattree:4").num_switches == 20

    def test_wan(self):
        net = parse_topology("wan:12:16:3")
        assert net.num_switches == 12
        assert net.num_links == 16

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="topology kind"):
            parse_topology("torus:3")


class TestCommands:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        for command in ("fig2", "exp1", "exp2", "exp5", "exp6", "deploy"):
            args = parser.parse_args(
                [command]
                if command not in ("deploy",)
                else [command, "--workload", "real:2"]
            )
            assert args.command == command

    def test_fig2_runs(self, capsys):
        assert main(["fig2"]) == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_exp6_runs(self, capsys):
        assert main(["exp6"]) == 0
        assert "Exp#6" in capsys.readouterr().out

    def test_deploy_runs_with_verify(self, capsys):
        code = main(
            [
                "deploy",
                "--workload",
                "sketches:4",
                "--topology",
                "linear:3",
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-packet byte overhead" in out
        assert "dataflow verified" in out

    def test_deploy_emits_configs(self, capsys):
        code = main(
            [
                "deploy",
                "--workload",
                "real:2",
                "--topology",
                "linear:2",
                "--configs",
            ]
        )
        assert code == 0
        assert '"stages"' in capsys.readouterr().out

    @pytest.mark.slow
    def test_exp2_reduced_runs(self, capsys):
        code = main(
            [
                "exp2",
                "--topologies",
                "2",
                "--programs",
                "6",
                "--time-limit",
                "3",
            ]
        )
        assert code == 0
        assert "Fig. 6" in capsys.readouterr().out


class TestMoreCommands:
    @pytest.mark.slow
    def test_exp3_and_exp4_share_exp2_machinery(self, capsys):
        assert (
            main(
                [
                    "exp3",
                    "--topologies",
                    "2",
                    "--programs",
                    "6",
                    "--time-limit",
                    "3",
                ]
            )
            == 0
        )
        assert "Fig. 7" in capsys.readouterr().out
        assert (
            main(
                [
                    "exp4",
                    "--topologies",
                    "2",
                    "--programs",
                    "6",
                    "--time-limit",
                    "3",
                ]
            )
            == 0
        )
        assert "Fig. 8" in capsys.readouterr().out

    def test_exp5_reduced(self, capsys):
        assert (
            main(
                [
                    "exp5",
                    "--programs-sweep",
                    "4",
                    "--time-limit",
                    "3",
                ]
            )
            == 0
        )
        assert "Fig. 9" in capsys.readouterr().out

    def test_deploy_optimal_mode(self, capsys):
        code = main(
            [
                "deploy",
                "--workload",
                "sketches:3",
                "--topology",
                "linear:2",
                "--mode",
                "optimal",
                "--time-limit",
                "15",
            ]
        )
        assert code == 0
        assert "A_max" in capsys.readouterr().out

    def test_deploy_optimal_reports_time_limit(self, capsys, monkeypatch):
        from repro.milp.highs import HighsSolver
        from repro.milp.solution import Solution, SolveStatus
        from repro.server.ops import deploy_op, deterministic_view

        params = {
            "workload": "sketches:3",
            "topology": "linear:2",
            "mode": "optimal",
        }
        proven = deploy_op(params)
        assert proven["timing"]["timed_out"] is False
        monkeypatch.setattr(
            HighsSolver,
            "solve",
            lambda self, model, initial=None: Solution(
                SolveStatus.TIME_LIMIT
            ),
        )
        fallback = deploy_op(params)
        assert fallback["timing"]["timed_out"] is True
        assert "timed_out" not in str(deterministic_view("deploy", fallback))
        code = main(
            [
                "deploy",
                "--workload",
                "sketches:3",
                "--topology",
                "linear:2",
                "--mode",
                "optimal",
            ]
        )
        assert code == 0
        assert "not proven optimal" in capsys.readouterr().out

    def test_deploy_with_replication_flag(self, capsys):
        code = main(
            [
                "deploy",
                "--workload",
                "sketches:4",
                "--topology",
                "linear:3",
                "--replicate",
            ]
        )
        assert code == 0


class TestJsonExport:
    def test_exp2_exports_rows(self, tmp_path, capsys):
        out_path = tmp_path / "rows.json"
        code = main(
            [
                "exp2",
                "--topologies",
                "2",
                "--programs",
                "4",
                "--time-limit",
                "3",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        import json

        rows = json.loads(out_path.read_text())
        assert rows
        assert {"topology", "framework", "overhead_bytes"} <= set(rows[0])


class TestPlanCommands:
    """The plan artifact surface: deploy --out, export/validate/diff."""

    @pytest.fixture()
    def exported(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        assert (
            main(
                [
                    "deploy",
                    "--workload",
                    "real:4",
                    "--topology",
                    "linear:3",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return path

    def test_deploy_out_writes_plan(self, exported, capsys):
        from repro.plan import read_plan

        plan = read_plan(str(exported))
        plan.validate()
        assert len(plan.placements) > 0

    def test_plan_export(self, tmp_path, capsys):
        path = tmp_path / "exported.json"
        code = main(
            [
                "plan",
                "export",
                "--workload",
                "real:3",
                "--topology",
                "linear:3",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        assert "fingerprint" in capsys.readouterr().out
        assert path.exists()

    def test_plan_validate_good(self, exported, capsys):
        assert main(["plan", "validate", str(exported)]) == 0
        out = capsys.readouterr().out
        assert "valid:" in out and "A_max" in out

    def test_plan_validate_missing_file(self, tmp_path, capsys):
        code = main(["plan", "validate", str(tmp_path / "absent.json")])
        assert code == 1
        assert "cannot load plan" in capsys.readouterr().out

    def test_plan_validate_broken_document(self, exported, capsys):
        import json

        doc = json.loads(exported.read_text())
        doc["placements"] = doc["placements"][1:]  # drop one MAT
        exported.write_text(json.dumps(doc))
        assert main(["plan", "validate", str(exported)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_plan_diff_identical(self, exported, capsys):
        code = main(
            ["plan", "diff", str(exported), str(exported), "--exit-code"]
        )
        assert code == 0
        assert "identical" in capsys.readouterr().out

    def test_plan_diff_differing_plans_exit_code(
        self, exported, tmp_path, capsys
    ):
        other = tmp_path / "other.json"
        assert (
            main(
                [
                    "plan",
                    "export",
                    "--workload",
                    "real:5",
                    "--topology",
                    "linear:4",
                    "--out",
                    str(other),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            ["plan", "diff", str(exported), str(other), "--exit-code"]
        )
        assert code == 1
        assert "A_max" in capsys.readouterr().out

    def test_plan_diff_json_output(self, exported, capsys):
        import json

        assert main(["plan", "diff", str(exported), str(exported), "--json"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        assert json.loads(payload)["identical"] is True

    def test_plan_diff_unreadable_returns_2(self, exported, tmp_path, capsys):
        code = main(
            ["plan", "diff", str(exported), str(tmp_path / "nope.json")]
        )
        assert code == 2


class TestSimulateCommand:
    """The traffic-simulation surface: repro simulate."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        # Unset, so --load alone can select the contention engine.
        assert args.engine is None
        assert args.load is None
        assert args.overhead is None
        assert args.flows == 0

    def test_scalar_overhead_mode(self, capsys):
        assert main(["simulate", "--overhead", "48"]) == 0
        out = capsys.readouterr().out
        assert "simulate: uniform via batch engine" in out
        assert "worst FCT ratio" in out

    def test_scalar_engines_agree(self, tmp_path, capsys):
        import json

        paths = {}
        for engine in ("exact", "batch", None):
            name = engine or "default"
            paths[name] = tmp_path / f"{name}.json"
            flags = ["--engine", engine] if engine else []
            assert (
                main(
                    [
                        "simulate",
                        "--overhead",
                        "200",
                        *flags,
                        "--json",
                        str(paths[name]),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        ratios = {
            engine: json.loads(path.read_text())["worst_fct_ratio"]
            for engine, path in paths.items()
        }
        assert ratios["default"] == ratios["batch"]
        assert ratios["exact"] == pytest.approx(ratios["batch"], rel=1e-2)

    def test_plan_aware_trace_mode(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "sim.json"
        journal = tmp_path / "sim.jsonl"
        code = main(
            [
                "simulate",
                "--workload",
                "real:6",
                "--topology",
                "linear:3",
                "--flows",
                "500",
                "--engine",
                "batch",
                "--json",
                str(out_path),
                "--journal",
                str(journal),
            ]
        )
        assert code == 0
        summary = json.loads(out_path.read_text())
        assert summary["engine"] == "batch"
        assert summary["flows"] == 500
        assert summary["source"].startswith("plan:")
        assert summary["worst_fct_ratio"] >= 1.0
        events = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line.strip()
        ]
        assert any(e.get("kind") == "sim.evaluate" for e in events)
        capsys.readouterr()

    @pytest.mark.parametrize("command", (["simulate"], ["churn", "run"]))
    def test_engine_choices(self, command, capsys):
        parser = build_parser()
        for engine in ("exact", "batch", "contention"):
            args = parser.parse_args([*command, "--engine", engine])
            assert args.engine == engine
        with pytest.raises(SystemExit):
            parser.parse_args([*command, "--engine", "analytic"])
        capsys.readouterr()

    def test_load_with_another_engine_is_an_error(self, capsys):
        code = main(
            ["simulate", "--overhead", "48", "--engine", "exact",
             "--load", "0.5"]
        )
        assert code == 1
        assert "exact, batch, contention" in capsys.readouterr().out

    def test_churn_report_gains_engine_flag(self):
        args = build_parser().parse_args(
            ["churn", "report", "r.json", "--engine", "batch"]
        )
        assert args.engine == "batch"


@pytest.mark.slow
def test_quick_report(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "quick report" in out
    assert "headline" in out
