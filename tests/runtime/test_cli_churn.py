"""CLI tests: the churn subcommands, the --seed flag and exp7."""

import json

import pytest

from repro.cli import main, parse_topology, parse_workload


class TestSeedFlag:
    def test_seed_threads_into_wan(self):
        a = parse_topology("wan:10:14", seed=9)
        b = parse_topology("wan:10:14:9")
        assert sorted(link.key for link in a.links) == sorted(
            link.key for link in b.links
        )
        c = parse_topology("wan:10:14", seed=10)
        assert sorted(link.key for link in a.links) != sorted(
            link.key for link in c.links
        )

    def test_spec_seed_wins_over_flag(self):
        pinned = parse_topology("wan:10:14:3", seed=9)
        expected = parse_topology("wan:10:14:3")
        assert sorted(link.key for link in pinned.links) == sorted(
            link.key for link in expected.links
        )

    def test_seed_threads_into_synthetic(self):
        a = parse_workload("synthetic:2", seed=11)
        b = parse_workload("synthetic:2:11")
        assert [
            (p.name, [m.name for m in p.mats]) for p in a
        ] == [(p.name, [m.name for m in p.mats]) for p in b]

    def test_deploy_accepts_seed(self, capsys):
        code = main(
            [
                "deploy",
                "--workload", "synthetic:2",
                "--topology", "wan:8:10",
                "--seed", "5",
            ]
        )
        assert code == 0
        assert "deployed" in capsys.readouterr().out


@pytest.fixture
def churn_artifacts(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    report = tmp_path / "report.json"
    plans = tmp_path / "plans"
    code = main(
        [
            "churn", "run",
            "--workload", "sketches:6",
            "--topology", "wan:12:18",
            "--seed", "4",
            "--events", "3",
            "--scenario-out", str(scenario),
            "--report-out", str(report),
            "--plans-dir", str(plans),
        ]
    )
    out = capsys.readouterr().out
    return code, out, scenario, report, plans


class TestChurnRun:
    def test_run_produces_report_and_artifacts(self, churn_artifacts):
        code, out, scenario, report, plans = churn_artifacts
        assert code == 0
        assert "Per-batch disruption" in out
        assert scenario.exists()
        assert report.exists()
        assert (plans / "history.json").exists()
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.disruption/v1"
        assert doc["num_events"] == 3

    def test_scenario_embeds_pinned_seeds(self, churn_artifacts):
        _, _, scenario, _, _ = churn_artifacts
        doc = json.loads(scenario.read_text())
        assert doc["topology_spec"] == "wan:12:18:4"
        assert doc["seed"] == 4

    def test_replay_is_deterministic(self, churn_artifacts, capsys):
        _, out, scenario, _, _ = churn_artifacts
        code = main(["churn", "replay", str(scenario)])
        replay_out = capsys.readouterr().out
        assert code == 0
        digest = next(
            line for line in out.splitlines() if "digest" in line
        )
        assert digest in replay_out

    def test_report_subcommand(self, churn_artifacts, capsys):
        _, _, _, report, _ = churn_artifacts
        code = main(["churn", "report", str(report)])
        assert code == 0
        assert "Per-batch disruption" in capsys.readouterr().out

    def test_report_rejects_junk(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope"}')
        code = main(["churn", "report", str(bad)])
        assert code == 1
        assert "cannot load report" in capsys.readouterr().out

    def test_replay_rejects_missing_file(self, tmp_path, capsys):
        code = main(
            ["churn", "replay", str(tmp_path / "missing.json")]
        )
        assert code == 1
        assert "cannot load scenario" in capsys.readouterr().out


class TestExp7:
    def test_exp7_reduced(self, capsys, tmp_path):
        rows = tmp_path / "rows.json"
        journal = tmp_path / "journal.jsonl"
        code = main(
            [
                "exp7",
                "--seeds", "0", "1",
                "--events", "3",
                "--workload", "real:6",
                "--journal", str(journal),
                "--json", str(rows),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Exp#7" in out
        exported = json.loads(rows.read_text())
        assert len(exported) == 2
        assert all("history_digest" in row for row in exported)
        lines = [
            json.loads(line)
            for line in journal.read_text().splitlines()
        ]
        kinds = {line["kind"] for line in lines}
        assert "runtime.scenario.start" in kinds
        assert "runtime.converged" in kinds
