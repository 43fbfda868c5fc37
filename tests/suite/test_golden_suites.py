"""Golden differentials: the suite path vs the pre-refactor pipelines.

``legacy_oracles`` holds verbatim copies of the exp1-exp7/fig2 code as
it stood before the suite-compiler refactor.  Two locks per
experiment:

* **cell-matrix locks** — the shipped spec compiles to exactly the
  cache keys the historical loops built (pure hashing, no solving);
* **byte locks** — at reduced scale, the legacy pipeline runs against
  a result cache and the refactored suite path must then replay it
  *entirely from cache* (proving key identity) and render the same
  bytes.

Deterministic pipelines (fig2's closed-form sweep, exp6's resource
accounting, exp7's seeded histories) are compared across independent
runs instead.
"""

from legacy_oracles import (
    exp1_cells,
    exp1_render,
    exp1_run,
    exp2_cells,
    exp2_render,
    exp2_run,
    exp3_render,
    exp4_render,
    exp5_cells,
    exp5_render,
    exp5_run,
    exp6_render,
    exp6_rows,
    exp7_render,
    exp7_run,
    fig2_render,
    fig2_rows,
)

from repro.baselines import Ffl, Ffls, HermesHeuristic
from repro.experiments import (
    exp1_testbed,
    exp2_overhead,
    exp3_exectime,
    exp4_endtoend,
    exp5_scalability,
    exp6_resources,
    exp7_churn,
    fig2_motivation,
)
from repro.experiments.runner import ExperimentRunner
from repro.suite import SuiteSpec, deployment_cells, load_spec, run_suite


def fast():
    """Fast frameworks for reduced-scale byte locks (fresh instances)."""
    return [HermesHeuristic(), Ffl(), Ffls()]


def keys(cells):
    return [c.key() for c in cells]


# ----------------------------------------------------------------------
# Cell-matrix locks: shipped specs == historical loops, at full scale
# ----------------------------------------------------------------------
class TestShippedCellMatrices:
    def test_exp1_spec_compiles_to_the_legacy_cells(self):
        assert keys(deployment_cells(load_spec("exp1"))) == keys(
            exp1_cells()
        )

    def test_exp2_spec_compiles_to_the_legacy_cells(self):
        assert keys(deployment_cells(load_spec("exp2"))) == keys(
            exp2_cells(range(1, 11))
        )

    def test_exp5_spec_compiles_to_the_legacy_cells(self):
        assert keys(deployment_cells(load_spec("exp5"))) == keys(
            exp5_cells((10, 20, 30, 40, 50))
        )

    def test_exp3_exp4_share_the_exp2_matrix(self):
        exp2 = keys(deployment_cells(load_spec("exp2")))
        assert keys(deployment_cells(load_spec("exp3"))) == exp2
        assert keys(deployment_cells(load_spec("exp4"))) == exp2


# ----------------------------------------------------------------------
# Byte locks: legacy run -> cache -> suite replay, identical tables
# ----------------------------------------------------------------------
class TestByteIdenticalTables:
    def test_exp1(self, tmp_path):
        counts = (2, 3)
        legacy_points = exp1_run(
            counts,
            frameworks=fast(),
            runner=ExperimentRunner(cache_dir=str(tmp_path)),
        )
        report = run_suite(
            exp1_testbed.suite_spec(counts),
            runner=ExperimentRunner(cache_dir=str(tmp_path)),
            frameworks_override=fast(),
        )
        # every cell replayed from the legacy run's cache: the spec
        # compiles to the very same content-addressed keys
        assert report.cached_cells == report.num_cells == 6
        assert report.render() == exp1_render(legacy_points)
        # the module path shares the bytes too
        points = exp1_testbed.run(
            counts,
            frameworks=fast(),
            runner=ExperimentRunner(cache_dir=str(tmp_path)),
        )
        assert exp1_testbed.render(points) == exp1_render(legacy_points)

    def test_exp2_exp3_exp4(self, tmp_path):
        topology_ids = (1,)
        num_programs = 4
        legacy_points = exp2_run(
            topology_ids,
            num_programs,
            frameworks=fast(),
            runner=ExperimentRunner(cache_dir=str(tmp_path)),
        )
        report = run_suite(
            exp2_overhead.suite_spec(topology_ids, num_programs),
            runner=ExperimentRunner(cache_dir=str(tmp_path)),
            frameworks_override=fast(),
        )
        assert report.cached_cells == report.num_cells == 3
        assert report.render() == exp2_render(legacy_points)

        points = exp2_overhead.run(
            topology_ids,
            num_programs,
            frameworks=fast(),
            runner=ExperimentRunner(cache_dir=str(tmp_path)),
        )
        assert exp2_overhead.render(points) == exp2_render(legacy_points)
        assert exp3_exectime.render(points) == exp3_render(legacy_points)
        assert exp4_endtoend.render(points) == exp4_render(legacy_points)

    def test_exp5(self, tmp_path):
        counts = (2, 3)
        legacy_points = exp5_run(
            counts,
            topology_id=1,
            frameworks=fast(),
            runner=ExperimentRunner(cache_dir=str(tmp_path)),
        )
        report = run_suite(
            exp5_scalability.suite_spec(counts, topology_id=1),
            runner=ExperimentRunner(cache_dir=str(tmp_path)),
            frameworks_override=fast(),
        )
        assert report.cached_cells == report.num_cells == 6
        assert report.render() == exp5_render(legacy_points)


# ----------------------------------------------------------------------
# Deterministic pipelines: independent runs must agree byte-for-byte
# ----------------------------------------------------------------------
class TestDeterministicPipelines:
    def test_exp6(self):
        legacy = exp6_rows(
            num_sketches=3, frameworks=[Ffl(), HermesHeuristic()]
        )
        rows = exp6_resources.run(
            num_sketches=3, frameworks=[Ffl(), HermesHeuristic()]
        )
        assert [
            (r.strategy, r.total_stage_units, r.num_mats,
             r.extra_vs_ground_truth)
            for r in rows
        ] == legacy
        assert exp6_resources.render(rows) == exp6_render(legacy)

        spec = SuiteSpec.from_dict(
            {
                "suite": "repro.suite/v1",
                "name": "exp6",
                "kind": "resources",
                "axes": {"frameworks": ["ffl", "hermes"]},
                "params": {"num_sketches": 3},
                "aggregate": ["exp6"],
            }
        )
        assert run_suite(spec).render() == exp6_render(legacy)

    def test_exp7(self):
        legacy_points = exp7_run((0,), num_events=2)
        spec = SuiteSpec.from_dict(
            {
                "suite": "repro.suite/v1",
                "name": "exp7",
                "kind": "churn",
                "axes": {"seeds": [0]},
                "params": {"events": 2},
                "aggregate": ["exp7"],
            }
        )
        report = run_suite(spec)
        seed, topology_spec, legacy_report, workload_spec = legacy_points[0]
        # seeded histories are deterministic across pipelines
        assert report.cells[0]["seed"] == seed
        assert report.cells[0]["topology"] == topology_spec
        assert report.cells[0]["digest"] == legacy_report.history_digest
        # rendering lock on shared reports (convergence columns are
        # measured wall-clock, so the table is compared on one run)
        points = [
            exp7_churn.Exp7Point(
                seed, topology_spec, legacy_report, workload_spec
            )
        ]
        assert exp7_churn.table(points).render() == exp7_render(
            legacy_points
        )

    def test_fig2(self):
        legacy = fig2_rows()
        rows = fig2_motivation.run()
        assert [
            (r.packet_size, r.overhead_bytes, r.fct_ratio, r.goodput_ratio)
            for r in rows
        ] == legacy
        assert fig2_motivation.render(rows) == fig2_render(legacy)

        report = run_suite(load_spec("fig2"))
        assert report.render() == fig2_render(legacy)
        assert report.tables == [fig2_render(legacy)]
