"""Tests for DisruptionReport traffic-impact attachment and round trip."""

import pytest

from repro.core import Hermes
from repro.network.generators import random_wan
from repro.runtime import (
    EventKind,
    NetworkEvent,
    Reconciler,
    Scenario,
)
from repro.runtime.report import REPORT_SCHEMA, DisruptionReport
from repro.simulation.engine import overhead_impact
from tests.conftest import make_sketch_program


@pytest.fixture(scope="module")
def network():
    return random_wan(12, 18, seed=4, num_stages=4)


@pytest.fixture(scope="module")
def programs():
    return [
        make_sketch_program(f"p{i}", index_bytes=2 + i) for i in range(6)
    ]


@pytest.fixture(scope="module")
def report(programs, network):
    plan = Hermes().deploy(programs, network).plan
    scenario = Scenario(
        name="unit",
        seed=0,
        workload_spec="sketches:6",
        topology_spec="wan:12:18:4",
        events=(
            NetworkEvent(
                1.0, EventKind.SWITCH_FAIL, plan.occupied_switches()[0]
            ),
        ),
    )
    result = Reconciler(programs, network).run(scenario)
    return DisruptionReport.from_result(result)


class TestAttachTraffic:
    def test_attach_populates_summary_fields(self, report):
        assert not report.has_traffic
        returned = report.attach_traffic(engine="batch")
        assert returned is report
        assert report.has_traffic
        assert report.traffic_engine == "batch"
        assert report.traffic_load == 0.0
        assert report.initial_fct_ratio == (
            overhead_impact(report.initial_amax_bytes)[0]
        )
        assert report.final_fct_ratio == (
            overhead_impact(report.final_amax_bytes)[0]
        )
        assert report.peak_transient_fct_ratio >= max(
            report.initial_fct_ratio, 1.0
        ) - 1e-12

    def test_converged_rows_gain_fct_columns(self, report):
        report.attach_traffic()
        for row in report.rows:
            if row["converged"]:
                assert row["fct_ratio"] == (
                    overhead_impact(row["new_amax_bytes"])[0]
                )
                assert row["transient_fct_ratio"] >= row["fct_ratio"] - 1e-12

    def test_render_shows_traffic_columns(self, report):
        report.attach_traffic()
        text = report.render()
        assert "Traffic impact (batch engine)" in text
        assert "FCT x" in text
        assert "transient FCT x" in text

    def test_render_without_traffic_omits_columns(self, programs, network):
        result = Reconciler(programs, network).run(
            Scenario(
                name="empty",
                seed=0,
                workload_spec="sketches:6",
                topology_spec="wan:12:18:4",
                events=(),
            )
        )
        fresh = DisruptionReport.from_result(result)
        text = fresh.render()
        assert "Traffic impact" not in text
        assert "transient FCT x" not in text

    def test_batch_engine_matches_analytic(self, report):
        """No engine named is the batch closed form, bit for bit."""
        default = report.attach_traffic()
        assert default.traffic_engine == "batch"
        a = (
            default.initial_fct_ratio,
            default.final_fct_ratio,
            default.peak_transient_fct_ratio,
        )
        batch = report.attach_traffic(engine="batch")
        assert batch.traffic_engine == "batch"
        b = (
            batch.initial_fct_ratio,
            batch.final_fct_ratio,
            batch.peak_transient_fct_ratio,
        )
        assert b == a

    def test_a_load_selects_the_contention_engine(self, report):
        report.attach_traffic(load=0.9)
        assert report.traffic_engine == "contention"
        assert report.traffic_load == 0.9
        report.attach_traffic(engine="contention")
        assert report.traffic_load == 0.5  # DEFAULT_LOAD

    @pytest.mark.parametrize(
        "engine,load", (("analytic", None), ("exact", 0.5), ("batch", 0.5))
    )
    def test_bad_engine_choice_rejected(self, report, engine, load):
        with pytest.raises(ValueError, match="exact, batch, contention"):
            report.attach_traffic(engine=engine, load=load)


class TestRoundTrip:
    def test_to_from_dict_preserves_traffic(self, report):
        report.attach_traffic()
        doc = report.to_dict()
        assert doc["schema"] == REPORT_SCHEMA
        loaded = DisruptionReport.from_dict(doc)
        assert loaded.has_traffic
        assert loaded.traffic_engine == report.traffic_engine
        assert loaded.initial_fct_ratio == report.initial_fct_ratio
        assert loaded.final_fct_ratio == report.final_fct_ratio
        assert (
            loaded.peak_transient_fct_ratio
            == report.peak_transient_fct_ratio
        )
        assert loaded.rows == report.rows

    def test_analytic_engine_reports_still_load(self, report):
        """Reports saved while the retired ``analytic`` engine was the
        default load and render as saved."""
        report.attach_traffic()
        doc = report.to_dict()
        doc["traffic_engine"] = "analytic"
        loaded = DisruptionReport.from_dict(doc)
        assert loaded.has_traffic
        assert "Traffic impact (analytic engine)" in loaded.render()
        assert loaded.final_fct_ratio == report.final_fct_ratio

    def test_pre_traffic_documents_still_load(self, report):
        """Reports saved before the traffic columns existed (same v1
        schema, missing keys) must load with neutral defaults."""
        doc = report.to_dict()
        for key in (
            "traffic_engine",
            "initial_fct_ratio",
            "final_fct_ratio",
            "peak_transient_fct_ratio",
        ):
            doc.pop(key)
        loaded = DisruptionReport.from_dict(doc)
        assert not loaded.has_traffic
        assert loaded.initial_fct_ratio == 1.0
        assert loaded.peak_transient_fct_ratio == 1.0
