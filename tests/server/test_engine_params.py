"""The ``engine``/``load`` params of ``simulate`` and ``churn_run``.

Both ops resolve the pair through
:func:`repro.simulation.engine.get_engine` while they resolve their
params, so a bad choice is an :class:`OpError` (the daemon's
``invalid_params``) before anything is deployed or replayed.
"""

import pytest

from repro.runtime.reconciler import Reconciler
from repro.server.client import ReproClient, ServerError
from repro.server.ops import OpError, churn_op, simulate_op

CHURN = {"workload": "sketches:6", "topology": "wan:12:18", "seed": 6,
         "events": 2}

BAD_CHOICES = (
    {"engine": "bogus"},
    {"engine": "analytic"},
    {"engine": "exact", "load": 0.5},
    {"engine": "batch", "load": 0.5},
    {"load": "heavy"},
    {"load": -1.0},
)


class TestSimulateOp:
    @pytest.mark.parametrize("choice", BAD_CHOICES)
    def test_bad_choice_is_an_op_error(self, choice):
        with pytest.raises(OpError):
            simulate_op({"overhead": 48, **choice})

    def test_unknown_engine_names_the_choices(self):
        with pytest.raises(OpError, match="exact, batch, contention"):
            simulate_op({"overhead": 48, "engine": "bogus"})

    def test_bad_choice_fails_before_the_deploy(self, monkeypatch):
        from repro.core import Hermes

        def deploy(*args, **kwargs):
            raise AssertionError("deployed before checking the engine")

        monkeypatch.setattr(Hermes, "deploy", deploy)
        with pytest.raises(OpError):
            simulate_op({"engine": "bogus"})

    @pytest.mark.parametrize(
        "choice,engine",
        (({}, "batch"), ({"load": 0.5}, "contention"),
         ({"engine": "exact"}, "exact")),
    )
    def test_choice_picks_the_engine(self, choice, engine):
        doc = simulate_op({"overhead": 48, **choice})
        assert doc["summary"]["engine"] == engine


class TestChurnOp:
    @pytest.mark.parametrize("choice", BAD_CHOICES)
    def test_bad_choice_fails_before_any_replay(self, choice, monkeypatch):
        def run(self, scenario):
            raise AssertionError("replayed before checking the engine")

        monkeypatch.setattr(Reconciler, "run", run)
        with pytest.raises(OpError):
            churn_op({**CHURN, **choice})

    @pytest.mark.parametrize(
        "choice,engine,load",
        (({}, "batch", 0.0), ({"load": 0.9}, "contention", 0.9)),
    )
    def test_choice_picks_the_report_engine(self, choice, engine, load):
        report = churn_op({**CHURN, **choice})["report"]
        assert report["traffic_engine"] == engine
        assert report["traffic_load"] == load


def test_daemon_answers_invalid_params(server):
    with ReproClient.connect(server.address) as client:
        for op, params in (
            ("simulate", {"overhead": 48, "engine": "bogus"}),
            ("churn_run", {**CHURN, "engine": "exact", "load": 0.5}),
        ):
            with pytest.raises(ServerError) as err:
                client.request(op, params)
            assert err.value.code == "invalid_params"
        assert client.ping()["pong"] is True
