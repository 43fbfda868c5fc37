"""Schema and round-trip properties of the ``repro.suite/v1`` spec."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.suite import (
    SUITE_VERSION,
    AxisEntry,
    SuiteSpec,
    SuiteSpecError,
    load_spec,
    shipped_specs,
    spec_names,
    spec_path,
)


def minimal(kind: str) -> dict:
    """A smallest-possible valid document of each kind."""
    axes = {
        "deployment": {
            "workloads": ["real:2"],
            "topologies": ["linear-3"],
        },
        "churn": {"seeds": [0]},
        "resources": {},
        "overhead_sweep": {"packet_sizes": [512], "overheads": [28]},
        "traffic": {"hours": [0], "overheads": [48]},
    }[kind]
    return {
        "suite": SUITE_VERSION,
        "name": f"t-{kind}",
        "kind": kind,
        "axes": axes,
    }


ALL_KINDS = ("deployment", "churn", "resources", "overhead_sweep", "traffic")


class TestValidation:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_minimal_specs_parse(self, kind):
        spec = SuiteSpec.from_dict(minimal(kind))
        assert spec.kind == kind
        assert spec.name == f"t-{kind}"

    def test_unknown_top_level_key(self):
        doc = minimal("churn")
        doc["bogus"] = 1
        with pytest.raises(SuiteSpecError, match="unknown suite keys"):
            SuiteSpec.from_dict(doc)

    def test_wrong_version(self):
        doc = minimal("churn")
        doc["suite"] = "repro.suite/v0"
        with pytest.raises(SuiteSpecError, match="unsupported suite"):
            SuiteSpec.from_dict(doc)

    def test_missing_name(self):
        doc = minimal("churn")
        del doc["name"]
        with pytest.raises(SuiteSpecError, match="name"):
            SuiteSpec.from_dict(doc)

    def test_unknown_kind(self):
        doc = minimal("churn")
        doc["kind"] = "teleport"
        with pytest.raises(SuiteSpecError, match="unknown suite kind"):
            SuiteSpec.from_dict(doc)

    def test_unknown_axis_for_kind(self):
        doc = minimal("churn")
        doc["axes"]["workloads"] = ["real:2"]
        with pytest.raises(SuiteSpecError, match="unknown axes"):
            SuiteSpec.from_dict(doc)

    def test_missing_required_axis(self):
        doc = minimal("deployment")
        del doc["axes"]["topologies"]
        with pytest.raises(SuiteSpecError, match="requires axes"):
            SuiteSpec.from_dict(doc)

    def test_empty_axis(self):
        doc = minimal("deployment")
        doc["axes"]["workloads"] = []
        with pytest.raises(SuiteSpecError, match="is empty"):
            SuiteSpec.from_dict(doc)

    def test_empty_scalar_axis(self):
        doc = minimal("churn")
        doc["axes"]["seeds"] = []
        with pytest.raises(SuiteSpecError, match="is empty"):
            SuiteSpec.from_dict(doc)

    def test_duplicate_entries(self):
        doc = minimal("deployment")
        doc["axes"]["workloads"] = ["real:2", "real:2"]
        with pytest.raises(SuiteSpecError, match="duplicate"):
            SuiteSpec.from_dict(doc)

    def test_duplicate_scalar_entries(self):
        doc = minimal("churn")
        doc["axes"]["seeds"] = [1, 1]
        with pytest.raises(SuiteSpecError, match="duplicate"):
            SuiteSpec.from_dict(doc)

    def test_axis_entry_unknown_keys(self):
        doc = minimal("deployment")
        doc["axes"]["workloads"] = [{"spec": "real:2", "bogus": 1}]
        with pytest.raises(SuiteSpecError, match="unknown keys"):
            SuiteSpec.from_dict(doc)

    def test_axis_entry_needs_spec(self):
        doc = minimal("deployment")
        doc["axes"]["workloads"] = [{"tag": 2}]
        with pytest.raises(SuiteSpecError, match="'spec'"):
            SuiteSpec.from_dict(doc)

    def test_frameworks_unknown_set(self):
        doc = minimal("deployment")
        doc["axes"]["frameworks"] = {"set": "everything"}
        with pytest.raises(SuiteSpecError, match="framework set"):
            SuiteSpec.from_dict(doc)

    def test_frameworks_set_unknown_key(self):
        doc = minimal("deployment")
        doc["axes"]["frameworks"] = {"set": "paper", "bogus": 1}
        with pytest.raises(SuiteSpecError, match="unknown keys"):
            SuiteSpec.from_dict(doc)

    def test_frameworks_unknown_name(self):
        doc = minimal("deployment")
        doc["axes"]["frameworks"] = ["hermes", "nonsense"]
        with pytest.raises(SuiteSpecError, match="unknown framework"):
            SuiteSpec.from_dict(doc)

    def test_frameworks_empty_list(self):
        doc = minimal("deployment")
        doc["axes"]["frameworks"] = []
        with pytest.raises(SuiteSpecError, match="empty"):
            SuiteSpec.from_dict(doc)

    def test_unknown_param(self):
        doc = minimal("deployment")
        doc["params"] = {"warp_factor": 9}
        with pytest.raises(SuiteSpecError, match="unknown params"):
            SuiteSpec.from_dict(doc)

    def test_bad_tag_axis(self):
        doc = minimal("deployment")
        doc["params"] = {"tag_axis": "framework"}
        with pytest.raises(SuiteSpecError, match="tag_axis"):
            SuiteSpec.from_dict(doc)

    @pytest.mark.parametrize("engine", ("exact", "batch"))
    def test_overhead_sweep_engines(self, engine):
        doc = minimal("overhead_sweep")
        doc["params"] = {"engine": engine}
        assert SuiteSpec.from_dict(doc).params["engine"] == engine

    @pytest.mark.parametrize(
        "engine", ("contention", "analytic", "bogus", 1)
    )
    def test_overhead_sweep_rejects_other_engines(self, engine):
        """Fig. 2 needs independent flows: exact or batch, nothing
        else, and no name is silently read as the closed form."""
        doc = minimal("overhead_sweep")
        doc["params"] = {"engine": engine}
        with pytest.raises(SuiteSpecError, match="'exact' or 'batch'"):
            SuiteSpec.from_dict(doc)

    def test_non_integer_seeds(self):
        doc = minimal("churn")
        doc["axes"]["seeds"] = [0.5]
        with pytest.raises(SuiteSpecError, match="integers"):
            SuiteSpec.from_dict(doc)

    def test_bad_load_model(self):
        doc = minimal("traffic")
        doc["params"] = {"load": {"amplitude": 3.0}}
        with pytest.raises(SuiteSpecError, match="load"):
            SuiteSpec.from_dict(doc)

    def test_aggregate_must_be_list(self):
        doc = minimal("churn")
        doc["aggregate"] = "exp7"
        with pytest.raises(SuiteSpecError, match="aggregate"):
            SuiteSpec.from_dict(doc)

    def test_unknown_aggregator(self):
        doc = minimal("churn")
        doc["aggregate"] = ["exp99"]
        with pytest.raises(SuiteSpecError, match="unknown aggregator"):
            SuiteSpec.from_dict(doc)

    def test_axis_entry_default_tag_is_spec(self):
        entry = AxisEntry(spec="real:4")
        assert entry.tag == "real:4"
        assert entry.to_doc() == "real:4"
        tagged = AxisEntry(spec="real:4", tag=4)
        assert tagged.to_doc() == {"spec": "real:4", "tag": 4}


class TestShippedSpecs:
    def test_names_cover_the_paper(self):
        assert set(spec_names()) >= {
            "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7",
            "fig2", "smoke", "diurnal",
        }

    def test_all_shipped_specs_validate_and_round_trip(self):
        for name, spec in shipped_specs().items():
            doc = spec.to_dict()
            again = SuiteSpec.from_dict(doc)
            assert again.to_dict() == doc, name
            assert again == spec, name

    def test_unknown_shipped_name(self):
        with pytest.raises(ValueError, match="unknown suite spec"):
            spec_path("exp99")
        with pytest.raises(ValueError, match="unknown suite spec"):
            load_spec("exp99")

    def test_load_spec_by_path(self, tmp_path):
        path = tmp_path / "mine.json"
        import json

        path.write_text(json.dumps(minimal("churn")))
        spec = load_spec(str(path))
        assert spec.name == "t-churn"

    def test_load_spec_missing_file(self):
        with pytest.raises(ValueError, match="no such spec file"):
            load_spec("missing-spec.json")

    def test_yaml_spec_loads(self):
        text = (
            "suite: repro.suite/v1\n"
            "name: yaml-suite\n"
            "kind: churn\n"
            "axes:\n"
            "  seeds: [0, 1]\n"
        )
        spec = SuiteSpec.loads(text)
        assert spec.name == "yaml-suite"
        assert spec.axes["seeds"] == (0, 1)


# ----------------------------------------------------------------------
# Hypothesis round-trip / rejection properties
# ----------------------------------------------------------------------

_workloads = st.lists(
    st.integers(min_value=1, max_value=10), min_size=1, max_size=4,
    unique=True,
).map(lambda ns: [f"real:{n}" for n in ns])

_topologies = st.lists(
    st.sampled_from(["testbed", "linear-3", "linear-5", "zoo:1", "fattree-4"]),
    min_size=1,
    max_size=3,
    unique=True,
)

_frameworks = st.one_of(
    st.none(),
    st.just({"set": "paper"}),
    st.just({"set": "paper", "ilp_time_limit_s": 2.0}),
    st.lists(
        st.sampled_from(["hermes", "ffl", "ffls", "speed", "minstage"]),
        min_size=1,
        max_size=3,
        unique=True,
    ),
)

_params = st.fixed_dictionaries(
    {},
    optional={
        "tag_axis": st.sampled_from(["workload", "topology"]),
        "packet_payload_bytes": st.integers(64, 4096),
        "with_end_to_end": st.booleans(),
    },
)


@st.composite
def deployment_docs(draw):
    doc = {
        "suite": SUITE_VERSION,
        "name": draw(st.sampled_from(["a", "sweep", "x-1"])),
        "kind": "deployment",
        "axes": {
            "workloads": draw(_workloads),
            "topologies": draw(_topologies),
        },
    }
    frameworks = draw(_frameworks)
    if frameworks is not None:
        doc["axes"]["frameworks"] = frameworks
    params = draw(_params)
    if params:
        doc["params"] = params
    title = draw(st.sampled_from(["", "A title"]))
    if title:
        doc["title"] = title
    if draw(st.booleans()):
        doc["aggregate"] = ["pivot"]
    return doc


@st.composite
def scalar_docs(draw):
    kind = draw(st.sampled_from(["churn", "overhead_sweep", "traffic"]))
    doc = {
        "suite": SUITE_VERSION,
        "name": "gen",
        "kind": kind,
    }
    ints = st.lists(
        st.integers(0, 200), min_size=1, max_size=5, unique=True
    )
    if kind == "churn":
        doc["axes"] = {"seeds": draw(ints)}
    elif kind == "overhead_sweep":
        doc["axes"] = {
            "packet_sizes": draw(ints.map(lambda v: [x + 64 for x in v])),
            "overheads": draw(ints),
        }
    else:
        doc["axes"] = {"hours": draw(ints), "overheads": draw(ints)}
    return doc


@given(doc=deployment_docs())
@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
def test_deployment_round_trip(doc):
    spec = SuiteSpec.from_dict(doc)
    canonical = spec.to_dict()
    again = SuiteSpec.from_dict(canonical)
    assert again.to_dict() == canonical
    assert again == spec
    # axes survive with order and length intact
    assert [e.spec for e in again.axes["workloads"]] == doc["axes"][
        "workloads"
    ]
    assert [e.spec for e in again.axes["topologies"]] == doc["axes"][
        "topologies"
    ]


@given(doc=scalar_docs())
@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
def test_scalar_round_trip(doc):
    spec = SuiteSpec.from_dict(doc)
    canonical = spec.to_dict()
    again = SuiteSpec.from_dict(canonical)
    assert again.to_dict() == canonical
    assert again == spec


@given(
    doc=deployment_docs(),
    key=st.sampled_from(["bogus", "extra", "cells", "metadata"]),
    level=st.sampled_from(["top", "params"]),
)
@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
def test_unknown_keys_always_rejected(doc, key, level):
    if level == "top":
        doc[key] = 1
    else:
        doc.setdefault("params", {})[key] = 1
    with pytest.raises(SuiteSpecError):
        SuiteSpec.from_dict(doc)


@given(doc=deployment_docs(), axis=st.sampled_from(["workloads", "topologies"]))
@settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
def test_duplicate_cells_always_rejected(doc, axis):
    doc["axes"][axis] = list(doc["axes"][axis]) + [doc["axes"][axis][0]]
    with pytest.raises(SuiteSpecError, match="duplicate"):
        SuiteSpec.from_dict(doc)


@given(doc=deployment_docs(), axis=st.sampled_from(["workloads", "topologies"]))
@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
def test_empty_axes_always_rejected(doc, axis):
    doc["axes"][axis] = []
    with pytest.raises(SuiteSpecError, match="is empty"):
        SuiteSpec.from_dict(doc)
