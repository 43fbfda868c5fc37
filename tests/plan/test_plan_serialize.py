"""Round-trip and schema tests for the canonical plan serialization.

The acceptance contract: for every switch.p4-like workload,
``plan_from_dict(plan_to_dict(plan))`` reproduces the exact metrics
(``A_max``, ``t_e2e``, ``Q_occ``), passes full validation, and hashes
to the same fingerprint — so a plan document is a faithful, portable
artifact.
"""

import copy
import hashlib
import json
import pickle

import pytest
from plan_builder_oracle import PlanBuilder

from repro.core import Hermes
from repro.dataplane.actions import Action, ActionPrimitive
from repro.dataplane.mat import Mat
from repro.network.generators import linear_topology, random_wan
from repro.network.paths import PathEnumerator
from repro.plan import (
    SCHEMA,
    SCHEMA_VERSION,
    DeploymentPlan,
    MatPlacement,
    PlanSchemaError,
    canonical_dumps,
    plan_fingerprint,
    plan_from_dict,
    plan_to_dict,
    read_plan,
    write_plan,
)
from repro.plan.splice import rebase_plan, splice_plan
from repro.tdg import DependencyType, annotate_metadata_sizes
from repro.tdg.analysis import edge_metadata_bytes
from repro.workloads.switchp4 import real_programs
from tests.plan.test_splice import drop_switch


def deploy(num_programs):
    # Tight switches force multi-switch splits, so the round trip
    # exercises routing and non-zero metadata pairs, not just
    # placements; the chain grows with the workload so every size
    # stays feasible.
    network = linear_topology(
        max(3, num_programs), num_stages=4, stage_capacity=1.0
    )
    return Hermes().deploy(real_programs(num_programs), network).plan


@pytest.fixture(scope="module")
def sample_plan():
    return deploy(4)


class TestRoundTrip:
    @pytest.mark.parametrize("num_programs", range(1, 11))
    def test_real_workloads_round_trip(self, num_programs):
        plan = deploy(num_programs)
        restored = plan_from_dict(plan_to_dict(plan))
        assert restored.max_metadata_bytes() == plan.max_metadata_bytes()
        assert (
            restored.end_to_end_latency_us() == plan.end_to_end_latency_us()
        )
        assert (
            restored.num_occupied_switches() == plan.num_occupied_switches()
        )
        restored.validate()
        assert plan_fingerprint(restored) == plan_fingerprint(plan)

    def test_round_trip_preserves_placements_and_routing(self, sample_plan):
        restored = plan_from_dict(plan_to_dict(sample_plan))
        assert dict(restored.placements) == dict(sample_plan.placements)
        assert set(restored.routing) == set(sample_plan.routing)
        for pair, path in sample_plan.routing.items():
            assert restored.routing[pair].switches == path.switches
            assert restored.routing[pair].latency_us == path.latency_us

    def test_plan_methods_defer_to_serializer(self, sample_plan):
        assert sample_plan.to_dict() == plan_to_dict(sample_plan)
        restored = DeploymentPlan.from_dict(sample_plan.to_dict())
        assert sample_plan.fingerprint() == restored.fingerprint()

    def test_document_is_json_serializable(self, sample_plan):
        doc = plan_to_dict(sample_plan)
        assert doc["schema"] == SCHEMA
        assert doc["version"] == SCHEMA_VERSION
        json.dumps(doc)  # must not raise

    def test_metrics_block_matches_plan(self, sample_plan):
        metrics = plan_to_dict(sample_plan)["metrics"]
        assert (
            metrics["max_metadata_bytes"]
            == sample_plan.max_metadata_bytes()
        )
        assert (
            metrics["end_to_end_latency_us"]
            == sample_plan.end_to_end_latency_us()
        )
        assert (
            metrics["num_occupied_switches"]
            == sample_plan.num_occupied_switches()
        )

    def test_partially_routed_plan_exports_null_latency(self, sample_plan):
        if not sample_plan.routing:
            pytest.skip("workload landed on one switch")
        unrouted = DeploymentPlan(
            sample_plan.tdg,
            sample_plan.network,
            sample_plan.placements,
            {},
        )
        doc = plan_to_dict(unrouted)
        assert doc["metrics"]["end_to_end_latency_us"] is None
        # Still reloadable; validate() then reports the missing route.
        restored = plan_from_dict(doc)
        from repro.plan import DeploymentError

        with pytest.raises(DeploymentError, match="no routed path"):
            restored.validate()


class TestCanonicalForm:
    def test_canonical_dumps_is_stable(self, sample_plan):
        a = canonical_dumps(plan_to_dict(sample_plan))
        b = canonical_dumps(plan_to_dict(sample_plan))
        assert a == b

    def test_fingerprint_is_stable_across_round_trips(self, sample_plan):
        restored = plan_from_dict(plan_to_dict(sample_plan))
        twice = plan_from_dict(plan_to_dict(restored))
        assert (
            plan_fingerprint(sample_plan)
            == plan_fingerprint(restored)
            == plan_fingerprint(twice)
        )

    def test_placements_sorted_by_mat_name(self, sample_plan):
        doc = plan_to_dict(sample_plan)
        names = [p["mat"] for p in doc["placements"]]
        assert names == sorted(names)

    def test_routing_sorted_by_pair(self, sample_plan):
        doc = plan_to_dict(sample_plan)
        pairs = [tuple(entry["pair"]) for entry in doc["routing"]]
        assert pairs == sorted(pairs)


class TestSchemaGuard:
    def test_wrong_schema_rejected(self, sample_plan):
        doc = plan_to_dict(sample_plan)
        doc["schema"] = "somebody.else/v1"
        with pytest.raises(PlanSchemaError, match="not a plan document"):
            plan_from_dict(doc)

    def test_missing_schema_rejected(self):
        with pytest.raises(PlanSchemaError, match="not a plan document"):
            plan_from_dict({"version": SCHEMA_VERSION})

    def test_future_version_rejected(self, sample_plan):
        doc = plan_to_dict(sample_plan)
        doc["version"] = SCHEMA_VERSION + 1
        with pytest.raises(PlanSchemaError, match="unsupported"):
            plan_from_dict(doc)

    def test_non_mapping_rejected(self):
        with pytest.raises(PlanSchemaError, match="must be an object"):
            plan_from_dict([1, 2, 3])

    def test_structurally_broken_document_rejected(self, sample_plan):
        doc = json.loads(canonical_dumps(plan_to_dict(sample_plan)))
        del doc["tdg"]["nodes"]
        with pytest.raises(PlanSchemaError, match="malformed"):
            plan_from_dict(doc)


class TestFileIO:
    def test_write_then_read(self, sample_plan, tmp_path):
        path = tmp_path / "plan.json"
        write_plan(sample_plan, str(path))
        restored = read_plan(str(path))
        assert plan_fingerprint(restored) == plan_fingerprint(sample_plan)
        restored.validate()

    def test_read_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(PlanSchemaError, match="not valid JSON"):
            read_plan(str(path))


# ----------------------------------------------------------------------
# The streamed, memoized fingerprint against its definition
# ----------------------------------------------------------------------
def full_digest(plan):
    """The fingerprint's definition: SHA-256 of the whole document."""
    blob = canonical_dumps(plan_to_dict(plan))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def wan_plan():
    """A sketch deployment on a WAN with room to rebase and splice.

    It is fingerprinted before it is returned, so plans derived from it
    start with the TDG section already memoized.
    """
    from tests.conftest import make_sketch_program

    network = random_wan(12, 18, seed=4, num_stages=4)
    programs = [
        make_sketch_program(f"p{i}", index_bytes=2 + i) for i in range(6)
    ]
    plan = Hermes().deploy(programs, network).plan
    plan.fingerprint()
    return plan


def rebased_plan():
    plan = wan_plan()
    occupied = set(plan.occupied_switches())
    victim = next(
        s.name for s in plan.network.switches if s.name not in occupied
    )
    return rebase_plan(plan, drop_switch(plan.network, victim))


def spliced_plan(plan=None):
    plan = plan or wan_plan()
    victim = plan.occupied_switches()[0]
    shrunk = drop_switch(plan.network, victim)
    target = sorted(s.name for s in shrunk.programmable_switches())[0]
    return splice_plan(
        plan,
        shrunk,
        {
            name: target
            for name, p in plan.placements.items()
            if p.switch == victim
        },
    )


def builder_plan():
    plan = wan_plan()
    builder = PlanBuilder(plan.tdg, plan.network, plan.placements)
    builder.route_shortest(PathEnumerator(plan.network))
    return builder.build()


def optimal_plan():
    network = linear_topology(3, num_stages=4, stage_capacity=1.0)
    return Hermes(mode="optimal").deploy(real_programs(2), network).plan


PRODUCERS = {
    "heuristic": lambda: deploy(4),
    "optimal": optimal_plan,
    "rebased": rebased_plan,
    "spliced": spliced_plan,
    "builder": builder_plan,
    "from_dict": lambda: plan_from_dict(plan_to_dict(deploy(4))),
}


class TestFingerprintDifferential:
    @pytest.mark.parametrize("producer", sorted(PRODUCERS))
    def test_equals_full_serialization_digest(self, producer):
        plan = PRODUCERS[producer]()
        expected = full_digest(plan)
        assert plan.fingerprint() == expected
        assert plan.fingerprint() == expected
        assert plan_fingerprint(plan) == expected

    def test_plans_sharing_a_tdg_keep_their_own_digests(self):
        plan = wan_plan()
        spliced = spliced_plan(plan)
        assert spliced.tdg is plan.tdg
        assert spliced.fingerprint() == full_digest(spliced)
        assert spliced.fingerprint() != plan.fingerprint()

    def test_pickled_and_copied_plans_fingerprint_alike(self, sample_plan):
        expected = full_digest(sample_plan)
        sample_plan.fingerprint()
        for clone in (
            pickle.loads(pickle.dumps(sample_plan)),
            copy.deepcopy(sample_plan),
        ):
            assert clone.fingerprint() == expected


class TestDeployDocument:
    """``deploy_doc`` builds the TDG section once: on a cold memo it
    memoizes the text of the document's own ``tdg`` dict, and the
    document's fingerprint is still the hash of the whole document."""

    @staticmethod
    def _deploy_doc(plan, monkeypatch):
        """The deploy document, and how often it built the TDG dict."""
        import repro.plan.serialize as serialize
        from repro.server.ops import deploy_doc

        calls = []
        build = serialize._tdg_to_dict

        def counting(tdg):
            calls.append(tdg)
            return build(tdg)

        monkeypatch.setattr(serialize, "_tdg_to_dict", counting)
        doc = deploy_doc(plan, 4, {}, 0.0, 0.0)
        monkeypatch.undo()
        return doc, len(calls)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_fingerprint_equals_full_digest(self, warm, monkeypatch):
        plan = deploy(4)
        expected = full_digest(plan)
        if warm:
            plan.fingerprint()
        doc, builds = self._deploy_doc(plan, monkeypatch)
        assert builds == 1
        assert doc["plan"] == plan_to_dict(plan)
        assert doc["fingerprint"] == expected
        assert plan.fingerprint() == expected

    def test_editing_the_document_cannot_change_a_fingerprint(
        self, monkeypatch
    ):
        plan = deploy(4)
        expected = full_digest(plan)
        doc, _builds = self._deploy_doc(plan, monkeypatch)
        doc["plan"]["tdg"]["name"] = "edited"
        doc["plan"]["tdg"]["edges"].clear()
        doc["plan"]["placements"].clear()
        assert plan.fingerprint() == expected
        assert plan_fingerprint(plan) == expected
        assert full_digest(plan) == expected


def _extra_mat(name):
    return Mat(name, actions=[Action("noop", ActionPrimitive.NO_OP)])


def _plan_on(tdg, plan):
    """A plan on ``tdg`` that places a MAT missing from ``plan`` on the
    first occupied switch's first stage (enough to serialize it)."""
    host = plan.occupied_switches()[0]
    placements = {
        name: plan.placements.get(name) or MatPlacement(name, host, (1,))
        for name in tdg.node_names
    }
    return DeploymentPlan(tdg, plan.network, placements, plan.routing)


class TestFingerprintInvalidation:
    """Every TDG mutator must clear the memoized section: after each,
    a plan on the graph must hash like its fresh full serialization."""

    def test_every_mutator_clears_the_memo(self, sample_plan):
        tdg = sample_plan.tdg.copy()
        sink = tdg.sinks()[0]
        seen = set()

        def check():
            plan = _plan_on(tdg, sample_plan)
            digest = plan.fingerprint()
            assert digest == full_digest(plan)
            assert digest not in seen  # every step changed the graph
            seen.add(digest)

        check()
        tdg.add_node(_extra_mat("extra.t"))
        check()
        tdg.add_edge(sink, "extra.t", DependencyType.MATCH)
        check()
        computed = edge_metadata_bytes(
            tdg.node(sink), tdg.node("extra.t"), DependencyType.MATCH
        )
        tdg.set_metadata_bytes(sink, "extra.t", computed + 7)
        check()
        annotate_metadata_sizes(tdg)
        assert tdg.edge(sink, "extra.t").metadata_bytes == computed
        check()
        tdg.name = "renamed"
        check()
        tdg.remove_edge(sink, "extra.t")
        check()
        tdg.remove_node("extra.t")
        check()

    def test_edges_change_only_through_the_graph(self, sample_plan):
        edge = sample_plan.tdg.edges[0]
        with pytest.raises(AttributeError):
            edge.metadata_bytes = edge.metadata_bytes + 1

    def test_re_annotation_keeps_the_edge_order(self, sample_plan):
        tdg = sample_plan.tdg.copy()
        keys = [e.key for e in tdg.edges]
        first = tdg.edges[0]
        tdg.set_metadata_bytes(
            first.upstream, first.downstream, first.metadata_bytes + 1
        )
        assert [e.key for e in tdg.edges] == keys
        with pytest.raises(ValueError):
            tdg.set_metadata_bytes(first.upstream, first.downstream, -1)
        with pytest.raises(KeyError):
            tdg.set_metadata_bytes(first.downstream, first.upstream, 1)
