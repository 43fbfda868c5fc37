"""Differential tests: refine's candidate assembly and the table-driven
verifier against the code they replaced.

``_rebuild`` assembles a candidate plan from memoized stage layouts
without a ``PlanBuilder``, and ``verify_dataflow`` and
``CoordinationAnalysis`` read tables memoized on the TDG.  Neither may
change a byte: the oracles in :mod:`refine_oracle` and
:mod:`verification_oracle` are the replaced code, and these tests lock
the new code to them.

* A random walk of single-MAT moves, feasible and infeasible, compares
  ``_rebuild`` (sharing one layout memo, as ``refine_plan`` does) with
  the builder-based rebuild: both reject, both give the same
  placements in the same order, the same routing (as a mapping: the
  oracle routes in the retired first-meet order, production in pair
  order), the same occupied switches, fingerprint and verifier report
  (the production verifier's on
  ``_rebuild``'s plan, the oracle verifier's on the oracle's plan), or
  both raise the same exception.
  ``_rebuild`` verifies before it routes and validates, so the walks
  include a network with a switch no path reaches and two programs
  that define one metadata field with different widths, where the
  verifier raises ``ValueError``.
* Plans from every framework, every verified refine candidate of the
  Exp#5 shape (rejected ones included) and the rebased and spliced
  plans of a churn run compare the verifier's report, or the exception
  it raises, and every channel in order.
"""

import random

import pytest
from refine_oracle import legacy_rebuild
from verification_oracle import legacy_channels, legacy_verify_dataflow

from repro.baselines import (
    ALL_FRAMEWORKS,
    HermesOptimal,
    MinStage,
    Sonata,
    Speed,
)
from repro.cli import parse_topology, parse_workload
from repro.core.analyzer import ProgramAnalyzer
from repro.core.coordination import CoordinationAnalysis
from repro.core.heuristic import GreedyHeuristic
from repro.core.refine import _rebuild
from repro.core.verification import DataflowError, verify_dataflow
from repro.dataplane.actions import modify, no_op
from repro.dataplane.fields import metadata_field
from repro.dataplane.mat import Mat
from repro.network.catalog import resolve
from repro.network.generators import linear_topology, random_wan
from repro.network.paths import PathEnumerator
from repro.network.switch import Switch
from repro.plan import plan_fingerprint
from repro.plan.artifact import DeploymentPlan, MatPlacement
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg
from repro.workloads.switchp4 import real_programs
from tests.conftest import make_sketch_program


def _outcome(fn, plan):
    """``fn(plan)``, or the type and message of what it raised."""
    try:
        return fn(plan)
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


def _report(verify, plan):
    report = _outcome(verify, plan)
    if isinstance(report, tuple):
        return report
    return (
        report.rounds,
        report.reads_checked,
        list(report.shipped_fields.items()),
        report.execution_order,
    )


def _channels(build, plan):
    channels = _outcome(build, plan)
    if isinstance(channels, tuple):
        return channels
    return [
        (
            pair,
            channel.source,
            channel.destination,
            channel.edges,
            channel.declared_bytes,
            channel.layout,
            channel.layout_bytes,
        )
        for pair, channel in channels.items()
    ]


def assert_verifiers_agree(plan):
    assert _report(verify_dataflow, plan) == _report(
        legacy_verify_dataflow, plan
    )
    assert _channels(
        lambda p: CoordinationAnalysis(p).channels, plan
    ) == _channels(legacy_channels, plan)


# ----------------------------------------------------------------------
# _rebuild vs the builder-based rebuild
# ----------------------------------------------------------------------
def _rebuilt(rebuild, verify, *args):
    """What ``rebuild(*args)`` gave, in comparable parts: None, the
    plan's placements in order and routing as a mapping, occupied
    switches, fingerprint and ``verify``'s report on it, or the raised
    type and message."""
    try:
        plan = rebuild(*args)
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))
    if plan is None:
        return None
    return (
        list(plan.placements.items()),
        dict(plan.routing),
        plan.occupied_switches(),
        plan_fingerprint(plan),
        _report(verify, plan),
    )


def _why_rejected(plan, trial, paths, layouts):
    """Why both rebuilds reject a host map: a switch's layout, no path
    between two communicating switches, or another check.  Without a
    path, it also says whether the verifier passes the unrouted
    candidate (routing now rejects it) or raises something other than
    a ``DataflowError`` (routing now swallows it)."""
    by_switch = {}
    for name, switch in trial.items():
        by_switch.setdefault(switch, []).append(name)
    placements = {}
    for switch, names in by_switch.items():
        layout = layouts[(switch, frozenset(names))]
        if layout is None:
            return "does not fit"
        placements.update(layout)
    unrouted = DeploymentPlan(plan.tdg, plan.network, placements)
    routable = all(
        paths.shortest(*pair) is not None
        for pair in unrouted.pair_metadata_bytes()
    )
    if routable:
        return "rejected"
    verdict = _outcome(verify_dataflow, unrouted)
    if not isinstance(verdict, tuple):
        return "no path, verified"
    if verdict[0] is not DataflowError:
        return "no path, verifier raised"
    return "no path"


def walk_rebuilds_alike(plan, steps=200, seed=5):
    """``steps`` single-MAT moves, each to an occupied switch or any
    programmable one, rebuilt by ``_rebuild`` (sharing one layout memo,
    as ``refine_plan`` does) and by the builder-based rebuild; an
    accepted move becomes the walk's next state.  Returns the kinds of
    outcome seen."""
    network = plan.network
    paths = PathEnumerator(network)
    layouts = {}
    rng = random.Random(seed)
    hosts = {name: p.switch for name, p in plan.placements.items()}
    programmable = [s.name for s in network.switches if s.programmable]
    outcomes = set()
    for _ in range(steps):
        trial = dict(hosts)
        occupied = sorted(set(hosts.values()))
        trial[rng.choice(sorted(trial))] = rng.choice(
            occupied if rng.random() < 0.5 else programmable
        )
        outcome = rebuild_alike(plan, trial, paths, layouts)
        outcomes.add(outcome)
        if outcome == "accepted":
            hosts = trial
    return outcomes


def rebuild_alike(plan, trial, paths, layouts):
    """Rebuild ``trial`` both ways, require the same outcome, and name
    its kind: ``"accepted"``, ``"raised"`` or why it was rejected.  Each
    side's plan is reported by its own verifier: the production one,
    whose report ``_rebuild``'s candidate already holds in its memo,
    against a fresh run of the oracle."""
    fast = _rebuilt(_rebuild, verify_dataflow, plan, trial, paths, layouts)
    legacy = _rebuilt(
        legacy_rebuild, legacy_verify_dataflow, plan, trial, paths
    )
    assert fast == legacy
    if fast is None:
        return _why_rejected(plan, trial, paths, layouts)
    return "raised" if isinstance(fast[0], type) else "accepted"


WALKS = [
    pytest.param(
        lambda: (
            parse_workload("real:10+synthetic:10"),
            resolve("wan:72:88:11"),
        ),
        id="real10-synthetic10-wan72",
    ),
    pytest.param(
        lambda: (
            real_programs(9),
            linear_topology(8, num_stages=4, stage_capacity=1.0),
        ),
        id="real9-linear8",
    ),
]


@pytest.mark.parametrize("make", WALKS)
def test_rebuild_matches_builder_rebuild_on_a_random_walk(make):
    programs, network = make()
    tdg = ProgramAnalyzer().analyze(programs)
    plan = GreedyHeuristic(refine=False).deploy(tdg, network)
    assert walk_rebuilds_alike(plan) == {
        "accepted",
        "rejected",
        "does not fit",
    }


def _with_island(network):
    """``network`` plus a programmable switch no link reaches."""
    network.add_switch(Switch("island", num_stages=4, stage_capacity=1.0))
    return network


def test_rebuild_matches_builder_rebuild_without_a_path():
    """A switch no path reaches: a move onto it that the verifier
    passes is rejected by routing, which now runs after the verifier."""
    network = _with_island(
        linear_topology(6, num_stages=4, stage_capacity=1.0)
    )
    tdg = ProgramAnalyzer().analyze(real_programs(6))
    plan = GreedyHeuristic(refine=False).deploy(tdg, network)
    outcomes = walk_rebuilds_alike(plan, steps=300)
    assert {"accepted", "no path, verified"} <= outcomes


def _conflicting_tdg():
    """Two programs that define metadata field ``m.x`` with different
    widths: a channel that ships both definitions makes the verifier
    raise ``ValueError``."""
    tdg = Tdg("conflict")
    for program, width in (("p", 32), ("q", 16)):
        field = metadata_field("m.x", width)
        writer, reader = f"{program}.write", f"{program}.read"
        tdg.add_node(Mat(writer, actions=[modify(field)], resource_demand=0.3))
        tdg.add_node(
            Mat(
                reader,
                match_fields=[field],
                actions=[no_op()],
                resource_demand=0.3,
            )
        )
        tdg.add_edge(writer, reader, DependencyType.MATCH, width // 8)
    return tdg


def test_rebuild_matches_builder_rebuild_on_conflicting_fields():
    """The verifier's ``ValueError`` escapes a candidate that routing
    and ``validate()`` accept, as it did when they ran first, and a
    candidate they reject is rejected whatever the verifier raises."""
    network = _with_island(
        linear_topology(3, num_stages=4, stage_capacity=1.0)
    )
    plan = GreedyHeuristic(refine=False).deploy(_conflicting_tdg(), network)
    assert {"accepted", "raised"} <= walk_rebuilds_alike(plan, steps=300)
    # Both writers on s0 and both readers on one switch: the channel
    # ships both definitions of m.x.
    paths = PathEnumerator(network)
    for readers, kind in (
        ("s1", "raised"),
        ("island", "no path, verifier raised"),
    ):
        trial = {
            "p.write": "s0",
            "q.write": "s0",
            "p.read": readers,
            "q.read": readers,
        }
        assert rebuild_alike(plan, trial, paths, {}) == kind


# ----------------------------------------------------------------------
# The verifier and the channels vs the replaced code
# ----------------------------------------------------------------------
def _framework(cls):
    """A framework whose ILPs stop early: a plan cut short by the clock
    is as good a verifier input as an optimal one."""
    if cls in (MinStage, Sonata, HermesOptimal) or issubclass(cls, Speed):
        return cls(time_limit_s=0.5)
    return cls()


def _sketches(count):
    return [
        make_sketch_program(f"p{i}", index_bytes=2 + i) for i in range(count)
    ]


SHAPES = [
    pytest.param(
        lambda: (
            _sketches(6),
            linear_topology(3, num_stages=4, stage_capacity=1.0),
        ),
        id="sketches6-linear3",
    ),
    pytest.param(
        lambda: (
            _sketches(4),
            linear_topology(4, num_stages=2, stage_capacity=1.0),
        ),
        id="sketches4-linear4x2",
    ),
    pytest.param(
        lambda: (
            real_programs(2),
            linear_topology(4, num_stages=3, stage_capacity=1.0),
        ),
        id="real2-linear4x3",
    ),
    pytest.param(
        lambda: (
            parse_workload("real:2+sketches:2"),
            random_wan(8, 10, seed=3, num_stages=3),
        ),
        id="real2-sketches2-wan8x3",
    ),
]


@pytest.mark.parametrize("make", SHAPES)
@pytest.mark.parametrize("cls", ALL_FRAMEWORKS, ids=lambda c: c.name)
def test_framework_plans_verify_alike(cls, make):
    programs, network = make()
    assert_verifiers_agree(_framework(cls).deploy(programs, network).plan)


def test_refine_candidates_verify_alike(monkeypatch):
    """Every plan refine hands the verifier on the Exp#5 shape."""
    import repro.core.verification as verification

    seen = []
    original = verification.verify_dataflow

    def capture(plan):
        seen.append(plan)
        return original(plan)

    monkeypatch.setattr(verification, "verify_dataflow", capture)
    tdg = ProgramAnalyzer().analyze(parse_workload("real:10+synthetic:10"))
    GreedyHeuristic().deploy(tdg, resolve("wan:72:88:11"))
    monkeypatch.undo()
    rejected = 0
    for plan in seen:
        assert_verifiers_agree(plan)
        rejected += isinstance(_report(verify_dataflow, plan), tuple)
    assert rejected


def churn_plans(monkeypatch):
    """The rebased and spliced plans of one warm churn run, by kind."""
    import repro.runtime.incremental as incremental
    from repro.runtime import generate_scenario
    from repro.runtime.scenario import DEFAULT_EVENT_MIX, EventKind
    from repro.server.ops import churn_op

    made = {"rebase": [], "splice": []}

    def capturing(kind, fn):
        def wrapped(*args, **kwargs):
            plan = fn(*args, **kwargs)
            made[kind].append(plan)
            return plan

        return wrapped

    for kind in made:
        name = f"{kind}_plan"
        monkeypatch.setattr(
            incremental, name, capturing(kind, getattr(incremental, name))
        )
    topology = "wan:20:30:7"
    scenario = generate_scenario(
        parse_topology(topology),
        num_events=16,
        seed=38,
        workload_spec="real:10",
        topology_spec=topology,
        event_mix={
            kind: weight
            for kind, weight in DEFAULT_EVENT_MIX.items()
            if kind not in (EventKind.WORKLOAD_ADD, EventKind.WORKLOAD_REMOVE)
        },
    )
    churn_op({"scenario": scenario.to_dict(), "incremental": True})
    monkeypatch.undo()
    assert made["rebase"] and made["splice"]
    return made


def test_churn_plans_verify_alike(monkeypatch):
    """The rebased and spliced plans of one warm churn run."""
    made = churn_plans(monkeypatch)
    for plan in made["rebase"] + made["splice"]:
        assert_verifiers_agree(plan)


def test_retried_read_under_recirculation_verifies_alike():
    """A plan whose switches feed each other needs a second round, and
    a MAT whose read fails partway is retried: the reads checked before
    the missing one count, the missing one does not."""
    e = metadata_field("m.e", 16)
    f = metadata_field("m.f", 16)
    g = metadata_field("m.g", 16)
    tdg = Tdg("recirculation")
    tdg.add_node(Mat("a", actions=[modify(e), modify(g)], resource_demand=0.2))
    # c reads f, written on s1, without an edge from its writer.
    tdg.add_node(
        Mat("c", match_fields=[e, f], actions=[no_op()], resource_demand=0.2)
    )
    tdg.add_node(
        Mat("q", match_fields=[f], actions=[no_op()], resource_demand=0.2)
    )
    tdg.add_node(
        Mat("b", match_fields=[g], actions=[no_op()], resource_demand=0.2)
    )
    tdg.add_node(Mat("p", actions=[modify(e), modify(f)], resource_demand=0.2))
    tdg.add_edge("a", "b", DependencyType.MATCH, 4)
    tdg.add_edge("p", "q", DependencyType.MATCH, 4)
    network = linear_topology(2)
    paths = PathEnumerator(network)
    plan = DeploymentPlan(
        tdg,
        network,
        {
            "a": MatPlacement("a", "s0", (1,)),
            "c": MatPlacement("c", "s0", (2,)),
            "q": MatPlacement("q", "s0", (3,)),
            "b": MatPlacement("b", "s1", (1,)),
            "p": MatPlacement("p", "s1", (2,)),
        },
        {
            ("s0", "s1"): paths.shortest("s0", "s1"),
            ("s1", "s0"): paths.shortest("s1", "s0"),
        },
    )
    rounds, reads_checked, _shipped, order = _report(verify_dataflow, plan)
    assert (rounds, reads_checked) == (2, 5)
    assert order == ["a", "b", "p", "c", "q"]
    assert_verifiers_agree(plan)


def test_idle_visit_relays_nothing_alike():
    """Headers leave a switch only from a visit that ran a MAT: on s1's
    first visit m still waits for k, so the ``m.e`` that arrived from s0
    is not relayed to s2, and y, which reads it, runs a round later."""
    e = metadata_field("m.e", 16)
    k_out = metadata_field("m.k", 16)
    tdg = Tdg("idle-visit")
    tdg.add_node(Mat("a", actions=[modify(e)], resource_demand=0.2))
    tdg.add_node(Mat("m", actions=[modify(e)], resource_demand=0.2))
    tdg.add_node(Mat("k", actions=[modify(k_out)], resource_demand=0.2))
    tdg.add_node(
        Mat("y", match_fields=[e], actions=[no_op()], resource_demand=0.2)
    )
    tdg.add_node(
        Mat("z", match_fields=[e], actions=[no_op()], resource_demand=0.2)
    )
    tdg.add_edge("a", "m", DependencyType.MATCH, 2)
    tdg.add_edge("k", "m", DependencyType.MATCH, 2)
    tdg.add_edge("m", "z", DependencyType.MATCH, 2)
    network = linear_topology(3)
    paths = PathEnumerator(network)
    plan = DeploymentPlan(
        tdg,
        network,
        {
            "a": MatPlacement("a", "s0", (1,)),
            "m": MatPlacement("m", "s1", (1,)),
            "k": MatPlacement("k", "s2", (1,)),
            "y": MatPlacement("y", "s2", (2,)),
            "z": MatPlacement("z", "s2", (3,)),
        },
        {
            pair: paths.shortest(*pair)
            for pair in (("s0", "s1"), ("s2", "s1"), ("s1", "s2"))
        },
    )
    rounds, reads_checked, _shipped, order = _report(verify_dataflow, plan)
    assert (rounds, reads_checked) == (2, 2)
    assert order == ["a", "k", "m", "y", "z"]
    assert_verifiers_agree(plan)


def test_conflicting_field_definitions_raise_alike():
    """Two definitions of one metadata field name on one channel: the
    channel's FieldSet raises the same ValueError on both sides."""
    wide = metadata_field("m.x", 32)
    narrow = metadata_field("m.x", 16)
    tdg = Tdg("conflict")
    tdg.add_node(Mat("a1", actions=[modify(wide)], resource_demand=0.2))
    tdg.add_node(Mat("a2", actions=[modify(narrow)], resource_demand=0.2))
    for name, field in (("b1", wide), ("b2", narrow)):
        tdg.add_node(
            Mat(
                name,
                match_fields=[field],
                actions=[no_op()],
                resource_demand=0.2,
            )
        )
    tdg.add_edge("a1", "b1", DependencyType.MATCH, 4)
    tdg.add_edge("a2", "b2", DependencyType.MATCH, 2)
    network = linear_topology(2)
    plan = DeploymentPlan(
        tdg,
        network,
        {
            "a1": MatPlacement("a1", "s0", (1,)),
            "a2": MatPlacement("a2", "s0", (2,)),
            "b1": MatPlacement("b1", "s1", (1,)),
            "b2": MatPlacement("b2", "s1", (2,)),
        },
        {("s0", "s1"): PathEnumerator(network).shortest("s0", "s1")},
    )
    failure = _report(verify_dataflow, plan)
    assert failure[0] is ValueError
    assert "conflicting definitions for field 'm.x'" in failure[1]
    assert_verifiers_agree(plan)
