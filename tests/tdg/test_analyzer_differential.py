"""Differential tests: Algorithm 1 and the program model against the code
they replaced (:mod:`tests.tdg.analyzer_oracle`), and the synthetic
generator against :mod:`tests.workloads.synthetic_oracle`.

* The analyzer, on 42 workloads across ``real:K``, ``sketches:K``,
  ``synthetic:K[:SEED]`` and their ``+`` mixes (one-program workloads
  included), merged and unmerged: the same TDG name, nodes, edges and
  adjacency, in the same order, and the same canonical plan-document
  TDG section.  Each side parses its own programs, so neither reads
  values the other derived.  The bundled workloads have only match and
  reverse-match edges, so 40 sets of generated programs add action and
  successor edges, MATs whose several actions read and write, rules,
  and MATs shared across programs for the merger to deduplicate.
* The program model, for every MAT of both corpora: the qualified
  copy's field sets (field for field, in order), signature, resource
  demands, rules and actions equal those of a ``Mat(...)`` built from
  its fields and the oracle's recomputed values; a conflicting field
  definition still raises ``ValueError``.
* A deployed TDG that is pickled and unpickled deploys to the same
  fingerprint as the original and as the oracle's TDG.
* The generator: ``synthetic_programs(10, seed)`` for seeds 0-20
  serializes byte for byte like the oracle generator's output.
"""

import json
import pickle
import random
from collections import Counter

import pytest

from repro.cli import parse_workload
from repro.core.analyzer import ProgramAnalyzer
from repro.core.heuristic import GreedyHeuristic
from repro.dataplane.actions import Action, ActionPrimitive
from repro.dataplane.fields import header_field, metadata_field
from repro.dataplane.mat import Mat
from repro.dataplane.program import Program
from repro.dataplane.rules import MatchKind, MatchSpec, Rule
from repro.dataplane.spec import program_to_dict
from repro.network.catalog import resolve
from repro.network.paths import PathEnumerator
from repro.plan import plan_fingerprint
from repro.plan.serialize import _tdg_section
from repro.tdg.builder import build_tdg
from repro.workloads.synthetic import synthetic_programs
from tests.tdg.analyzer_oracle import (
    legacy_analyze,
    legacy_modified_fields,
    legacy_read_fields,
    legacy_read_set,
    legacy_signature,
    legacy_write_set,
)
from tests.workloads.synthetic_oracle import legacy_synthetic_programs

#: Workload specs of the differential corpus (42).
CORPUS = (
    [f"real:{k}" for k in (1, 2, 3, 5, 8, 10, 11)]
    + [f"sketches:{k}" for k in (1, 2, 4, 8, 10)]
    + ["synthetic:1", "synthetic:4", "synthetic:10"]
    + [
        f"synthetic:{k}:{seed}"
        for k, seed in (
            (1, 0), (1, 5), (2, 1), (3, 2), (5, 3), (10, 1), (10, 4),
        )
    ]
    + [
        "real:10+synthetic:10",
        "real:10+synthetic:10:1",
        "real:10+synthetic:10:4",
        "real:10+synthetic:10+sketches:8",
        "real:11+sketches:10",
        "sketches:4+real:4",
        "sketches:1+real:1",
        "synthetic:3:9+sketches:3",
        "real:2+sketches:2+synthetic:2:6",
        "sketches:10+synthetic:5:2",
        "synthetic:6:11+real:6",
        "real:5+synthetic:15:8",
        "sketches:8+synthetic:8:12+real:3",
        "synthetic:2:13+sketches:6",
        "real:1+synthetic:1:3+sketches:1",
        "real:7+sketches:5+synthetic:7:21",
        "synthetic:20:5",
        "real:9+synthetic:12:30",
        "sketches:3+synthetic:4:17",
        "real:4+synthetic:4:18+sketches:4",
    ]
)


def _random_mat(rng, name, fields):
    match = rng.sample(fields, rng.randint(0, 3))
    actions = [
        Action(
            f"a{k}",
            rng.choice(list(ActionPrimitive)),
            reads=tuple(rng.sample(fields, rng.randint(0, 2))),
            writes=tuple(rng.sample(fields, rng.randint(0, 3))),
        )
        for k in range(rng.randint(1, 3))
    ]
    rules = []
    if match and rng.random() < 0.4:
        rules = [
            Rule(
                (MatchSpec(match[0].name, MatchKind.EXACT, value),),
                rng.choice(actions).name,
                priority=value,
            )
            for value in range(rng.randint(1, 3))
        ]
    return Mat(
        name,
        match_fields=match,
        actions=actions,
        capacity=rng.choice((16, 256, 1024)),
        rules=rules,
        resource_demand=rng.choice((None, rng.uniform(0.05, 0.6))),
    )


def random_programs(seed):
    """One to six generated programs: each field has one definition,
    MATs read and write through several actions, conditional edges
    gate later MATs, and programs draw MATs from a shared pool."""
    rng = random.Random(seed)
    fields = [
        metadata_field(f"meta.f{i}", rng.choice((8, 16, 32, 48)))
        for i in range(10)
    ] + [header_field(f"hdr.h{i}", rng.choice((8, 32))) for i in range(4)]
    pool = [_random_mat(rng, f"shared{k}", fields) for k in range(3)]
    programs = []
    for p in range(rng.randint(1, 6)):
        mats = [
            _random_mat(rng, f"t{i}", fields)
            for i in range(rng.randint(1, 8))
        ]
        for mat in pool:
            if rng.random() < 0.5:
                mats.insert(rng.randint(0, len(mats)), mat)
        names = [mat.name for mat in mats]
        conditional = [
            (gate, gated)
            for i, gate in enumerate(names)
            for gated in names[i + 1 :]
            if rng.random() < 0.15
        ]
        programs.append(Program(f"r{p}", mats, conditional))
    return programs


#: Seeds of the generated-program corpus (40).
RANDOM_SEEDS = range(40)


def corpus_programs(spec):
    """The programs of a workload spec or a generated-program seed,
    built afresh on every call."""
    if isinstance(spec, int):
        return random_programs(spec)
    return parse_workload(spec)


def analyses(spec, merge):
    """The production and oracle analyses of ``spec``, each over its own
    programs, so neither reads values the other derived."""
    new = ProgramAnalyzer(merge).analyze(corpus_programs(spec))
    old = legacy_analyze(corpus_programs(spec), merge)
    return new, old


def graph_shape(tdg):
    """Everything that makes two TDGs the same graph, order included;
    a snapshot, so a later change to ``tdg`` does not show in it."""
    return (
        tdg.name,
        [(name, mat.name, mat.signature(), mat.resource_demand)
         for name, mat in tdg._nodes.items()],
        list(tdg._edges.items()),
        {name: frozenset(succ) for name, succ in tdg._succ.items()},
        {name: frozenset(pred) for name, pred in tdg._pred.items()},
    )


def test_corpus_size():
    assert len(CORPUS) == len(set(CORPUS)) == 42


@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
@pytest.mark.parametrize("spec", CORPUS + list(RANDOM_SEEDS))
def test_analyzer_matches_the_oracle(spec, merge):
    new, old = analyses(spec, merge)
    assert graph_shape(new) == graph_shape(old)
    assert _tdg_section(new) == _tdg_section(old)


def test_generated_programs_reach_every_dependency_type():
    edges = Counter()
    conditional = redundant = 0
    for seed in RANDOM_SEEDS:
        programs = random_programs(seed)
        conditional += sum(len(p.conditional_edges) for p in programs)
        merged = ProgramAnalyzer().analyze(programs)
        redundant += sum(len(p) for p in programs) - len(merged)
        for edge in merged.edges:
            edges[edge.dep_type.value, edge.metadata_bytes > 0] += 1
    assert min(edges["M", True], edges["A", True], edges["S", True]) > 20
    assert edges["R", False] > 20
    assert conditional > 20 and redundant > 20


# ----------------------------------------------------------------------
# The program model
# ----------------------------------------------------------------------
def _fields(field_set):
    return list(field_set)


def _rebuilt(mat):
    """A MAT built by ``Mat.__init__`` from ``mat``'s fields."""
    return Mat(
        name=mat.name,
        match_fields=mat.match_fields,
        actions=mat.actions,
        capacity=mat.capacity,
        rules=mat.rules,
        resource_demand=mat.resource_demand,
        detailed_demand=mat.detailed_demand,
    )


def _model(mat):
    return (
        mat.name,
        _fields(mat.match_fields),
        _fields(mat.modified_fields),
        _fields(mat.read_fields),
        mat.signature(),
        mat.resource_demand,
        mat.detailed_demand,
        mat.rules,
        mat.actions,
        mat.capacity,
    )


def _legacy_model(mat):
    return (
        mat.name,
        _fields(mat.match_fields),
        _fields(legacy_modified_fields(mat)),
        _fields(legacy_read_fields(mat)),
        legacy_signature(mat),
        mat.resource_demand,
        mat.detailed_demand,
        mat.rules,
        mat.actions,
        mat.capacity,
    )


def test_qualified_copies_derive_what_a_rebuilt_mat_derives():
    programs = {}
    for spec in CORPUS:
        for program in parse_workload(spec):
            programs.setdefault(program.name, program)
    for seed in RANDOM_SEEDS:
        for program in random_programs(seed):
            programs[f"{seed}/{program.name}"] = program
    checked = 0
    for program in programs.values():
        for source, copy in zip(program.mats, build_tdg(program).mats):
            assert copy.name == f"{program.name}.{source.name}"
            assert _model(copy) == _model(_rebuilt(copy))
            assert _model(copy) == _legacy_model(copy)
            assert copy == _rebuilt(copy)
            assert hash(copy) == hash(_rebuilt(copy))
            # The source MAT is untouched by the copy's renaming.
            assert _model(source)[1:] == _model(copy)[1:]
            for action in copy.actions:
                assert _fields(action.read_set) == _fields(
                    legacy_read_set(action)
                )
                assert _fields(action.write_set) == _fields(
                    legacy_write_set(action)
                )
            checked += 1
    assert checked > 1000


def _conflicting_mat(where):
    narrow = metadata_field("meta.x", 16)
    wide = metadata_field("meta.x", 32)
    key = header_field("ipv4.src", 32)
    if where == "writes":
        actions = [
            Action("a", ActionPrimitive.MODIFY_FIELD, writes=(narrow,)),
            Action("b", ActionPrimitive.MODIFY_FIELD, writes=(wide,)),
        ]
        return Mat("m", match_fields=[key], actions=actions)
    if where == "one action":
        actions = [
            Action("a", ActionPrimitive.MODIFY_FIELD, writes=(narrow, wide)),
        ]
        return Mat("m", match_fields=[key], actions=actions)
    actions = [Action("a", ActionPrimitive.HASH, reads=(wide,))]
    return Mat("m", match_fields=[narrow], actions=actions)


@pytest.mark.parametrize("where", ["writes", "one action", "reads"])
def test_conflicting_field_definitions_still_raise(where):
    mat = _conflicting_mat(where)
    derive, legacy = (
        ("read_fields", legacy_read_fields)
        if where == "reads"
        else ("modified_fields", legacy_modified_fields)
    )
    with pytest.raises(ValueError, match="conflicting definitions"):
        legacy(mat)
    with pytest.raises(ValueError, match="conflicting definitions"):
        getattr(mat, derive)
    # Not cached as a success: the next access raises again.
    with pytest.raises(ValueError, match="conflicting definitions"):
        getattr(mat, derive)


def test_pickled_deployed_tdg_deploys_to_the_same_fingerprint():
    network = resolve("wan:72:88:11")
    new, old = analyses("real:10+synthetic:10", True)
    fingerprint = plan_fingerprint(
        GreedyHeuristic().deploy(new, network, PathEnumerator(network))
    )
    assert fingerprint == plan_fingerprint(
        GreedyHeuristic().deploy(old, network, PathEnumerator(network))
    )
    thawed = pickle.loads(pickle.dumps(new))
    assert graph_shape(thawed) == graph_shape(new)
    assert fingerprint == plan_fingerprint(
        GreedyHeuristic().deploy(thawed, network, PathEnumerator(network))
    )


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------
def _serialized(programs):
    return json.dumps([program_to_dict(p) for p in programs])


@pytest.mark.parametrize("seed", range(21))
def test_generator_matches_the_oracle(seed):
    assert _serialized(synthetic_programs(10, seed)) == _serialized(
        legacy_synthetic_programs(10, seed)
    )
