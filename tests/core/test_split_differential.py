"""Differential tests: Algorithm 2's min-cut split and the graph copies
against the code they replaced (:mod:`split_oracle`,
:mod:`tests.tdg.analyzer_oracle`).

* ``split_tdg`` on every analyzed TDG of the analyzer corpus (the
  workloads and the generated programs, merged and unmerged) and on
  random DAGs from the property strategy, against
  reference switches of several ``(num_stages, stage_capacity)`` shapes
  at fill floors 0.5, 0.7 and 0.98: segments with the same names,
  nodes, edges and adjacency, in the same order, or the same exception
  type and message.  The input graph is unchanged afterwards, and a
  one-segment split returns the input graph itself.
* ``split_order`` and ``_prefix_candidates`` on the same graphs: the
  same order and, unbounded, the same candidates.  Bounded by each
  reference switch's capacity, the sweep reads a prefix of that order
  and gives the oracle's candidates truncated after the first prefix
  over capacity, and the chosen position is the one the oracle's whole
  sweep gives.
* Two extremes: on every corpus graph, a reference switch smaller
  than the walk's first MAT (the first prefix is already over
  capacity), and on every third, one whose capacity exceeds the total
  demand (nothing truncates, but a shallow pipeline still forces a
  split).
* ``Tdg.subgraph`` and ``Tdg.copy`` on random node subsets of the
  corpus TDGs: the same graph as the oracle's, adjacency included, and
  the same error for names the graph does not hold.
"""

import math
import random
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from split_oracle import (
    legacy_prefix_candidates,
    legacy_split_order,
    legacy_split_tdg,
    legacy_subgraph,
)

from repro.core.analyzer import ProgramAnalyzer
from repro.core.heuristic import (
    _choose_prefix_size,
    _prefix_candidates,
    split_order,
    split_tdg,
)
from repro.network.switch import Switch
from tests.property.test_properties import random_dag
from tests.tdg.analyzer_oracle import legacy_copy
from tests.tdg.test_analyzer_differential import (
    CORPUS,
    RANDOM_SEEDS,
    corpus_programs,
    graph_shape,
)

#: Reference ``(num_stages, stage_capacity)`` shapes: the default
#: Tofino-like switch, shallow pipelines that force prefix shrinking,
#: and small stages that leave some MATs fitting nowhere.  The random
#: DAGs are small, so they also meet a two-stage switch that holds
#: about two of their MATs.
SHAPES = ((12, 1.0), (4, 1.0), (8, 0.75), (3, 2.5), (1, 0.3))
DAG_SHAPES = SHAPES + ((2, 0.5),)
FLOORS = (0.5, 0.7, 0.98)


@lru_cache(maxsize=None)
def corpus_tdg(spec, merge):
    return ProgramAnalyzer(merge).analyze(corpus_programs(spec))


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return (type(exc), str(exc))


def _segments(outcome):
    if isinstance(outcome, tuple):
        return outcome
    return [graph_shape(segment) for segment in outcome]


def truncated(candidates, capacity):
    """``candidates`` up to and including the first prefix whose demand
    exceeds ``capacity``."""
    for index, (_size, _cut, demand) in enumerate(candidates):
        if demand > capacity:
            return candidates[: index + 1]
    return candidates


def assert_sweeps_agree(tdg, order, legacy, reference):
    """The bounded sweep against the oracle's whole sweep ``legacy`` of
    ``order``."""
    capacity = reference.total_capacity
    names, bounded = _prefix_candidates(tdg, capacity)
    assert names == order[: len(names)]
    assert bounded == truncated(legacy, capacity)
    if legacy:
        for floor in FLOORS:
            assert _choose_prefix_size(
                bounded, capacity, floor
            ) == _choose_prefix_size(legacy, capacity, floor)


def assert_splits_agree(tdg, shapes=SHAPES, floors=FLOORS):
    """Every shape and floor splits ``tdg`` alike; returns how many
    splits had several segments and how many failed."""
    before = graph_shape(tdg)
    order = split_order(tdg)
    assert order == legacy_split_order(tdg)
    legacy = legacy_prefix_candidates(tdg, order)
    assert _prefix_candidates(tdg, math.inf) == (order, legacy)
    several = failed = 0
    for num_stages, capacity in shapes:
        reference = Switch(
            "ref", num_stages=num_stages, stage_capacity=capacity
        )
        assert_sweeps_agree(tdg, order, legacy, reference)
        for floor in floors:
            new = _outcome(split_tdg, tdg, reference, floor)
            assert graph_shape(tdg) == before
            old = _outcome(legacy_split_tdg, tdg, reference, floor)
            assert _segments(new) == _segments(old)
            if isinstance(new, tuple):
                failed += 1
            elif len(new) == 1:
                assert new[0] is tdg
            else:
                several += 1
                assert all(segment is not tdg for segment in new)
    return several, failed


@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
@pytest.mark.parametrize("spec", CORPUS)
def test_split_matches_the_oracle(spec, merge):
    tdg = corpus_tdg(spec, merge)
    several, failed = assert_splits_agree(tdg)
    if len(tdg) > 40:
        assert several > 0
    if tdg.total_resource_demand() > 3.0:
        assert failed > 0


@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
@pytest.mark.parametrize("spec", CORPUS)
def test_split_on_a_switch_smaller_than_the_first_mat(spec, merge):
    """Half the capacity the walk's first MAT needs: the sweep stops at
    its first prefix, and every split fails alike."""
    tdg = corpus_tdg(spec, merge)
    order = split_order(tdg)
    legacy = legacy_prefix_candidates(tdg, order)
    shape = (1, tdg.node(order[0]).resource_demand / 2)
    reference = Switch("ref", num_stages=shape[0], stage_capacity=shape[1])
    _names, bounded = _prefix_candidates(tdg, reference.total_capacity)
    assert bounded == legacy[:1]
    assert assert_splits_agree(tdg, (shape,)) == (0, len(FLOORS))


@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
@pytest.mark.parametrize("spec", CORPUS[::3])
def test_split_on_a_switch_roomier_than_the_graph(spec, merge):
    """Twice the graph's total demand on two stages: the sweep reads
    every prefix, and the dependency chains still force a split.  No
    prefix reaches half the capacity, so every fill floor chooses
    alike and one is enough."""
    tdg = corpus_tdg(spec, merge)
    order = split_order(tdg)
    shape = (2, tdg.total_resource_demand())
    reference = Switch("ref", num_stages=shape[0], stage_capacity=shape[1])
    assert _prefix_candidates(tdg, reference.total_capacity) == (
        order,
        legacy_prefix_candidates(tdg, order),
    )
    several, _failed = assert_splits_agree(
        tdg, (shape,), floors=(FLOORS[0],)
    )
    if len(tdg) > 40:
        assert several == 1


@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_split_of_generated_programs_matches_the_oracle(seed, merge):
    assert_splits_agree(corpus_tdg(seed, merge), DAG_SHAPES)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(random_dag(max_nodes=24))
def test_split_of_random_dags_matches_the_oracle(tdg):
    assert_splits_agree(tdg, DAG_SHAPES)


# ----------------------------------------------------------------------
# Graph copies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", CORPUS[::3])
def test_subgraph_and_copy_match_the_oracle(spec):
    tdg = corpus_tdg(spec, True)
    rng = random.Random(spec)
    names = tdg.node_names
    for _ in range(20):
        subset = rng.sample(names, rng.randint(0, len(names)))
        sub = tdg.subgraph(subset, name="sub")
        assert graph_shape(sub) == graph_shape(
            legacy_subgraph(tdg, subset, name="sub")
        )
        for name in (None, "copy"):
            assert graph_shape(sub.copy(name)) == graph_shape(
                legacy_copy(sub, name)
            )
    assert graph_shape(tdg.copy()) == graph_shape(legacy_copy(tdg))
    unknown = names[:2] + ["nowhere.a", "nowhere.b"]
    assert _outcome(tdg.subgraph, unknown) == _outcome(
        legacy_subgraph, tdg, unknown
    )


def test_copies_do_not_share_adjacency():
    """Removing nodes from a copy, in an order that leaves each one
    with neighbours on both sides, leaves the source as it was."""
    tdg = corpus_tdg("real:10+synthetic:10", True)
    before = graph_shape(tdg)
    doomed = random.Random(3).sample(tdg.node_names, 80)
    for clone in (tdg.copy(), tdg.subgraph(tdg.node_names)):
        for name in doomed:
            clone.remove_node(name)
    assert graph_shape(tdg) == before
