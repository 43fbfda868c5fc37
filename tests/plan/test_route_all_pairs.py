"""The router: shortest paths for every communicating pair, in pair
order.

``route_all_pairs`` routes the keys of ``pair_metadata_bytes()`` in
that order and returns the plan's ``with_routing`` sibling; at the
first pair without a path it raises, naming that pair.
"""

import pytest

from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.paths import PathEnumerator
from repro.network.switch import Switch
from repro.network.topology import Link, Network
from repro.plan.artifact import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
    route_all_pairs,
)
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg


def _plan(links):
    """``m0 -> m2`` and ``m1 -> m2`` with ``m2`` on ``a``, ``m1`` on
    ``d`` and ``m0`` on ``c``, placed in that order: pair order is
    ``(c, a)``, ``(d, a)``, while the placements first meet
    ``(d, a)``."""
    tdg = Tdg("fan-in")
    for name in ("m0", "m1", "m2"):
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=0.2))
    tdg.add_edge("m0", "m2", DependencyType.MATCH, 4)
    tdg.add_edge("m1", "m2", DependencyType.MATCH, 2)
    network = Network("square")
    for name in "abcd":
        network.add_switch(Switch(name))
    for u, v in links:
        network.add_link(Link(u, v))
    placements = {
        "m2": MatPlacement("m2", "a", (1,)),
        "m1": MatPlacement("m1", "d", (1,)),
        "m0": MatPlacement("m0", "c", (1,)),
    }
    return DeploymentPlan(tdg, network, placements)


def test_routes_every_pair_in_pair_order():
    plan = _plan([("a", "b"), ("b", "c"), ("c", "d")])
    routed = route_all_pairs(plan, PathEnumerator(plan.network))
    assert list(routed.routing) == list(plan.pair_metadata_bytes()) == [
        ("c", "a"),
        ("d", "a"),
    ]
    assert routed.routing[("d", "a")].switches == ("d", "c", "b", "a")
    assert dict(plan.routing) == {}
    assert routed.placements == plan.placements
    routed.validate()


def test_names_the_first_pathless_pair_in_pair_order():
    plan = _plan([("a", "b")])
    with pytest.raises(DeploymentError) as raised:
        route_all_pairs(plan, PathEnumerator(plan.network))
    assert str(raised.value) == (
        "no path between communicating switches ('c', 'a')"
    )
