"""How much work one cold verified heuristic deploy does.

The repo benchmark's ``heuristic-deploy`` op is ``deploy_op`` with
``verify=True`` of ``real:10+synthetic:10`` on a Table III-sized WAN.
On one of its instances (``wan:72:88:6404``) this pins, per deploy:

* refine's 22 candidate rebuilds, of which the verifier, which now runs
  before routing, rejects 7 unrouted: 3 ``validate()`` calls (the
  min-cut and chain plans and the accepted candidate), 3
  ``route_all_pairs`` calls (the same three plans) and 103
  shortest-path queries;
* 8 verifier runs and 8 channel builds: each candidate the layouts
  pass is verified once, and the deploy document reads the accepted
  candidate's report and channels from the plan's memo;
* Algorithm 2's split in 7 rounds whose grouped walk emits 225 nodes,
  stopping each round at the first prefix over the reference switch's
  capacity.

The plan and its verification section are pinned with them, so a
count can only fall by doing less work for the same document.
"""

import heapq
import types
from collections import Counter

import pytest

import repro.baselines.base as base
import repro.core.heuristic as heuristic
import repro.core.refine as refine
from repro.network.paths import PathEnumerator
from repro.plan.artifact import DeploymentPlan
from repro.server.ops import deploy_op
from repro.tdg.graph import Tdg

PARAMS = {
    "workload": "real:10+synthetic:10",
    "topology": "wan:72:88:6404",
    "verify": True,
}
FINGERPRINT = (
    "43888d7d4310ee8ae478a3d879d052bf62d698fbbea5361d374cd989eefa5de1"
)


@pytest.fixture
def counted(monkeypatch):
    """Count the work of the calls made while the fixture is active."""
    counts = Counter()

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    counting(refine, "_rebuild", "rebuild")
    counting(DeploymentPlan, "validate", "validate")
    # Algorithm 2 and refine bind the router by name; the chain
    # portfolio member looks it up in repro.baselines.base.
    for module in (refine, heuristic, base):
        counting(module, "route_all_pairs", "routing")
    counting(PathEnumerator, "shortest", "shortest")
    counting(heuristic, "_choose_prefix_size", "split rounds")

    # A verifier run and a channel build each read one table memoized
    # on the TDG, whatever caches sit above them.
    memoized = Tdg.memoized

    def counting_memoized(tdg, derive, compute=None):
        counts[derive.__name__] += 1
        return memoized(tdg, derive, compute)

    monkeypatch.setattr(Tdg, "memoized", counting_memoized)

    # The grouped walk pops one ready node per node it emits.
    def heappop(heap):
        counts["walked"] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(
        heuristic,
        "heapq",
        types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop),
    )
    return counts


def test_one_verified_deploy_does_only_the_work_it_uses(counted):
    doc = deploy_op(PARAMS)
    assert doc["fingerprint"] == FINGERPRINT
    assert doc["verification"] == {"reads_checked": 418, "rounds": 1}
    assert {
        "rebuild": counted["rebuild"],
        "validate": counted["validate"],
        "routing": counted["routing"],
        "shortest": counted["shortest"],
        "verifier runs": counted["_dataflow_tables"],
        "channel builds": counted["_shipped_fields"],
        "split rounds": counted["split rounds"],
        "walked": counted["walked"],
    } == {
        "rebuild": 22,
        "validate": 3,
        "routing": 3,
        "shortest": 103,
        "verifier runs": 8,
        "channel builds": 8,
        "split rounds": 7,
        "walked": 225,
    }
