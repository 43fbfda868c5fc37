"""An Optimal plan does not depend on the interpreter's hash seed.

``str`` hashes are salted per process (``PYTHONHASHSEED``), so code that
iterates a set of names can order its output differently from one run
to the next, even when the plan's fingerprint, which sorts everything,
agrees.  Two fresh interpreters, under seeds 0 and 1, deploy ``real:5``
over ``wan:10:14:2`` with ``Hermes(mode="optimal")``: the placement
order, the occupied switches, the verifier's execution order and the
switches ``Backend.compile`` configures must agree.
"""

from tests.test_import_boundary import run_fresh

PROBE = """
import json
from repro.cli import parse_topology, parse_workload
from repro.core import Backend, Hermes, verify_dataflow

plan = Hermes(mode="optimal").deploy(
    parse_workload("real:5"), parse_topology("wan:10:14:2")
).plan
print(json.dumps({
    "fingerprint": plan.fingerprint(),
    "placements": list(plan.placements),
    "occupied": plan.occupied_switches(),
    "execution_order": verify_dataflow(plan).execution_order,
    "configs": list(Backend().compile(plan)),
}))
"""


def test_optimal_plan_is_the_same_under_two_hash_seeds():
    first = run_fresh(PROBE, PYTHONHASHSEED="0")
    second = run_fresh(PROBE, PYTHONHASHSEED="1")
    assert len(first["occupied"]) > 1
    assert first == second
