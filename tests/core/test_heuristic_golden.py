"""Golden pin: cold Algorithm 2 deploys at Exp#5 scale.

``golden_heuristic_deploys.json`` records, for verified
``deploy_op`` runs of ``real:10+synthetic:10`` on three Table III-sized
random WANs (``wan:72:88:S``) and one hub-replicated deploy, the plan
fingerprint and the dataflow verifier's ``reads_checked`` and
``rounds``.  A change to path selection, stage layout, refinement or
verification that alters any plan byte, or what the verifier checks,
fails here.

Regenerate the fixture only for an intended plan change:
``PYTHONPATH=src python tests/core/test_heuristic_golden.py``.
"""

import json
from pathlib import Path

import pytest

from repro.server.ops import deploy_op

GOLDEN_PATH = Path(__file__).parent / "golden_heuristic_deploys.json"


def _record(params):
    doc = deploy_op(params)
    return {
        "params": params,
        "fingerprint": doc["fingerprint"],
        "reads_checked": doc["verification"]["reads_checked"],
        "rounds": doc["verification"]["rounds"],
    }


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "expected",
    _golden(),
    ids=lambda case: "{topology}{replicate}".format(
        topology=case["params"]["topology"],
        replicate="-replicate" if case["params"].get("replicate") else "",
    ),
)
def test_heuristic_deploy_matches_golden(expected):
    assert _record(expected["params"]) == expected


if __name__ == "__main__":
    cases = [_record(case["params"]) for case in _golden()]
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(cases, fh, indent=2, sort_keys=True)
        fh.write("\n")
