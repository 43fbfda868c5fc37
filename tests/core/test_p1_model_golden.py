"""Golden pin: the P#1 models every MILP configuration builds.

``golden_p1_models.json`` records, per instance and configuration of
:meth:`MilpFormulation.build`, a sha256 over the model's
:meth:`Model.to_arrays` export (objective, both CSR matrices with their
dtypes and shapes, right-hand sides and bounds), digests of the
variable names and types in column order and of the row names, and the
model's size.  For the configurations the branch and bound solves, it
also records :func:`presolve`'s status, stats, fixings and the reduced
model's export digest.

Instances: the repo benchmark's ten ``optimal-milp`` shapes at seed 1,
the churn benchmark's ``real:10``/``wan:20:30:7`` and Exp#5's
``real:10+synthetic:10``/``wan:72:88:5``.  Configurations: every one
production builds (Hermes' Optimal with and without an epsilon2
bound, SPEED's and P4All's latency objective, MTP's MAT cap and
Flightplan's switch count), plus a finite epsilon1, the explicit path
variables of Eq. 7 on the ten small shapes, and Optimal's model after a
capacity shrink.  A change to the formulation or the model export that
alters any byte HiGHS or the branch and bound sees fails here.

Regenerate the fixture only for an intended model change:
``PYTHONPATH=src python tests/core/test_p1_model_golden.py``.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.cli import parse_topology, parse_workload
from repro.core.analyzer import ProgramAnalyzer
from repro.core.formulation import (
    OBJECTIVE_LATENCY,
    OBJECTIVE_SWITCHES,
    HermesMilp,
    MilpFormulation,
)
from repro.milp.presolve import presolve
from repro.network.paths import PathEnumerator

GOLDEN_PATH = Path(__file__).parent / "golden_p1_models.json"

#: The ``optimal-milp`` benchmark's shapes, each at this seed.
SMALL_SHAPES = [
    (workload, topology)
    for workload in (
        "real:4", "real:5", "sketches:4", "sketches:8", "real:3+sketches:3",
    )
    for topology in ("wan:10:14", "wan:12:18")
]
SEED = 1
LARGE_SHAPES = [
    ("real:10", "wan:20:30:7"),
    ("real:10+synthetic:10", "wan:72:88:5"),
]


def _mtp_cap(tdg):
    return max(1, math.ceil(len(tdg) / 3))


#: name -> (merged TDG, formulation factory, branch and bound solves
#: it, small shapes only).  The factories mirror each framework's own.
CONFIGS = {
    "hermes": (True, lambda tdg: HermesMilp(), False, False),
    "hermes-eps2": (True, lambda tdg: HermesMilp(epsilon2=2), False, False),
    "speed": (
        True,
        lambda tdg: MilpFormulation(objective=OBJECTIVE_LATENCY),
        True,
        False,
    ),
    "p4all": (
        False,
        lambda tdg: MilpFormulation(objective=OBJECTIVE_LATENCY),
        True,
        False,
    ),
    "mtp": (
        True,
        lambda tdg: MilpFormulation(
            objective=OBJECTIVE_LATENCY, max_mats_per_switch=_mtp_cap(tdg)
        ),
        True,
        False,
    ),
    "flightplan": (
        False,
        lambda tdg: MilpFormulation(objective=OBJECTIVE_SWITCHES),
        True,
        False,
    ),
    "eps1": (True, lambda tdg: HermesMilp(epsilon1=5000.0), False, False),
    "explicit-paths": (
        True,
        lambda tdg: HermesMilp(explicit_paths=True),
        False,
        True,
    ),
    "shrunk": (True, lambda tdg: HermesMilp(), False, False),
}


def _cases():
    shapes = [(w, t, SEED) for w, t in SMALL_SHAPES]
    shapes += [(w, t, None) for w, t in LARGE_SHAPES]
    return [
        {"workload": w, "topology": t, "seed": seed, "config": config}
        for w, t, seed in shapes
        for config, (_m, _f, _bb, small_only) in CONFIGS.items()
        if seed is not None or not small_only
    ]


def _update(digest, array):
    array = array if array.flags.c_contiguous else array.copy()
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def export_digest(model):
    """sha256 over every array of ``model.to_arrays()``."""
    import numpy as np

    c, a_ub, b_ub, a_eq, b_eq, bounds = model.to_arrays()
    digest = hashlib.sha256()
    _update(digest, c)
    for matrix, rhs in ((a_ub, b_ub), (a_eq, b_eq)):
        if matrix is None:
            digest.update(b"none")
        else:
            digest.update(f"{matrix.shape}".encode())
            for part in (matrix.indptr, matrix.indices, matrix.data):
                _update(digest, part)
        if rhs is None:
            digest.update(b"none")
        else:
            _update(digest, rhs)
    _update(digest, np.array(bounds, dtype=float))
    return digest.hexdigest()


def _lines_digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _row_names(model):
    return [row.name or "" for row in model.rows()]


def _build(case):
    merged, factory, _bb, _small = CONFIGS[case["config"]]
    programs = parse_workload(case["workload"], seed=case["seed"])
    network = parse_topology(case["topology"], seed=case["seed"])
    tdg = ProgramAnalyzer(merge=merged).analyze(programs)
    formulation = factory(tdg)
    paths = PathEnumerator(network)
    handles = formulation.build(tdg, network, paths)
    if case["config"] == "shrunk":
        formulation._tighten_capacity(handles, tdg, network, 0.85)
    return handles.model


def _presolve_record(model):
    result = presolve(model)
    return {
        "status": result.status,
        "stats": result.stats.as_payload(),
        "fixed": _lines_digest(
            f"{var.index}|{value!r}"
            for var, value in sorted(
                result.fixed.items(), key=lambda item: item[0].index
            )
        ),
        "objective_offset": result.objective_offset,
        "reduced_export": (
            export_digest(result.model) if result.model is not None else None
        ),
    }


def _record(case):
    model = _build(case)
    record = dict(
        case,
        num_vars=model.num_vars,
        num_rows=model.num_constraints,
        export=export_digest(model),
        variables=_lines_digest(
            f"{var.name}|{var.var_type.value}" for var in model.variables
        ),
        rows=_lines_digest(_row_names(model)),
    )
    if CONFIGS[case["config"]][2]:
        record["presolve"] = _presolve_record(model)
    return record


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "expected",
    _golden(),
    ids=lambda case: "{workload}@{topology}-{config}".format(**case),
)
def test_p1_model_matches_golden(expected):
    case = {k: expected[k] for k in ("workload", "topology", "seed", "config")}
    assert _record(case) == expected


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump([_record(case) for case in _cases()], fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
