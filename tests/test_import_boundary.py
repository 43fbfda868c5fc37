"""The heuristic path never loads the solver stack.

Algorithm 2 needs neither numpy nor scipy, yet importing
``scipy.optimize`` costs a cold process far more than a heuristic
deploy does.  ``repro`` therefore imports the MILP solvers, the ILP
baselines and the daemon when a caller first uses them: the package
``__init__`` modules resolve their solver-backed exports (all of
``repro.server``'s) through :func:`repro.lazy.lazy_exports`.

The checks of what a path loads run in a fresh interpreter, since
earlier tests in this process have long since imported scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

#: The directory holding the ``repro`` package under test.
SRC = str(Path(repro.__file__).resolve().parent.parent)


def run_fresh(code: str, **environ: str):
    """Run ``code`` in a new interpreter, with ``environ`` added to its
    environment, and return the JSON value it prints last."""
    env = {**os.environ, **environ}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Appended to a probe: prints which heavy modules it loaded.
LOADED = """
import json, sys
print(json.dumps([m for m in ("numpy", "scipy") if m in sys.modules]))
"""


# ----------------------------------------------------------------------
# (a) the heuristic path stays numpy- and scipy-free
# ----------------------------------------------------------------------
HEURISTIC_PROBES = {
    "deploy_op": """
        import repro.server.ops
        doc = repro.server.ops.deploy_op(
            {"workload": "real:4", "topology": "wan:10:14", "verify": True}
        )
        assert doc["verification"]["reads_checked"] > 0, doc
    """,
    "build_parser": """
        import repro.cli
        repro.cli.build_parser()
    """,
    "python -m repro deploy": """
        import runpy, sys
        sys.argv = ["repro", "deploy", "--workload", "real:4",
                    "--topology", "wan:10:14"]
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as exc:
            assert not exc.code, exc.code
    """,
}


@pytest.mark.parametrize("probe", sorted(HEURISTIC_PROBES))
def test_heuristic_path_loads_no_solver_stack(probe):
    code = textwrap.dedent(HEURISTIC_PROBES[probe]) + LOADED
    assert run_fresh(code) == []


# ----------------------------------------------------------------------
# (b) every package export resolves to its defining object
# ----------------------------------------------------------------------
#: Each package's ``__all__`` (and ``repro.server.SIMULATE_DEFAULTS``,
#: a package attribute missing from it), grouped by defining submodule.
EXPORTS = {
    "repro.core": {
        "repro.core.analyzer": "ProgramAnalyzer",
        "repro.core.backend": "Backend SwitchConfig",
        "repro.core.coordination": "CoordinationAnalysis MetadataChannel",
        "repro.core.delta": "DeltaFormulation select_delta_candidates",
        "repro.core.explain": "OverheadReport explain_overhead",
        "repro.core.formulation": "HermesMilp MilpFormulation",
        "repro.core.hermes": "Hermes HermesResult",
        "repro.core.heuristic": "GreedyHeuristic split_tdg",
        "repro.core.refine": "refine_plan",
        "repro.core.replication": "replicate_cheap_hubs replication_cost",
        "repro.core.stages": "StageAssignmentError assign_stages",
        "repro.core.verification": "DataflowError DataflowReport "
        "verify_dataflow",
        "repro.plan.artifact": "DeploymentError DeploymentPlan "
        "MatPlacement",
    },
    "repro.milp": {
        "repro.milp.branch_bound": "BranchBoundSolver solve",
        "repro.milp.expr": "LinExpr",
        "repro.milp.highs": "HighsSolver",
        "repro.milp.model": "Constraint Model Sense Var VarType",
        "repro.milp.presolve": "PresolveCache PresolveStats "
        "PresolveStatus PresolvedModel model_signature presolve",
        "repro.milp.solution": "Solution SolveStatus",
    },
    "repro.baselines": {
        "repro.baselines.base": "DeploymentFramework FrameworkResult "
        "build_switch_chain schedule_on_chain",
        "repro.baselines.ffl": "Ffl",
        "repro.baselines.ffls": "Ffls",
        "repro.baselines.flightplan": "Flightplan",
        "repro.baselines.frameworks": "ALL_FRAMEWORKS",
        "repro.baselines.hermes_adapters": "HermesHeuristic HermesOptimal",
        "repro.baselines.min_stage": "MinStage",
        "repro.baselines.mtp": "Mtp",
        "repro.baselines.p4all": "P4All",
        "repro.baselines.sonata": "Sonata",
        "repro.baselines.speed": "Speed",
    },
    "repro.server": {
        "repro.server.client": "ReproClient ServerError parse_address",
        "repro.server.ops": "CHURN_DEFAULTS DEPLOY_DEFAULTS OP_FUNCTIONS "
        "PLAN_DIFF_DEFAULTS SIMULATE_DEFAULTS OpError churn_doc churn_op "
        "deploy_op deterministic_view plan_diff_op resolve_params "
        "run_churn simulate_op",
        "repro.server.protocol": "ERROR_CODES MAX_FRAME_BYTES OPS "
        "PROTOCOL ProtocolError",
        "repro.server.service": "ReproServer serve_until_complete",
        "repro.server.session": "Session",
    },
}

#: Prints the exports that differ from their defining submodule's
#: binding, by attribute and by ``import *``.  With ``submodules_first``
#: every submodule is imported before any export is read: importing a
#: submodule binds it on its package, which must not shadow an export
#: of the same name (``repro.milp.presolve`` is both).
EXPORT_PROBE = """
import importlib, json, pkgutil
package = importlib.import_module({package!r})
if {submodules_first!r}:
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(package.__name__ + "." + info.name)
exports = {exports!r}
names = {{n for ns in exports.values() for n in ns.split()}}
assert names >= set(package.__all__), set(package.__all__) - names
wrong = [
    name
    for module, ns in exports.items()
    for name in ns.split()
    if getattr(package, name)
    is not getattr(importlib.import_module(module), name)
]
star = {{}}
exec("from {package} import *", star)
wrong += [n for n in package.__all__ if star[n] is not getattr(package, n)]
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("submodules_first", [False, True])
@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_exports_resolve_to_their_definitions(package, submodules_first):
    code = EXPORT_PROBE.format(
        package=package,
        submodules_first=submodules_first,
        exports=EXPORTS[package],
    )
    assert run_fresh(code) == []


def test_unknown_name_still_raises_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="has no attribute 'Nope'"):
        getattr(repro.core, "Nope")


# ----------------------------------------------------------------------
# (c) the solver paths still work from a fresh interpreter
# ----------------------------------------------------------------------
def test_optimal_deploy_from_a_fresh_interpreter():
    code = """
        from repro.server.ops import deploy_op
        doc = deploy_op({"workload": "real:4", "topology": "wan:10:14",
                         "seed": 1, "mode": "optimal"})
        assert doc["timing"]["timed_out"] is False, doc["timing"]
    """
    assert run_fresh(textwrap.dedent(code) + LOADED) == ["numpy", "scipy"]


def test_churn_from_a_fresh_interpreter():
    code = """
        import json
        from repro.server.ops import churn_op
        doc = churn_op({"workload": "sketches:6", "topology": "wan:12:18",
                        "seed": 6, "events": 2, "incremental": True})
        print(json.dumps(doc["converged"]))
    """
    assert run_fresh(code) is True
