"""Benchmark: the production solvers vs the classic branch & bound.

Each ILP job has one production solver: HiGHS's branch-and-cut for
Hermes' P#1 (``Optimal``) and the branch & bound's ``fast`` search
(presolve + reliability/pseudo-cost branching + telemetered primal
heuristics) for every other ILP.  On the Exp#3 family they must return
the exact same deployments as the byte-for-byte historical ``classic``
search, which stays in :mod:`repro.milp.branch_bound` as the oracle,
while exploring no more branch & bound nodes — and strictly fewer on at
least half of the instances where both columns run the branch & bound.

The ``classic`` column patches the bindings the frameworks look up at
call time (:func:`classic_search`): the ``BranchBoundSolver`` names of
:mod:`repro.baselines.min_stage` and :mod:`repro.core.formulation`, and
``HermesMilp._solver``, so P#1 runs on the classic branch & bound too.

Node counts sum ``nodes_explored`` over the ``solver.done`` events of
every ILP solve in a deployment: the branch & bound's explored nodes
(equal to its ``solver.node`` count) or, for the P#1 solves HiGHS runs,
HiGHS's own node count.  The two counts are not comparable: HiGHS
counts the root node it processes, while the branch & bound counts only
nodes it pops and does not prune, so a root closed by the warm start
counts 0.  Instances whose ``fast`` side ran HiGHS (``highs_solves`` >
0) are therefore held to equal ``overhead_bytes`` only, not to the node
gate.

Results are written to ``BENCH_solver.json`` at the repo root so the
node-count contract is auditable across commits.
"""

import contextlib
import functools
import json
import os

import pytest

from repro.baselines import HermesOptimal, MinStage, Speed
from repro.baselines import min_stage
from repro.core import formulation
from repro.core.formulation import HermesMilp, MilpFormulation
from repro.experiments.exp2_overhead import workload
from repro.milp.branch_bound import PROFILE_CLASSIC, BranchBoundSolver
from repro.network.topozoo import topology_zoo_wan
from repro.telemetry import Recorder, attached

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPORT_PATH = os.path.join(_REPO_ROOT, "BENCH_solver.json")

#: Golden Exp#3-family instances:
#: (label, framework factory, topology, workload size).
#: Budgets and workloads are sized so every ILP solve reaches OPTIMAL —
#: node counts then measure tree size, not where the clock expired.
#: SPEED runs on one topology and a smaller workload: its network-wide
#: ILP is by far the most expensive solve in the family.
GOLDEN = [
    ("MinStage/topo1", lambda: MinStage(time_limit_s=5.0), 1, 10),
    ("MinStage/topo5", lambda: MinStage(time_limit_s=5.0), 5, 10),
    ("MinStage/topo10", lambda: MinStage(time_limit_s=5.0), 10, 10),
    ("Optimal/topo1", lambda: HermesOptimal(time_limit_s=60.0), 1, 10),
    ("Optimal/topo5", lambda: HermesOptimal(time_limit_s=60.0), 5, 10),
    ("Optimal/topo10", lambda: HermesOptimal(time_limit_s=60.0), 10, 10),
    ("SPEED/topo1", lambda: Speed(time_limit_s=60.0), 1, 8),
]


@contextlib.contextmanager
def classic_search():
    """Run every ILP, P#1 included, on the classic branch & bound."""
    classic = functools.partial(BranchBoundSolver, profile=PROFILE_CLASSIC)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(min_stage, "BranchBoundSolver", classic)
        mp.setattr(formulation, "BranchBoundSolver", classic)
        mp.setattr(HermesMilp, "_solver", MilpFormulation._solver)
        yield


#: The two columns of every instance: the production solvers, and the
#: classic branch & bound in their place.
COLUMNS = {"fast": contextlib.nullcontext, "classic": classic_search}


def _run_instance(factory, topology_id, num_programs, column):
    programs = workload(num_programs)
    network = topology_zoo_wan(topology_id)
    rec = Recorder()
    with COLUMNS[column](), attached(rec):
        result = factory().deploy(programs, network)
    return {
        "nodes": sum(
            done["nodes_explored"] for done in rec.of_kind("solver.done")
        ),
        # Every solve here ends OPTIMAL, and a HiGHS solve that does
        # emits exactly one incumbent.
        "highs_solves": sum(
            1
            for event in rec.of_kind("solver.incumbent")
            if event["source"] == "highs"
        ),
        "lp_solves": rec.count("solver.lp"),
        "overhead_bytes": result.overhead_bytes,
        "solve_time_s": round(result.solve_time_s, 3),
        "timed_out": result.timed_out,
    }


@pytest.fixture(scope="module")
def solver_records():
    """Both columns over every golden instance, persisted to JSON."""
    records = []
    for label, factory, topology_id, num_programs in GOLDEN:
        record = {
            "instance": label,
            "topology": topology_id,
            "programs": num_programs,
        }
        for column in COLUMNS:
            record[column] = _run_instance(
                factory, topology_id, num_programs, column
            )
        records.append(record)
    branch_and_bound = [r for r in records if not r["fast"]["highs_solves"]]
    strict = sum(
        1
        for r in branch_and_bound
        if r["fast"]["nodes"] < r["classic"]["nodes"]
    )
    payload = {
        "instances": records,
        "summary": {
            "instances": len(records),
            "branch_and_bound_instances": len(branch_and_bound),
            "strict_node_wins": strict,
            "classic_nodes_total": sum(
                r["classic"]["nodes"] for r in records
            ),
            "fast_nodes_total": sum(r["fast"]["nodes"] for r in records),
        },
    }
    with open(_REPORT_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def test_bench_solver_profiles_agree(solver_records):
    """Both columns produce identical deployments within budget."""
    for record in solver_records["instances"]:
        classic, fast = record["classic"], record["fast"]
        assert not classic["timed_out"], record["instance"]
        assert not fast["timed_out"], record["instance"]
        assert fast["overhead_bytes"] == classic["overhead_bytes"], (
            record["instance"]
        )


def test_bench_solver_fast_explores_fewer_nodes(solver_records):
    """fast <= classic nodes on every branch & bound instance; strictly
    fewer on >= half of them."""
    summary = solver_records["summary"]
    assert summary["branch_and_bound_instances"] > 0
    for record in solver_records["instances"]:
        if record["fast"]["highs_solves"]:
            continue
        assert record["fast"]["nodes"] <= record["classic"]["nodes"], (
            record["instance"]
        )
    assert (
        summary["strict_node_wins"] * 2
        >= summary["branch_and_bound_instances"]
    )


def test_bench_solver_report(solver_records):
    from conftest import record_report

    rows = [
        "Production solvers vs classic branch & bound on the Exp#3 "
        "family (nodes per deployment; fast runs HiGHS on Optimal)",
        f"{'instance':<18} {'classic':>9} {'fast':>9} {'classic s':>10} {'fast s':>8}",
    ]
    for record in solver_records["instances"]:
        rows.append(
            f"{record['instance']:<18} "
            f"{record['classic']['nodes']:>9} "
            f"{record['fast']['nodes']:>9} "
            f"{record['classic']['solve_time_s']:>10.2f} "
            f"{record['fast']['solve_time_s']:>8.2f}"
        )
    summary = solver_records["summary"]
    rows.append(
        f"total nodes: classic={summary['classic_nodes_total']} "
        f"fast={summary['fast_nodes_total']} "
        f"(strict wins {summary['strict_node_wins']}/"
        f"{summary['branch_and_bound_instances']} branch & bound instances)"
    )
    record_report("\n".join(rows))
    assert os.path.exists(_REPORT_PATH)
