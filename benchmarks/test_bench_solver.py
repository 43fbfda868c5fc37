"""Benchmark: solver profiles — fast vs classic on the Exp#3 family.

The ``fast`` profile (presolve + reliability/pseudo-cost branching +
telemetered primal heuristics) must return the exact same deployments
as the byte-for-byte historical ``classic`` profile while exploring no
more branch & bound nodes — and strictly fewer on at least half of the
instances where both profiles run the branch & bound.  Node counts sum
``nodes_explored`` over the ``solver.done`` events of every ILP solve
in a deployment: the branch & bound's explored nodes (equal to its
``solver.node`` count) or, for the P#1 solves HiGHS runs under
``fast``, HiGHS's own node count.

The two counts are not comparable: HiGHS counts the root node it
processes, while the branch & bound counts only nodes it pops and does
not prune, so a root closed by the warm start counts 0.  Instances
whose ``fast`` side ran HiGHS (``highs_solves`` > 0) are therefore
held to equal ``overhead_bytes`` only, not to the node gate.

Results are written to ``BENCH_solver.json`` at the repo root so the
node-count contract is auditable across commits.
"""

import json
import os

import pytest

from repro.baselines import HermesOptimal, MinStage, Speed
from repro.experiments.exp2_overhead import workload
from repro.milp.branch_bound import SOLVER_PROFILES
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
    ("MinStage/topo1", lambda p: MinStage(time_limit_s=5.0, solver_profile=p), 1, 10),
    ("MinStage/topo5", lambda p: MinStage(time_limit_s=5.0, solver_profile=p), 5, 10),
    ("MinStage/topo10", lambda p: MinStage(time_limit_s=5.0, solver_profile=p), 10, 10),
    ("Optimal/topo1", lambda p: HermesOptimal(time_limit_s=60.0, solver_profile=p), 1, 10),
    ("Optimal/topo5", lambda p: HermesOptimal(time_limit_s=60.0, solver_profile=p), 5, 10),
    ("Optimal/topo10", lambda p: HermesOptimal(time_limit_s=60.0, solver_profile=p), 10, 10),
    ("SPEED/topo1", lambda p: Speed(time_limit_s=60.0, solver_profile=p), 1, 8),
]


def _run_instance(factory, topology_id, num_programs, profile):
    programs = workload(num_programs)
    network = topology_zoo_wan(topology_id)
    rec = Recorder()
    with attached(rec):
        result = factory(profile).deploy(programs, network)
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
    """Both profiles over every golden instance, persisted to JSON."""
    records = []
    for label, factory, topology_id, num_programs in GOLDEN:
        per_profile = {
            profile: _run_instance(factory, topology_id, num_programs, profile)
            for profile in SOLVER_PROFILES
        }
        records.append(
            {
                "instance": label,
                "topology": topology_id,
                "programs": num_programs,
                "classic": per_profile["classic"],
                "fast": per_profile["fast"],
            }
        )
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
    """Both profiles produce identical deployments within budget."""
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
        "Solver profiles on the Exp#3 family (nodes per deployment; "
        "fast runs HiGHS on Optimal)",
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
