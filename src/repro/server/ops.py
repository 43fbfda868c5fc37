"""Request -> document operations shared by the CLI and the server.

Every control-plane operation (``deploy``, ``plan_diff``,
``simulate``, ``churn_run``, ``suite_run``) is a pure function from a
JSON-able
params dict to a JSON-able result document.  The one-shot CLI commands
and the long-lived server sessions both call *these* functions, which
is what makes the server/CLI differential structural rather than
hopeful: identical params reach identical code, so the deterministic
portion of the result is byte-identical however the request arrived.

Documents separate determinism classes explicitly:

* the **deterministic view** (:func:`deterministic_view`) — plan
  documents, summaries, scenario docs, plan-store histories — depends
  only on the params (and code version), never on wall-clock;
* timing keys (``timing``, the disruption report's convergence
  columns) ride alongside for humans and dashboards but are excluded
  from the byte contract.

Telemetry is the caller's concern: these functions ``emit`` through
:mod:`repro.telemetry` like the layers below them, so a CLI run
attaches a recorder/journal and a server session attaches its
streaming sink around the same call.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

#: Per-op parameter defaults; also the schema — unknown keys are
#: rejected so a typo'd param fails loudly instead of silently using a
#: default (the CLI can never send one, but a raw protocol client can).
DEPLOY_DEFAULTS: Dict[str, Any] = {
    "workload": "real:10",
    "topology": "linear:3",
    "seed": None,
    "mode": "heuristic",
    "epsilon2": None,
    "time_limit_s": 30.0,
    "replicate": False,
    "verify": False,
    "configs": False,
}

PLAN_DIFF_DEFAULTS: Dict[str, Any] = {
    "old": None,
    "new": None,
}

SIMULATE_DEFAULTS: Dict[str, Any] = {
    "workload": "real:10",
    "topology": "linear:3",
    "seed": None,
    "mode": "heuristic",
    "time_limit_s": 30.0,
    "engine": None,
    "load": None,
    "overhead": None,
    "flows": 0,
    "trace_seed": 11,
    "payload": 1024,
    "message_bytes": 1_000_000,
}

SUITE_RUN_DEFAULTS: Dict[str, Any] = {
    "name": None,  # shipped spec name (repro.suite.registry)
    "spec": None,  # inline repro.suite/v1 document
    "workers": 1,
}

CHURN_DEFAULTS: Dict[str, Any] = {
    "workload": "real:10",
    "topology": "wan:16:24",
    "seed": None,
    "events": 8,
    "scenario": None,  # inline scenario doc: replay instead of generate
    "replan_budget_s": None,
    "max_retries": 2,
    "debounce_s": 0.0,
    "incremental": False,
    "max_blast_fraction": 0.3,
    "engine": None,
    "load": None,
}


class OpError(ValueError):
    """Bad params or an op-level failure; maps to ``invalid_params``."""


def resolve_params(
    params: Optional[Mapping[str, Any]], defaults: Mapping[str, Any]
) -> Dict[str, Any]:
    """Defaults merged under ``params``, with unknown keys rejected."""
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise OpError(
            f"unknown params: {', '.join(unknown)}; "
            f"supported: {', '.join(sorted(defaults))}"
        )
    resolved = dict(defaults)
    resolved.update(params)
    return resolved


def _traffic_engine(p: Mapping[str, Any]):
    """The engine that resolved ``engine``/``load`` params select.

    :func:`repro.simulation.engine.get_engine` makes the choice; a bad
    name or a load the engine cannot take is an :class:`OpError`, so
    the op fails before it deploys or replays anything.
    """
    from repro.simulation.engine import get_engine

    try:
        return get_engine(p["engine"], p["load"])
    except (TypeError, ValueError) as exc:
        raise OpError(str(exc)) from exc


# ----------------------------------------------------------------------
# deploy
# ----------------------------------------------------------------------
def deploy_op(params: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """One deployment: parse, solve, document.

    The cold path — exactly what ``repro deploy`` runs.  Server
    sessions call this for a session's first deploy (through the
    process pool) and :func:`deploy_doc` directly when the warm
    incremental path produced the plan in-process.
    """
    import time

    from repro.cli import parse_topology, parse_workload
    from repro.core import Hermes

    p = resolve_params(params, DEPLOY_DEFAULTS)
    try:
        programs = parse_workload(p["workload"], seed=p["seed"])
        network = parse_topology(p["topology"], seed=p["seed"])
    except (ValueError, KeyError) as exc:
        raise OpError(str(exc)) from exc
    hermes = Hermes(
        mode=p["mode"],
        epsilon2=p["epsilon2"],
        time_limit_s=p["time_limit_s"],
        replicate_hubs="auto" if p["replicate"] else False,
    )
    start = time.perf_counter()
    result = hermes.deploy(programs, network)
    wall_s = time.perf_counter() - start
    return deploy_doc(
        result.plan,
        num_programs=len(programs),
        params=p,
        solve_time_s=result.solve_time_s,
        wall_s=wall_s,
        timed_out=result.timed_out,
    )


def deploy_doc(
    plan,
    num_programs: int,
    params: Mapping[str, Any],
    solve_time_s: float,
    wall_s: float,
    timed_out: bool = False,
) -> Dict[str, Any]:
    """The deploy result document for an already-produced plan.

    ``timing.timed_out`` is :attr:`HermesResult.timed_out`: the
    optimal-mode solve stopped on its limit, so the plan is the best
    found (possibly the greedy plan), not a proven optimum.  Like the
    rest of ``timing`` it depends on the clock, so
    :func:`deterministic_view` leaves it out.
    """
    from repro.core import CoordinationAnalysis
    from repro.plan.serialize import plan_document

    channels = CoordinationAnalysis(plan)
    document, fingerprint = plan_document(plan)
    doc: Dict[str, Any] = {
        "plan": document,
        "fingerprint": fingerprint,
        "summary": {
            "num_mats": len(plan.placements),
            "num_programs": num_programs,
            "occupied_switches": plan.num_occupied_switches(),
            "network": plan.network.name,
            "a_max_bytes": plan.max_metadata_bytes(),
            "channels": [
                {"src": u, "dst": v, "bytes": channel.declared_bytes}
                for (u, v), channel in sorted(channels.channels.items())
            ],
        },
        "timing": {
            "solve_time_s": solve_time_s,
            "wall_s": wall_s,
            "timed_out": timed_out,
        },
    }
    if params.get("verify"):
        from repro.core.verification import verify_dataflow

        report = verify_dataflow(plan)
        doc["verification"] = {
            "reads_checked": report.reads_checked,
            "rounds": report.rounds,
        }
    if params.get("configs"):
        from repro.core import Backend

        configs = Backend().compile(plan)
        doc["configs"] = {k: v.to_dict() for k, v in configs.items()}
    return doc


# ----------------------------------------------------------------------
# plan_diff
# ----------------------------------------------------------------------
def plan_diff_op(
    params: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Structural diff of two plan documents."""
    from repro.plan import diff_plans
    from repro.plan.serialize import PlanSchemaError, plan_from_dict

    p = resolve_params(params, PLAN_DIFF_DEFAULTS)
    if not isinstance(p["old"], dict) or not isinstance(p["new"], dict):
        raise OpError(
            "plan_diff needs 'old' and 'new' plan documents "
            "(repro.plan/v1 objects)"
        )
    try:
        old = plan_from_dict(p["old"])
        new = plan_from_dict(p["new"])
    except (PlanSchemaError, KeyError, ValueError) as exc:
        raise OpError(f"cannot load plan document: {exc}") from exc
    diff = diff_plans(old, new)
    return {
        "summary": diff.summary(),
        "diff": diff.to_dict(),
        "is_empty": diff.is_empty,
    }


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
def simulate_op(
    params: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Traffic evaluation through the spec + engine pipeline.

    Mirrors ``repro simulate``: with ``overhead`` the scalar
    uniform-path model, otherwise deploy-then-evaluate on the plan's
    real routed pairs; ``flows`` swaps in a seeded heavy-tailed trace.
    """
    from repro.simulation.spec import (
        E2E_HOPS,
        SimulationSpec,
        TrafficModel,
    )
    from repro.simulation.traces import TraceConfig, generate_trace

    p = resolve_params(params, SIMULATE_DEFAULTS)
    engine = _traffic_engine(p)
    trace = (
        generate_trace(
            p["trace_seed"], TraceConfig(num_flows=p["flows"])
        )
        if p["flows"]
        else None
    )
    traffic = TrafficModel(
        packet_payload_bytes=p["payload"],
        message_bytes=p["message_bytes"],
    )
    doc: Dict[str, Any] = {}
    if p["overhead"] is not None:
        if trace is None:
            spec = SimulationSpec.uniform(
                p["overhead"],
                packet_payload_bytes=p["payload"],
                message_bytes=p["message_bytes"],
            )
        else:
            from repro.simulation.netsim import uniform_path

            spec = SimulationSpec.from_trace(
                trace,
                uniform_path(E2E_HOPS),
                p["overhead"],
                packet_payload_bytes=p["payload"],
            )
    else:
        from repro.cli import parse_topology, parse_workload
        from repro.core import Hermes

        try:
            programs = parse_workload(p["workload"], seed=p["seed"])
            network = parse_topology(p["topology"], seed=p["seed"])
        except (ValueError, KeyError) as exc:
            raise OpError(str(exc)) from exc
        hermes = Hermes(mode=p["mode"], time_limit_s=p["time_limit_s"])
        plan = hermes.deploy(programs, network).plan
        doc["deploy"] = {
            "fingerprint": plan.fingerprint(),
            "num_mats": len(plan.placements),
            "occupied_switches": plan.num_occupied_switches(),
            "a_max_bytes": plan.max_metadata_bytes(),
        }
        spec = SimulationSpec.from_plan(
            plan, network, traffic=traffic, trace=trace
        )
    result = engine.evaluate(spec)
    doc["summary"] = simulation_summary(spec, result)
    doc["timing"] = {"wall_ms": result.wall_s * 1e3}
    return doc


def simulation_summary(spec, result) -> Dict[str, Any]:
    """The deterministic summary of one engine evaluation.

    Exactly the document ``repro simulate --json`` reports, minus the
    wall-clock key (which travels in the result's ``timing`` section).
    """
    summary: Dict[str, Any] = {
        "engine": result.engine,
        "source": spec.source,
        "flows": result.num_flows,
        "paths": len(spec.paths),
        "mean_fct_us": result.mean_fct_us,
        "p99_fct_us": result.p99_fct_us,
        "mean_slowdown": result.mean_slowdown,
        "worst_fct_ratio": result.fct_ratio,
        "worst_goodput_ratio": result.goodput_ratio,
        "total_wire_mb": result.total_wire_bytes / 1e6,
    }
    if result.wait_us is not None:
        summary["load"] = result.load
        summary["mean_wait_us"] = result.mean_wait_us
        summary["max_wait_us"] = result.max_wait_us
        summary["contended_fraction"] = result.contended_fraction
    return summary


# ----------------------------------------------------------------------
# churn_run
# ----------------------------------------------------------------------
def run_churn(params: Optional[Mapping[str, Any]] = None) -> Tuple[
    Any, Any, Any
]:
    """Generate-or-load a scenario and reconcile through it.

    Returns ``(scenario, result, report)`` — the live objects, for
    callers (the local CLI) that need the plan store or controller;
    :func:`churn_op` wraps them into the wire document.
    """
    from repro.cli import _pin_spec_seed, parse_topology, parse_workload
    from repro.runtime import (
        Reconciler,
        ReconcilerPolicy,
        Scenario,
        ScenarioError,
        generate_scenario,
        seed_rules,
    )

    p = resolve_params(params, CHURN_DEFAULTS)
    engine = _traffic_engine(p)
    if p["scenario"] is not None:
        try:
            scenario = Scenario.from_dict(p["scenario"])
        except (ScenarioError, KeyError, ValueError) as exc:
            raise OpError(f"cannot load scenario: {exc}") from exc
        try:
            network = parse_topology(scenario.topology_spec, seed=p["seed"])
            programs = parse_workload(
                scenario.workload_spec, seed=p["seed"]
            )
        except (ValueError, KeyError) as exc:
            raise OpError(str(exc)) from exc
    else:
        workload_spec = _pin_spec_seed(p["workload"], p["seed"], "synthetic")
        topology_spec = _pin_spec_seed(p["topology"], p["seed"], "wan")
        try:
            network = parse_topology(topology_spec)
            programs = parse_workload(workload_spec)
        except (ValueError, KeyError) as exc:
            raise OpError(str(exc)) from exc
        scenario = generate_scenario(
            network,
            num_events=p["events"],
            seed=p["seed"] if p["seed"] is not None else 0,
            workload_spec=workload_spec,
            topology_spec=topology_spec,
        )
    policy = ReconcilerPolicy(
        replan_budget_s=p["replan_budget_s"],
        max_retries=p["max_retries"],
        debounce_s=p["debounce_s"],
        incremental=p["incremental"],
        max_blast_fraction=p["max_blast_fraction"],
    )
    reconciler = Reconciler(
        programs, network, policy=policy, prepare_fn=seed_rules
    )
    result = reconciler.run(scenario)
    report = result.report(engine=engine)
    return scenario, result, report


def churn_doc(scenario, result, report) -> Dict[str, Any]:
    """The churn result document: scenario + history + report."""
    return {
        "scenario": scenario.to_dict(),
        "history": result.store.to_dict(),
        "report": report.to_dict(),
        "converged": all(o.converged for o in result.outcomes),
    }


def churn_op(params: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    scenario, result, report = run_churn(params)
    return churn_doc(scenario, result, report)


# ----------------------------------------------------------------------
# suite_run
# ----------------------------------------------------------------------
def suite_op(params: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """Run one declarative suite end to end.

    Exactly what ``repro suite run`` does in-process: resolve a
    shipped spec by ``name`` or validate an inline ``spec`` document,
    compile it through :func:`repro.suite.compiler.run_suite` and wrap
    the :class:`~repro.suite.report.SuiteReport` document.  Per-cell
    progress reaches subscribed clients through the same telemetry
    stream as every other op (``suite.start``/``suite.cell``/
    ``suite.done``).
    """
    from repro.suite import SuiteSpec, SuiteSpecError, load_spec, run_suite

    p = resolve_params(params, SUITE_RUN_DEFAULTS)
    if (p["name"] is None) == (p["spec"] is None):
        raise OpError("suite_run needs exactly one of 'name' or 'spec'")
    if p["spec"] is not None and not isinstance(p["spec"], dict):
        raise OpError("'spec' must be a repro.suite/v1 document object")
    try:
        if p["spec"] is not None:
            spec = SuiteSpec.from_dict(p["spec"])
        else:
            spec = load_spec(p["name"])
    except (SuiteSpecError, ValueError) as exc:
        raise OpError(str(exc)) from exc
    runner = None
    workers = p["workers"] or 1
    if workers > 1:
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(workers=workers)
    report = run_suite(spec, runner=runner)
    return {"report": report.to_dict()}


# ----------------------------------------------------------------------
# The differential contract
# ----------------------------------------------------------------------
#: Handlers by op name, as the server dispatches them.
OP_FUNCTIONS = {
    "deploy": deploy_op,
    "plan_diff": plan_diff_op,
    "simulate": simulate_op,
    "churn_run": churn_op,
    "suite_run": suite_op,
}


def deterministic_view(op: str, doc: Mapping[str, Any]) -> Dict[str, Any]:
    """The byte-comparable portion of an op's result document.

    This is the server/CLI differential contract: for equal params,
    ``canonical_dumps(deterministic_view(op, doc))`` must be equal
    whether ``doc`` came from a warm server session, a cold server
    session, or a one-shot CLI/harness run.  Wall-clock material —
    ``timing`` sections and the disruption report (whose convergence
    columns are measured latencies) — is excluded by construction, as
    is the per-session ``session`` envelope (a warm deploy reports a
    different source/version than a cold one *by design* while
    producing the same plan bytes).
    """
    doc = dict(doc)
    doc.pop("session", None)
    if op == "simulate":
        return {"summary": doc["summary"], **(
            {"deploy": doc["deploy"]} if "deploy" in doc else {}
        )}
    if op == "churn_run":
        return {
            "scenario": doc["scenario"],
            "history": doc["history"],
            "converged": doc["converged"],
        }
    if op == "suite_run":
        # Cache hits depend on run history, not params, and the
        # rendered tables embed measured execution-time columns
        # (Fig. 5(b)/7/9(b)): both are excluded, like ``timing``.
        # Cell records carry only deterministic_fields by construction.
        report = {
            k: v for k, v in doc["report"].items() if k != "tables"
        }
        report["cells"] = [
            {k: v for k, v in cell.items() if k != "cached"}
            for cell in report["cells"]
        ]
        report["meta"] = {
            k: v
            for k, v in report.get("meta", {}).items()
            if k != "cached_cells"
        }
        return {"report": report}
    doc.pop("timing", None)
    return doc
