"""Command-line interface.

Run any paper experiment or an ad-hoc deployment without writing code:

    python -m repro fig2
    python -m repro exp1
    python -m repro exp2 --topologies 1 5 10 --programs 20
    python -m repro exp2 --workers 4 --cache-dir .repro-cache \
        --journal exp2.jsonl
    python -m repro exp5 --programs 10 30 50
    python -m repro exp6
    python -m repro exp7 --seeds 0 1 2 --events 8
    python -m repro deploy --workload real:10 --topology zoo:3 \
        --mode heuristic --verify
    python -m repro churn run --workload real:10 --topology wan:16:24 \
        --seed 3 --events 8 --scenario-out churn.json
    python -m repro churn replay churn.json
    python -m repro simulate --workload real:10 --topology zoo:3 \
        --flows 100000 --engine batch
    python -m repro simulate --overhead 48 --engine exact
    python -m repro simulate --overhead 48 --flows 5000 \
        --engine contention --load 0.9
    python -m repro serve --socket /tmp/repro.sock --workers 4
    python -m repro deploy --workload real:10 --topology wan:16:24 \
        --connect /tmp/repro.sock
    python -m repro suite list
    python -m repro suite run exp2 --workers 4 --out exp2-report.json
    python -m repro suite run my-sweep.yaml --connect /tmp/repro.sock

Workload specs: ``real:N`` (switch.p4 slices), ``sketches:N``,
``synthetic:N[:seed]`` or combinations joined with ``+``.  Topology
specs: ``zoo:ID`` (Table III), ``linear:N``, ``fattree:K``,
``wan:NODES:EDGES[:seed]``.

Every experiment command takes ``--workers N`` (process-pool fan-out
of the framework x problem cells; results identical to serial),
``--cache-dir PATH`` (content-addressed result cache: repeated sweep
points and re-runs skip solving) and ``--journal PATH`` (JSONL
telemetry of runner, deploy and branch & bound solver events).

``repro serve`` keeps the control plane resident; ``--connect ADDR``
on ``deploy``, ``simulate``, ``churn run|replay`` and ``plan diff``
routes the op through the daemon instead of solving in-process.
Repeat deploys on one connection take the warm incremental path, and
every result is byte-identical to the local run (see
:mod:`repro.server.ops`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Sequence

from repro.dataplane.program import Program
from repro.network.topology import Network


def parse_workload(spec: str, seed: int = None) -> List[Program]:
    """Parse a ``+``-joined workload spec into programs.

    ``seed`` (the CLI ``--seed`` flag) overrides the default synthetic
    generator seed; a seed written *inside* the spec
    (``synthetic:N:SEED``) still wins over it.
    """
    from repro.workloads import (
        real_programs,
        sketch_programs,
        synthetic_programs,
    )

    programs: List[Program] = []
    for part in spec.split("+"):
        fields = part.strip().split(":")
        kind = fields[0]
        if kind == "real":
            programs += real_programs(int(fields[1]))
        elif kind == "sketches":
            programs += sketch_programs(int(fields[1]))
        elif kind == "synthetic":
            count = int(fields[1])
            if len(fields) > 2:
                part_seed = int(fields[2])
            elif seed is not None:
                part_seed = seed
            else:
                part_seed = 7
            programs += synthetic_programs(count, seed=part_seed)
        else:
            raise ValueError(f"unknown workload kind {kind!r} in {spec!r}")
    return programs


def parse_topology(spec: str, seed: int = None) -> Network:
    """Parse a topology spec into a network.

    Accepts the generator grammar (``zoo:ID``, ``linear:N``,
    ``fattree:K``, ``wan:NODES:EDGES[:SEED]``) and every named preset
    of :mod:`repro.network.catalog` (``testbed``, ``topozoo-3``, ...).
    ``seed`` (the CLI ``--seed`` flag) seeds the random WAN generator
    unless the spec pins its own (``wan:NODES:EDGES:SEED``).
    """
    from repro.network.catalog import resolve

    return resolve(spec, seed=seed)


def _run_op(args: argparse.Namespace, op: str, params: dict, on_event=None):
    """Run one control-plane op locally or via ``--connect``.

    This is the CLI half of the server/CLI differential: the local
    path calls exactly the op function a server session dispatches, so
    the deterministic view of the document is byte-identical either
    way.  With ``on_event`` set in connect mode, the client subscribes
    first and streams the server's telemetry through the callback.
    """
    connect = getattr(args, "connect", None)
    if connect:
        from repro.server.client import ReproClient

        with ReproClient.connect(connect) as client:
            if on_event is not None:
                client.subscribe()
            return client.request(op, params, on_event=on_event)
    from repro.server.ops import OP_FUNCTIONS

    return OP_FUNCTIONS[op](params)


def _cmd_deploy(args: argparse.Namespace) -> int:
    from repro.server.client import ServerError
    from repro.server.ops import OpError

    params = {
        "workload": args.workload,
        "topology": args.topology,
        "seed": args.seed,
        "mode": args.mode,
        "epsilon2": args.epsilon2,
        "time_limit_s": args.time_limit,
        "replicate": args.replicate,
        "verify": args.verify,
        "configs": args.configs,
    }
    try:
        doc = _run_op(args, "deploy", params)
    except (OpError, ServerError, ConnectionError) as exc:
        print(f"error: {exc}")
        return 1
    summary = doc["summary"]
    print(
        f"deployed {summary['num_mats']} MATs from "
        f"{summary['num_programs']} programs on "
        f"{summary['occupied_switches']} switches ({summary['network']})"
    )
    print(
        f"per-packet byte overhead (A_max): {summary['a_max_bytes']} B"
    )
    if doc["timing"].get("timed_out"):
        print(
            "not proven optimal: the solver stopped on its limit or "
            "failed; this is the best plan found"
        )
    print(f"placement time: {doc['timing']['solve_time_s'] * 1000:.1f} ms")
    for channel in summary["channels"]:
        print(
            f"  channel {channel['src']} -> {channel['dst']}: "
            f"{channel['bytes']} B"
        )
    if args.explain or args.diagram or args.out:
        from repro.plan import plan_from_dict

        plan = plan_from_dict(doc["plan"])
    if args.explain:
        from repro.core.explain import explain_overhead

        print()
        print(explain_overhead(plan).render())
    if args.diagram:
        from repro.experiments.visualize import render_plan

        print()
        print(render_plan(plan))
    if args.verify:
        verification = doc["verification"]
        print(
            f"dataflow verified: {verification['reads_checked']} reads, "
            f"{verification['rounds']} traversal round(s)"
        )
    if args.configs:
        import json

        print(json.dumps(doc["configs"], indent=2))
    if args.out:
        from repro.plan import write_plan

        write_plan(plan, args.out)
        print(
            f"wrote plan to {args.out} "
            f"(fingerprint {doc['fingerprint'][:12]})"
        )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """The ``plan export|validate|diff`` artifact subcommands."""
    from repro.plan import (
        DeploymentError,
        PlanSchemaError,
        read_plan,
        write_plan,
    )

    if args.plan_command == "export":
        from repro.core import Hermes

        programs = parse_workload(args.workload)
        network = parse_topology(args.topology)
        hermes = Hermes(mode=args.mode, time_limit_s=args.time_limit)
        plan = hermes.deploy(programs, network).plan
        write_plan(plan, args.out)
        print(
            f"wrote plan ({len(plan.placements)} MATs, "
            f"A_max={plan.max_metadata_bytes()} B) to {args.out} "
            f"(fingerprint {plan.fingerprint()[:12]})"
        )
        return 0

    if args.plan_command == "validate":
        try:
            plan = read_plan(args.plan)
        except (PlanSchemaError, OSError) as exc:
            print(f"cannot load plan: {exc}")
            return 1
        try:
            plan.validate()
        except DeploymentError as exc:
            print(f"INVALID: {exc}")
            return 1
        print(
            f"valid: {len(plan.placements)} MATs on "
            f"{plan.num_occupied_switches()} switches, "
            f"A_max={plan.max_metadata_bytes()} B, "
            f"t_e2e={plan.end_to_end_latency_us():.1f} us"
        )
        return 0

    if args.plan_command == "diff":
        import json

        from repro.server.client import ServerError
        from repro.server.ops import OpError

        try:
            old = read_plan(args.old)
            new = read_plan(args.new)
        except (PlanSchemaError, OSError) as exc:
            print(f"cannot load plan: {exc}")
            return 2
        try:
            doc = _run_op(
                args,
                "plan_diff",
                {"old": old.to_dict(), "new": new.to_dict()},
            )
        except (OpError, ServerError, ConnectionError) as exc:
            print(f"error: {exc}")
            return 2
        print(doc["summary"])
        if args.json_output:
            print(json.dumps(doc["diff"], indent=2, sort_keys=True))
        if args.exit_code:
            return 0 if doc["is_empty"] else 1
        return 0

    raise AssertionError(args.plan_command)  # pragma: no cover


def _cmd_simulate(args: argparse.Namespace) -> int:
    """The ``simulate`` subcommand: spec + engine, end to end.

    Without ``--overhead`` a deployment is computed first (Hermes, like
    ``deploy``) and the spec is derived from the resulting plan's real
    routed pairs; with ``--overhead N`` the classic scalar uniform-path
    model is used directly.  ``--flows N`` swaps the single-message
    model for a seeded heavy-tailed trace of N flows.
    """
    import json

    from repro.experiments.reporting import Table
    from repro.server.client import ServerError
    from repro.server.ops import OpError
    from repro.telemetry import Recorder, attached

    params = {
        "workload": args.workload,
        "topology": args.topology,
        "seed": args.seed,
        "mode": args.mode,
        "time_limit_s": args.time_limit,
        "engine": args.engine,
        "load": args.load,
        "overhead": args.overhead,
        "flows": args.flows,
        "trace_seed": args.trace_seed,
        "payload": args.payload,
        "message_bytes": args.message_bytes,
    }
    events = []
    try:
        if getattr(args, "connect", None):
            doc = _run_op(
                args,
                "simulate",
                params,
                on_event=(
                    (lambda frame: events.append(frame["data"]))
                    if args.journal
                    else None
                ),
            )
        else:
            recorder = Recorder()
            with attached(recorder):
                doc = _run_op(args, "simulate", params)
            events = recorder.events
    except (OpError, ServerError, ConnectionError) as exc:
        print(exc)
        return 1
    if "deploy" in doc:
        deployed = doc["deploy"]
        print(
            f"deployed {deployed['num_mats']} MATs on "
            f"{deployed['occupied_switches']} switches "
            f"(A_max {deployed['a_max_bytes']} B)"
        )
    if args.journal:
        from repro.experiments.runner.telemetry import JournalWriter

        with JournalWriter(args.journal) as journal:
            for event in events:
                journal.write(event)

    summary = dict(doc["summary"])
    summary["wall_ms"] = doc["timing"]["wall_ms"]
    table = Table(
        title=(
            f"simulate: {summary['source']} via "
            f"{summary['engine']} engine"
        ),
        headers=["metric", "value"],
    )
    table.add_row(["flows", summary["flows"]])
    table.add_row(["paths", summary["paths"]])
    table.add_row(["mean FCT (us)", f"{summary['mean_fct_us']:.1f}"])
    table.add_row(["p99 FCT (us)", f"{summary['p99_fct_us']:.1f}"])
    table.add_row(["mean slowdown", f"{summary['mean_slowdown']:.4f}"])
    table.add_row(
        ["worst FCT ratio", f"{summary['worst_fct_ratio']:.4f}"]
    )
    table.add_row(
        ["worst goodput ratio", f"{summary['worst_goodput_ratio']:.4f}"]
    )
    table.add_row(
        ["wire bytes (MB)", f"{summary['total_wire_mb']:.2f}"]
    )
    if "mean_wait_us" in summary:
        table.add_row(["offered load", f"{summary['load']:.2f}"])
        table.add_row(
            ["mean wait (us)", f"{summary['mean_wait_us']:.2f}"]
        )
        table.add_row(
            ["max wait (us)", f"{summary['max_wait_us']:.2f}"]
        )
        table.add_row(
            ["contended flows", f"{summary['contended_fraction']:.0%}"]
        )
    table.add_row(["wall (ms)", f"{summary['wall_ms']:.1f}"])
    print(table.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote summary to {args.json}")
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    """The ``churn run|replay|report`` lifecycle subcommands."""
    import json

    from repro.runtime import (
        DisruptionReport,
        ScenarioError,
        read_scenario,
        write_scenario,
    )

    if args.churn_command == "report":
        try:
            with open(args.report) as fh:
                report = DisruptionReport.from_dict(json.load(fh))
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load report: {exc}")
            return 1
        # Attach (or recompute, when --engine/--load is explicit) the
        # FCT inflation columns over the saved A_max trajectory.
        if args.engine or args.load is not None or not report.has_traffic:
            report.attach_traffic(
                engine=args.engine or "analytic", load=args.load
            )
        print(report.render())
        return 0

    from repro.server.client import ServerError
    from repro.server.ops import OpError

    params = {
        "seed": args.seed,
        "replan_budget_s": args.replan_budget,
        "max_retries": args.max_retries,
        "debounce_s": args.debounce,
        "incremental": args.incremental,
        "max_blast_fraction": args.max_blast_fraction,
        "engine": args.engine,
        "load": args.load,
    }
    if args.churn_command == "run":
        params.update(
            workload=args.workload,
            topology=args.topology,
            events=args.events,
        )
    else:  # replay: the scenario file is self-contained
        try:
            params["scenario"] = read_scenario(args.scenario).to_dict()
        except (ScenarioError, OSError) as exc:
            print(f"cannot load scenario: {exc}")
            return 1

    connected = bool(getattr(args, "connect", None))
    if connected and args.plans_dir:
        print("--plans-dir needs the local plan store; drop --connect")
        return 2
    result = None
    try:
        if connected:
            doc = _run_op(args, "churn_run", params)
        else:
            from repro.server.ops import churn_doc, run_churn

            scenario, result, live_report = run_churn(params)
            doc = churn_doc(scenario, result, live_report)
    except (OpError, ServerError, ConnectionError) as exc:
        print(f"error: {exc}")
        return 1

    if args.churn_command == "run" and args.scenario_out:
        from repro.runtime import Scenario

        write_scenario(
            Scenario.from_dict(doc["scenario"]), args.scenario_out
        )
        print(f"wrote scenario to {args.scenario_out}")
    report = DisruptionReport.from_dict(doc["report"])
    print(report.render())
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(doc["report"], fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote report to {args.report_out}")
    if args.plans_dir and result is not None:
        paths = result.store.write_dir(args.plans_dir)
        print(
            f"wrote {len(paths) - 1} plan versions + history.json "
            f"to {args.plans_dir}"
        )
    return 1 if args.strict and not doc["converged"] else 0


def _suite_footer(report) -> str:
    """The one-line summary printed after a suite's tables."""
    return (
        f"suite {report.name} ({report.kind}): "
        f"{report.num_cells} cells, {report.cached_cells} cached"
    )


def _cmd_suite(args: argparse.Namespace) -> int:
    """The ``suite run|list|validate|report`` subcommands.

    ``run`` prints the aggregated tables exactly as the legacy
    experiment commands did (the summary footer comes after a blank
    line, so the tables region stays byte-identical); ``--connect``
    routes the compile through a running daemon and streams per-cell
    telemetry to stderr.
    """
    from repro.suite import SuiteSpecError, cell_plan, load_spec

    if args.suite_command == "list":
        from repro.experiments.reporting import Table
        from repro.suite import shipped_specs

        table = Table(
            "shipped suite specs (repro suite run NAME)",
            ["name", "kind", "cells", "title"],
        )
        for name, spec in shipped_specs().items():
            table.add_row(
                [name, spec.kind, len(cell_plan(spec)), spec.title or name]
            )
        print(table.render())
        return 0

    if args.suite_command == "report":
        from repro.suite import SuiteReport

        try:
            report = SuiteReport.load(args.report)
        except (OSError, ValueError) as exc:
            print(f"cannot load report: {exc}")
            return 1
        print(report.render())
        print()
        print(_suite_footer(report))
        return 0

    try:
        spec = load_spec(args.spec)
    except (SuiteSpecError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 1

    if args.suite_command == "validate":
        coords = cell_plan(spec)
        print(
            f"valid: {spec.name} ({spec.kind}), {len(coords)} cells"
        )
        for coord in coords:
            print(
                "  " + " ".join(f"{k}={v}" for k, v in coord.items())
            )
        return 0

    # run
    from repro.server.client import ServerError
    from repro.server.ops import OpError
    from repro.suite import SuiteReport, run_suite

    if getattr(args, "connect", None):

        def on_event(frame):
            data = frame.get("data", {})
            kind = data.get("kind", "")
            if not kind.startswith("suite."):
                return
            detail = " ".join(
                f"{k}={v}"
                for k, v in sorted(data.items())
                if k != "kind"
            )
            print(f"[{kind}] {detail}", file=sys.stderr)

        params = {"spec": spec.to_dict(), "workers": args.workers}
        try:
            doc = _run_op(args, "suite_run", params, on_event=on_event)
        except (OpError, ServerError, ConnectionError) as exc:
            print(f"error: {exc}")
            return 1
        report = SuiteReport.from_dict(doc["report"])
    else:
        report = run_suite(spec, runner=_make_runner(args))
    print(report.render())
    print()
    print(_suite_footer(report))
    if args.out:
        report.save(args.out)
        print(f"wrote report to {args.out}")
    return 0


def _pin_spec_seed(spec: str, seed: int, kind: str) -> str:
    """Append an explicit ``--seed`` to seedable spec parts.

    ``synthetic:N`` becomes ``synthetic:N:SEED`` and ``wan:N:E``
    becomes ``wan:N:E:SEED``; parts that already pin a seed (or take
    none) pass through unchanged.
    """
    if seed is None:
        return spec
    arity = {"synthetic": 2, "wan": 3}[kind]
    parts = []
    for part in spec.split("+"):
        fields = part.strip().split(":")
        if fields[0] == kind and len(fields) == arity:
            part = f"{part.strip()}:{seed}"
        parts.append(part)
    return "+".join(parts)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived control-plane daemon (``repro serve``)."""
    from repro.server.service import ReproServer, serve_until_complete

    try:
        server = ReproServer(
            host=args.host,
            port=args.port,
            socket_path=args.socket,
            workers=args.workers,
            cache_dir=args.cache_dir,
            state_dir=args.state_dir,
            journal=args.journal,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    serve_until_complete(server)
    return 0


def _make_runner(args: argparse.Namespace):
    """Build an ExperimentRunner from ``--workers/--cache-dir/--journal``.

    Returns None when every flag is at its default, keeping the plain
    in-process serial path for unadorned invocations.
    """
    workers = getattr(args, "workers", 1) or 1
    cache_dir = getattr(args, "cache_dir", None)
    journal = getattr(args, "journal", None)
    if workers == 1 and not cache_dir and not journal:
        return None
    from repro.experiments.runner import ExperimentRunner

    return ExperimentRunner(
        workers=workers, cache_dir=cache_dir, journal=journal
    )


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.command
    runner = _make_runner(args)
    if name == "fig2":
        from repro.experiments import fig2_motivation

        fig2_motivation.main(runner=runner)
    elif name == "exp1":
        from repro.experiments import exp1_testbed

        exp1_testbed.main(exp1_testbed.run(runner=runner))
    elif name in ("exp2", "exp3", "exp4"):
        from repro.experiments import exp2_overhead, exp3_exectime, exp4_endtoend

        points = exp2_overhead.run(
            topology_ids=tuple(args.topologies),
            num_programs=args.programs,
            ilp_time_limit_s=args.time_limit,
            runner=runner,
        )
        {
            "exp2": exp2_overhead.main,
            "exp3": exp3_exectime.main,
            "exp4": exp4_endtoend.main,
        }[name](points)
        _maybe_export(
            args,
            [
                {"topology": p.topology_id, **_record_dict(p.record)}
                for p in points
            ],
        )
    elif name == "exp5":
        from repro.experiments import exp5_scalability

        points = exp5_scalability.run(
            program_counts=tuple(args.programs_sweep),
            ilp_time_limit_s=args.time_limit,
            runner=runner,
        )
        exp5_scalability.main(points)
        _maybe_export(
            args,
            [
                {"num_programs": p.num_programs, **_record_dict(p.record)}
                for p in points
            ],
        )
    elif name == "exp6":
        from repro.experiments import exp6_resources

        exp6_resources.main(runner=runner)
    elif name == "exp7":
        from repro.experiments import exp7_churn

        points = exp7_churn.run(
            seeds=tuple(args.seeds),
            num_events=args.events,
            workload_spec=args.workload,
            runner=runner,
        )
        exp7_churn.main(points)
        _maybe_export(
            args,
            [
                {
                    "seed": p.seed,
                    "topology": p.topology_spec,
                    **p.report.to_dict(),
                }
                for p in points
            ],
        )
    elif name == "report":
        _quick_report()
    else:  # pragma: no cover - argparse prevents this
        raise AssertionError(name)
    return 0


def _quick_report() -> None:
    """A five-minute, laptop-scale tour of the reproduction."""
    from repro.baselines import Ffl, Ffls, HermesHeuristic, MinStage
    from repro.experiments import exp2_overhead, exp6_resources, fig2_motivation

    print("#" * 62)
    print("# Hermes reproduction: quick report (reduced scales)")
    print("#" * 62)
    print()
    fig2_motivation.main()
    print()
    points = exp2_overhead.run(
        topology_ids=(1, 5, 10),
        num_programs=20,
        frameworks=[
            MinStage(time_limit_s=0.3),
            Ffl(),
            Ffls(),
            HermesHeuristic(),
        ],
    )
    exp2_overhead.main(points)
    print()
    exp6_resources.main()
    print()
    hermes = [p.record for p in points if p.record.framework == "Hermes"]
    worst = [
        max(
            p.record.overhead_bytes
            for p in points
            if p.topology_id == h_point
        )
        for h_point in sorted({p.topology_id for p in points})
    ]
    print(
        "headline: Hermes per-packet overhead "
        f"{[r.overhead_bytes for r in hermes]} B vs worst baseline "
        f"{worst} B across the three topologies."
    )


def _record_dict(record) -> dict:
    from dataclasses import asdict

    return asdict(record)


def _maybe_export(args: argparse.Namespace, rows: list) -> None:
    """Write structured rows to ``--json PATH`` if requested."""
    path = getattr(args, "json", None)
    if not path:
        return
    import json

    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1)
    print(f"wrote {len(rows)} rows to {path}")


def _add_engine_flag(p: argparse.ArgumentParser, default) -> None:
    """The ``--engine``/``--load`` knobs shared by simulate and churn."""
    p.add_argument(
        "--engine",
        choices=("exact", "analytic", "batch", "contention"),
        default=default,
        help=(
            "traffic evaluation engine: 'exact' per-packet DES, "
            "'analytic' closed form (default semantics), 'batch' "
            "NumPy-vectorized closed form for large traces, "
            "'contention' shared output-queue model with queueing "
            "(the only engine where flows interact; see --load)"
        ),
    )
    p.add_argument(
        "--load",
        type=float,
        default=None,
        help=(
            "offered bottleneck utilization for the contention engine "
            "(implies --engine contention when set; >1 models "
            "overload; loads <= 0.1 are provably contention-free and "
            "match the exact DES)"
        ),
    )


def _add_runner_flags(p: argparse.ArgumentParser) -> None:
    """The parallel-runner flag set shared by every experiment command."""
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for the experiment cells (1 = serial)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory (reruns skip solving)",
    )
    p.add_argument(
        "--journal",
        default=None,
        help="append JSONL runner/deploy/solver telemetry to this file",
    )


def _add_connect_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--connect",
        default=None,
        metavar="ADDR",
        help=(
            "run this op on a running 'repro serve' daemon instead of "
            "in-process: HOST:PORT or a Unix socket path (results are "
            "byte-identical either way)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hermes reproduction: experiments and deployments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("fig2", "exp1", "exp6", "report"):
        p = sub.add_parser(name, help=f"run {name}")
        if name != "report":
            _add_runner_flags(p)

    for name in ("exp2", "exp3", "exp4"):
        p = sub.add_parser(name, help=f"run {name} (shares exp2 runs)")
        p.add_argument(
            "--topologies", type=int, nargs="+", default=list(range(1, 11))
        )
        p.add_argument("--programs", type=int, default=50)
        p.add_argument("--time-limit", type=float, default=10.0)
        p.add_argument("--json", default=None, help="export rows to a JSON file")
        _add_runner_flags(p)

    p5 = sub.add_parser("exp5", help="run exp5 scalability")
    p5.add_argument(
        "--programs-sweep",
        type=int,
        nargs="+",
        default=[10, 20, 30, 40, 50],
    )
    p5.add_argument("--time-limit", type=float, default=10.0)
    p5.add_argument("--json", default=None, help="export rows to a JSON file")
    _add_runner_flags(p5)

    p7 = sub.add_parser("exp7", help="run exp7 disruption under churn")
    p7.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4]
    )
    p7.add_argument("--events", type=int, default=8)
    p7.add_argument("--workload", default="real:10")
    p7.add_argument("--json", default=None, help="export rows to a JSON file")
    _add_runner_flags(p7)

    d = sub.add_parser("deploy", help="deploy a workload with Hermes")
    d.add_argument("--workload", default="real:10")
    d.add_argument("--topology", default="linear:3")
    d.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "seed for synthetic workloads and random WAN topologies "
            "(specs with an explicit seed still win)"
        ),
    )
    d.add_argument(
        "--mode", choices=("heuristic", "optimal"), default="heuristic"
    )
    d.add_argument("--epsilon2", type=int, default=None)
    d.add_argument("--time-limit", type=float, default=30.0)
    d.add_argument("--replicate", action="store_true")
    d.add_argument("--diagram", action="store_true")
    d.add_argument("--explain", action="store_true")
    d.add_argument("--verify", action="store_true")
    d.add_argument("--configs", action="store_true")
    d.add_argument(
        "--out",
        default=None,
        help="write the canonical plan JSON document to this path",
    )
    _add_connect_flag(d)

    sv = sub.add_parser(
        "serve",
        help="run the long-lived control-plane daemon (JSON-lines RPC)",
    )
    sv.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address"
    )
    sv.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port (0 or omitted picks a free one)",
    )
    sv.add_argument(
        "--socket",
        default=None,
        help="listen on this Unix socket path instead of TCP",
    )
    sv.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "process-pool width for micro-batched cold solves "
            "(concurrent sessions' first deploys fan out together)"
        ),
    )
    sv.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed cold-solve cache directory",
    )
    sv.add_argument(
        "--state-dir",
        default=None,
        help=(
            "persist each session's plan history here; a session "
            "whose directory already exists resumes it"
        ),
    )
    sv.add_argument(
        "--journal",
        default=None,
        help="append every session telemetry event to this JSONL file",
    )

    pl = sub.add_parser(
        "plan", help="export, validate or diff plan artifacts"
    )
    plan_sub = pl.add_subparsers(dest="plan_command", required=True)

    pe = plan_sub.add_parser(
        "export", help="deploy a workload and write the plan document"
    )
    pe.add_argument("--workload", default="real:10")
    pe.add_argument("--topology", default="linear:3")
    pe.add_argument(
        "--mode", choices=("heuristic", "optimal"), default="heuristic"
    )
    pe.add_argument("--time-limit", type=float, default=30.0)
    pe.add_argument("--out", required=True, help="output plan JSON path")

    pv = plan_sub.add_parser(
        "validate",
        help="check a plan document against every paper constraint",
    )
    pv.add_argument("plan", help="plan JSON path")

    pd = plan_sub.add_parser(
        "diff", help="structural comparison of two plan documents"
    )
    pd.add_argument("old", help="old plan JSON path")
    pd.add_argument("new", help="new plan JSON path")
    pd.add_argument(
        "--json",
        dest="json_output",
        action="store_true",
        help="print the full diff document as JSON",
    )
    pd.add_argument(
        "--exit-code",
        action="store_true",
        help="exit 1 when the plans differ (0 when identical)",
    )
    _add_connect_flag(pd)

    ch = sub.add_parser(
        "churn", help="replay churn scenarios against a live deployment"
    )
    churn_sub = ch.add_subparsers(dest="churn_command", required=True)

    def _add_churn_policy_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--incremental",
            action="store_true",
            help=(
                "enable the warm replan rung: rebase or delta-solve "
                "instead of a cold replan when the workload is "
                "unchanged (escalates to the full replan on failure)"
            ),
        )
        p.add_argument(
            "--max-blast-fraction",
            type=float,
            default=0.3,
            help=(
                "escalate past the warm rung when more than this "
                "fraction of MATs is orphaned (default: 0.3)"
            ),
        )
        p.add_argument(
            "--replan-budget",
            type=float,
            default=None,
            help=(
                "wall-clock budget per replan in seconds; over budget "
                "falls back to the cheapest local patch (default: no "
                "budget, fully deterministic histories)"
            ),
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=2,
            help="replan retries on deployment errors",
        )
        p.add_argument(
            "--debounce",
            type=float,
            default=0.0,
            help=(
                "coalesce events closer than this many (virtual) "
                "seconds into one replan"
            ),
        )
        p.add_argument(
            "--report-out",
            default=None,
            help="write the disruption report JSON to this path",
        )
        p.add_argument(
            "--plans-dir",
            default=None,
            help="write every plan version + history.json to this dir",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 1 when any event batch failed to converge",
        )
        _add_engine_flag(p, default="analytic")
        _add_connect_flag(p)

    cr = churn_sub.add_parser(
        "run", help="generate a seeded scenario and reconcile through it"
    )
    cr.add_argument("--workload", default="real:10")
    cr.add_argument("--topology", default="wan:16:24")
    cr.add_argument(
        "--seed",
        type=int,
        default=None,
        help="scenario seed (also seeds synthetic workloads/WANs)",
    )
    cr.add_argument("--events", type=int, default=8)
    cr.add_argument(
        "--scenario-out",
        default=None,
        help="save the generated scenario document for later replay",
    )
    _add_churn_policy_flags(cr)

    cp = churn_sub.add_parser(
        "replay", help="replay a saved (self-contained) scenario file"
    )
    cp.add_argument("scenario", help="scenario JSON path")
    cp.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override seed for workload/topology specs without one",
    )
    _add_churn_policy_flags(cp)

    cq = churn_sub.add_parser(
        "report", help="pretty-print a saved disruption report"
    )
    cq.add_argument("report", help="report JSON path")
    _add_engine_flag(cq, default=None)

    su = sub.add_parser(
        "suite",
        help=(
            "declarative experiment suites: one spec over workloads x "
            "topologies x frameworks x churn x traffic"
        ),
    )
    suite_sub = su.add_subparsers(dest="suite_command", required=True)

    sr = suite_sub.add_parser(
        "run",
        help="compile and run a suite spec (shipped name or file path)",
    )
    sr.add_argument(
        "spec",
        help=(
            "shipped spec name (see 'suite list') or a JSON/YAML "
            "spec file path"
        ),
    )
    sr.add_argument(
        "--out",
        default=None,
        help="write the suite report JSON document to this path",
    )
    _add_runner_flags(sr)
    _add_connect_flag(sr)

    suite_sub.add_parser(
        "list", help="list the shipped suite specs"
    )

    sva = suite_sub.add_parser(
        "validate",
        help="validate a spec and print its resolved cell plan",
    )
    sva.add_argument("spec", help="shipped spec name or spec file path")

    srp = suite_sub.add_parser(
        "report", help="pretty-print a saved suite report document"
    )
    srp.add_argument("report", help="suite report JSON path")

    sim = sub.add_parser(
        "simulate",
        help="evaluate end-to-end traffic impact of a deployment",
    )
    sim.add_argument("--workload", default="real:10")
    sim.add_argument("--topology", default="linear:3")
    sim.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for synthetic workloads and random WAN topologies",
    )
    sim.add_argument(
        "--mode", choices=("heuristic", "optimal"), default="heuristic"
    )
    sim.add_argument("--time-limit", type=float, default=30.0)
    _add_engine_flag(sim, default="analytic")
    sim.add_argument(
        "--overhead",
        type=int,
        default=None,
        help=(
            "skip deployment and evaluate this scalar per-packet "
            "overhead on the uniform 5-hop path"
        ),
    )
    sim.add_argument(
        "--flows",
        type=int,
        default=0,
        help=(
            "evaluate a seeded heavy-tailed trace of this many flows "
            "(0 = one full-size message per coordinating pair)"
        ),
    )
    sim.add_argument(
        "--trace-seed", type=int, default=11, help="trace RNG seed"
    )
    sim.add_argument(
        "--payload",
        type=int,
        default=1024,
        help="nominal per-packet payload bytes",
    )
    sim.add_argument(
        "--message-bytes",
        type=int,
        default=1_000_000,
        help="message size for the non-trace flow model",
    )
    sim.add_argument(
        "--json", default=None, help="write the summary JSON here"
    )
    sim.add_argument(
        "--journal",
        default=None,
        help="append sim.* telemetry JSONL to this file",
    )
    _add_connect_flag(sim)

    return parser


def main(argv: Sequence[str] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "deploy":
        return _cmd_deploy(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "churn":
        return _cmd_churn(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "suite":
        return _cmd_suite(args)
    return _cmd_experiment(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
