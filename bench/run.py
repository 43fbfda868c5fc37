"""Run the repro benchmark and print every metric by name with its unit.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [--out FILE]

Each workload runs in a fresh worker process (``worker.py``), so import
cost lands in ``setup_s`` and ``peak_rss_mb`` is the workload's own.
Without ``--workload`` every workload of ``BENCHMARK.json`` runs in
turn.  ``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``;
runs compared with each other must use the same length.

* ``--trace 0`` (default) prints the end-to-end metrics.  ``setup_s``
  is the median over three processes: two that only set up, then the
  measured one.
* ``--trace 1`` (or bare ``--trace``) runs the workload untraced, then
  again with span wrappers installed, and prints the per-layer table
  and metrics; ``trace_overhead_pct`` compares the two runs' op
  medians.
* ``--smoke`` runs about a tenth of the ops (one set-up process).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH,
    PYTHON,
    ROOT,
    child_env,
    load_benchmark,
    median,
    require_source,
)
from spans import span_metric  # noqa: E402

#: Set-up-only processes run before the measured one.
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 80

#: Fresh-interpreter probes behind the ``interp.*`` metrics.
INTERP_PROBES = (
    ("interp.python_ms", "pass"),
    ("interp.import_cli_ms", "import repro.cli"),
    ("interp.cli_parser_ms", "import repro.cli; repro.cli.build_parser()"),
    ("interp.import_ops_ms", "import repro.server.ops"),
    ("interp.import_scipy_ms", "import scipy.optimize"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed op)."""


def spawn_worker(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    setup_only: bool = False,
) -> Dict[str, Any]:
    cmd = [
        PYTHON, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds),
    ]
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    cmd += ["--setup-only"] if setup_only else []
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran over {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def interp_probes() -> Dict[str, float]:
    values = {}
    for name, code in INTERP_PROBES:
        start = time.monotonic()
        subprocess.run(
            [PYTHON, "-c", code], cwd=ROOT, env=child_env(), check=True
        )
        values[name] = (time.monotonic() - start) * 1e3
    return values


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": median(setups),
        "op_p50_ref": run["p50_ref"],
        "op_tail_ref": run["tail_ref"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(
    traced: Dict[str, Any], untraced: Dict[str, Any], interp: Dict[str, float]
) -> Dict[str, float]:
    """Per-op layer numbers of the traced run (see README.md)."""
    ops = max(traced["attempted"], 1)
    spans = traced["spans"]
    counts = traced["counts_traced"]
    runs = traced["counts"]

    def calls(name: str) -> float:
        return spans.get(name, [0])[0]

    values: Dict[str, float] = dict(interp)
    values["wall.op_p50_ms"] = untraced["wall_p50_ms"]
    values["wall.op_tail_ms"] = untraced["wall_tail_ms"]
    values["wall.reference_ms"] = untraced["reference_ms"]
    self_s = 0.0
    for name, (_calls, span_self_s, _total) in spans.items():
        metric = span_metric(name)
        values[metric] = values.get(metric, 0.0) + span_self_s * 1e3 / ops
        self_s += span_self_s
    for name in ("verify.reads_checked", "plan.doc_bytes", "milp.nodes"):
        values[name] = counts.get(name, 0) / ops
    analyses = calls("analyzer.analyze")
    for name in ("analyzer.tdg_nodes", "analyzer.tdg_edges"):
        values[name] = counts.get(name, 0) / analyses if analyses else 0.0
    queries = calls("paths.query")
    computed = calls("paths.query/compute")
    values["paths.queries"] = queries / ops
    values["paths.computed"] = computed / ops
    values["paths.hit_ratio"] = 1 - computed / queries if queries else 0.0
    values["milp.lp_count"] = calls("milp.lp") / ops
    values["milp.time_limit_hits"] = counts.get("milp.time_limit_hits", 0)
    attempts = calls("runtime.incremental")
    successes = counts.get("runtime.incremental_ok", 0)
    values["runtime.escalations"] = (attempts - successes) / ops
    values["runtime.incremental_success_ratio"] = (
        successes / attempts if attempts else 0.0
    )
    for rung in ("incremental", "full", "patch", "none"):
        name = f"runtime.rung_{rung}"
        values[name] = runs.get(name, 0) / ops
    values.update(traced.get("extra", {}))
    op_time_s = traced["op_time_s"]
    values["plan.amax_bytes"] = traced["amax_bytes"]
    values["error_rate"] = traced["failed"] / ops
    values["unattributed_ms"] = (op_time_s - self_s) * 1e3 / ops
    values["attributed_pct"] = (
        100.0 * self_s / op_time_s if op_time_s else 0.0
    )
    base = untraced["p50_ref"]
    values["trace_overhead_pct"] = 100.0 * (traced["p50_ref"] - base) / base
    return values


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_metrics(
    values: Dict[str, float], specs: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    out = {}
    for spec in specs:
        value = values.get(spec["name"], 0.0)
        print(f"  {spec['name']:<36} {value:>14.4f} {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def print_layer_table(name: str, traced: Dict[str, Any], values) -> None:
    ops = max(traced["attempted"], 1)
    op_ms = traced["op_time_s"] * 1e3 / ops
    print(f"  {'span':<32} {'self ms/op':>11} {'calls/op':>10} {'share':>7}")
    rows = sorted(traced["spans"].items(), key=lambda kv: -kv[1][1])
    for span, (calls, self_s, _total) in rows:
        self_ms = self_s * 1e3 / ops
        share = 100 * self_ms / op_ms if op_ms else 0.0
        print(f"  {span:<32} {self_ms:>11.3f} {calls / ops:>10.2f} "
              f"{share:>6.1f}%")
    unattributed = values["unattributed_ms"]
    share = 100 * unattributed / op_ms if op_ms else 0.0
    print(f"  {name + '.unattributed_ms':<32} {unattributed:>11.3f} "
          f"{'-':>10} {share:>6.1f}%")
    print(f"  trace_overhead_pct {values['trace_overhead_pct']:.1f} %")


def run_workload(name: str, args, bench: Dict[str, Any]) -> Dict[str, Any]:
    seconds = args.seconds
    mode = (", traced" if args.trace else "") + (
        ", smoke" if args.smoke else ""
    )
    print(f"== {name} (seed {args.seed}, {seconds:g} s{mode})")
    if args.trace:
        untraced = spawn_worker(name, args.seed, seconds, smoke=args.smoke)
        measured = spawn_worker(
            name, args.seed, seconds, trace=True, smoke=args.smoke
        )
        values = per_layer(measured, untraced, interp_probes())
        print_layer_table(name, measured, values)
        runs = [untraced, measured]
        specs = bench["per_layer"]
    else:
        probes = [
            spawn_worker(name, args.seed, seconds, setup_only=True)
            for _ in range(0 if args.smoke else SETUP_PROBES)
        ]
        measured = spawn_worker(name, args.seed, seconds, smoke=args.smoke)
        values = end_to_end(
            measured, [p["setup_s"] for p in probes + [measured]]
        )
        runs = [measured]
        specs = bench["end_to_end"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"  ops: {measured['attempted']} timed in {measured['passes']} "
          f"passes, op_tail_ref is p{measured['tail_pct']:g}; reference "
          f"job {measured['reference_ms']:.3f} ms, wall p50 "
          f"{measured['wall_p50_ms']:.3f} ms")
    print(f"  error_rate {failed / max(attempted, 1):.4f} "
          f"({failed}/{attempted})")
    for failure in measured["failures"]:
        print(f"    failed: {failure}")
    print(f"  amax_bytes (mean A_max per plan) {measured['amax_bytes']:.1f} B")
    print(f"  outputs_digest {measured['outputs_digest']}")
    metrics = print_metrics(values, specs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "outputs_digest": measured["outputs_digest"],
        "runs": runs,
    }


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    require_source()
    if args.seconds is None:
        args.seconds = bench["run_seconds"] / (10 if args.smoke else 1)
    selected = [args.workload] if args.workload else names
    try:
        reports = {name: run_workload(name, args, bench) for name in selected}
    except (BenchError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": reports}, fh)
    if args.workload:
        metrics = reports[args.workload]["metrics"]
    else:
        metrics = {
            f"{name}/{metric}": value
            for name, report in reports.items()
            for metric, value in report["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
