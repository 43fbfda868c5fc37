"""Repeat the benchmark and report how much each end-to-end metric moves.

    python3 bench/stability.py [--runs 5] [--sets 1] [--workload NAME ...]
                               [--out FILE]

Each set runs every selected workload ``--runs`` times, alternating
the workload order between runs; run ``i`` uses seed ``i`` (from 1), so
the sets see the same inputs.  For every workload and metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (interquartile range over median) against the metric's bound,
and max/min.  With two or more sets it also checks that each later
set's median is within the bound of the first set's, and that equal
seeds gave equal ``outputs_digest``s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH, PYTHON, ROOT, load_benchmark  # noqa: E402


def run_once(workload: str, seed: int) -> Dict[str, Any]:
    cmd = [PYTHON, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    wall_s = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = [
        line.split()[1] for line in lines
        if line.strip().startswith("outputs_digest")
    ]
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": wall_s,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "outputs_digest": digests[0] if digests else None,
    }


def summarize(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else float("inf"),
        "max_over_min": max(values) / min(values) if min(values) else 0.0,
    }


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    sets: List[List[Dict[str, Any]]] = []
    for set_index in range(args.sets):
        runs = []
        for i in range(args.runs):
            order = args.workload if i % 2 == 0 else args.workload[::-1]
            seed = i + 1
            for workload in order:
                run = run_once(workload, seed)
                runs.append(run)
                print(f"set {set_index} run {i} {workload:<17} seed {seed:<4} "
                      f"{run['wall_s']:5.1f} s  correct={run['correct']}",
                      flush=True)
        sets.append(runs)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worse = {
        m["name"]: 1.0 if m["better"] == "lower" else -1.0
        for m in bench["end_to_end"]
    }
    summary: Dict[str, Any] = {}
    ok = True
    print(f"\n{'workload':<17} {'metric':<12} set {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6} {'max/min':>7}")
    for workload in args.workload:
        for metric, bound in bounds.items():
            medians = []
            for set_index, runs in enumerate(sets):
                values = [r["metrics"][metric] for r in runs
                          if r["workload"] == workload]
                stats = summarize(values)
                medians.append(stats["median"])
                summary[f"{workload}/{metric}/set{set_index}"] = stats
                verdict = (
                    "" if metric == "setup_s" or stats["spread"] <= bound / 3
                    else " <- above a third of the bound"
                )
                print(f"{workload:<17} {metric:<12} {set_index:>3} "
                      f"{stats['median']:>10.3f} {stats['q1']:>10.3f} "
                      f"{stats['q3']:>10.3f} {stats['spread']:>7.3f} "
                      f"{bound:>6.2f} {stats['max_over_min']:>7.3f}{verdict}")
            for set_index, later in enumerate(medians[1:], start=1):
                change = (later - medians[0]) / medians[0]
                if worse[metric] * change > bound:
                    ok = False
                    print(f"  set {set_index} median of {workload}/{metric} "
                          f"is {change:+.1%} against set 0: beyond the bound")
    for runs in sets[1:]:
        for run in runs:
            first = next(r for r in sets[0] if r["workload"] == run["workload"]
                         and r["seed"] == run["seed"])
            if first["outputs_digest"] != run["outputs_digest"]:
                ok = False
                print(f"  outputs_digest differs: {run['workload']} "
                      f"seed {run['seed']}")
    failed = sum(r["failed"] for runs in sets for r in runs)
    if failed:
        ok = False
        print(f"  {failed} failed ops")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": sets, "summary": summary}, fh, indent=1)
    print("sets agree within bounds" if ok and args.sets > 1 else
          "done" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
