"""Benchmark: control-plane daemon vs one-shot CLI.

Measures the point of ``repro serve``: a resident control plane keeps
parsed workloads, plan history and warm-start state alive, so a repeat
deploy costs an incremental rebase (milliseconds) instead of a cold
interpreter start + parse + solve (about 0.3 s for a heuristic deploy,
which loads neither numpy nor scipy).  Three measurements on
the wan16/real10 instance:

* **repeat-deploy latency** — per-request wall time of warm deploys,
  p50/p99, at 1, 8 and 64 concurrent sessions (each session first
  primes itself with one cold deploy, then the timed warm repeats);
* **throughput** — warm requests/s over each concurrency level;
* **cold CLI baseline** — ``python -m repro deploy`` as a subprocess,
  the cost every scripted repeat-deploy loop pays today.

The contract test asserts the daemon's warm p50 beats the cold CLI by
>=5x.  Results are written to ``BENCH_server.json`` at the repo root
(the weekly solver-sweep workflow uploads it as an artifact).
"""

import asyncio
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro.server.client import ReproClient
from repro.server.service import ReproServer

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPORT_PATH = os.path.join(_REPO_ROOT, "BENCH_server.json")

#: The golden instance: the paper-scale WAN + real switch.p4 slices.
PARAMS = {"workload": "real:10", "topology": "wan:16:24", "seed": 1}

#: (concurrent sessions, timed warm deploys per session).
LEVELS = [(1, 40), (8, 10), (64, 4)]

CLI_REPS = 3


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _session_loop(address, repeats, latencies, barrier, errors):
    """One client session: prime cold, then timed warm repeats."""
    try:
        with ReproClient.connect(address) as client:
            primed = client.request("deploy", PARAMS)
            assert primed["session"]["source"] == "cold"
            barrier.wait(timeout=300)
            for _ in range(repeats):
                start = time.perf_counter()
                doc = client.request("deploy", PARAMS)
                latencies.append(time.perf_counter() - start)
                assert doc["session"]["source"].startswith("warm")
    except Exception as exc:  # surfaced by the fixture
        errors.append(exc)


def _run_level(address, sessions, repeats):
    latencies = []
    errors = []
    barrier = threading.Barrier(sessions + 1)
    threads = [
        threading.Thread(
            target=_session_loop,
            args=(address, repeats, latencies, barrier, errors),
        )
        for _ in range(sessions)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=300)  # every session primed: start the clock
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    wall_s = time.perf_counter() - start
    if errors:
        raise errors[0]
    assert len(latencies) == sessions * repeats
    return {
        "sessions": sessions,
        "requests": len(latencies),
        "wall_s": round(wall_s, 4),
        "requests_per_s": round(len(latencies) / max(wall_s, 1e-9), 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "mean_ms": round(statistics.mean(latencies) * 1e3, 3),
    }


def _cold_cli_seconds():
    """Best-of-N one-shot ``repro deploy`` on the same instance."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    command = [
        sys.executable,
        "-m",
        "repro",
        "deploy",
        "--workload",
        PARAMS["workload"],
        "--topology",
        PARAMS["topology"],
        "--seed",
        str(PARAMS["seed"]),
    ]
    best = float("inf")
    for _ in range(CLI_REPS):
        start = time.perf_counter()
        completed = subprocess.run(
            command,
            env=env,
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        elapsed = time.perf_counter() - start
        assert completed.returncode == 0, completed.stderr
        best = min(best, elapsed)
    return best


@pytest.fixture(scope="module")
def server_records(tmp_path_factory):
    socket_path = str(
        tmp_path_factory.mktemp("server-bench") / "repro.sock"
    )
    server = ReproServer(socket_path=socket_path)
    ready = threading.Event()

    def run():
        async def main():
            await server.start()
            ready.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(60), "daemon failed to start"

    levels = [
        _run_level(server.address, sessions, repeats)
        for sessions, repeats in LEVELS
    ]
    cold_cli_s = _cold_cli_seconds()

    server.stop_threadsafe()
    thread.join(60)

    single = levels[0]
    payload = {
        "instance": "wan16/real10",
        "params": PARAMS,
        "levels": levels,
        "cold_cli_s": round(cold_cli_s, 4),
        "summary": {
            "warm_p50_ms": single["p50_ms"],
            "cold_cli_ms": round(cold_cli_s * 1e3, 1),
            "repeat_deploy_speedup": round(
                (cold_cli_s * 1e3) / max(single["p50_ms"], 1e-9), 1
            ),
            "peak_requests_per_s": max(
                level["requests_per_s"] for level in levels
            ),
        },
    }
    with open(_REPORT_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def test_bench_server_all_levels_complete(server_records):
    for level in server_records["levels"]:
        assert level["requests"] == level["sessions"] * dict(LEVELS)[
            level["sessions"]
        ]
        assert level["p50_ms"] > 0


def test_bench_server_repeat_deploy_beats_cold_cli(server_records):
    """The headline: warm repeat deploys >=5x faster than cold CLI."""
    summary = server_records["summary"]
    assert summary["repeat_deploy_speedup"] >= 5.0, summary


def test_bench_server_scales_past_single_session(server_records):
    """More sessions must raise aggregate throughput over one session
    (warm deploys serialize on the GIL, but protocol + dispatch
    overlap; a regression here means dispatch went serial)."""
    by_sessions = {
        level["sessions"]: level for level in server_records["levels"]
    }
    assert (
        by_sessions[8]["requests_per_s"]
        > by_sessions[1]["requests_per_s"] * 0.8
    ), by_sessions


def test_bench_server_report(server_records):
    from conftest import record_report

    rows = [
        "Control-plane daemon: warm repeat deploys (wan16/real10)",
        f"{'sessions':>8} {'reqs':>5} {'req/s':>8} {'p50 ms':>8} "
        f"{'p99 ms':>8}",
    ]
    for level in server_records["levels"]:
        rows.append(
            f"{level['sessions']:>8} {level['requests']:>5} "
            f"{level['requests_per_s']:>8.1f} {level['p50_ms']:>8.2f} "
            f"{level['p99_ms']:>8.2f}"
        )
    summary = server_records["summary"]
    rows.append(
        f"cold CLI {summary['cold_cli_ms']:.0f} ms vs warm p50 "
        f"{summary['warm_p50_ms']:.2f} ms -> "
        f"{summary['repeat_deploy_speedup']:.0f}x"
    )
    record_report("\n".join(rows))
    assert os.path.exists(_REPORT_PATH)
