"""Benchmark: vectorized batch engine vs the per-flow closed-form loop.

The batch engine's reason to exist is throughput: evaluating a 10^5-
flow trace in a handful of NumPy array operations instead of 10^5
Python-level closed-form evaluations.  This benchmark times the batch
engine against the tests' per-flow oracle (``tests/simulation/
loop_oracle.py``, the loop the batch engine reproduces bit for bit)
on the same :class:`~repro.simulation.spec.SimulationSpec` (best of
``REPS`` runs each), asserts the documented >= 10x speedup, and records
the engine-agreement deltas alongside the timings.

Results are written to ``BENCH_sim.json`` at the repo root so the
speedup contract is auditable across commits.
"""

import json
import os
import sys
import time

import pytest

from repro.simulation.contention import (
    CONTENTION_FREE_LOAD,
    CONTENTION_REL_TOLERANCE,
    ContentionEngine,
)
from repro.simulation.engine import BatchEngine
from repro.simulation.netsim import uniform_path
from repro.simulation.spec import SimulationSpec
from repro.simulation.traces import TraceConfig, generate_trace

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPORT_PATH = os.path.join(_REPO_ROOT, "BENCH_sim.json")

sys.path.insert(0, os.path.join(_REPO_ROOT, "tests", "simulation"))
from loop_oracle import LoopEngine  # noqa: E402

#: Trace sizes swept by the benchmark; the contract is asserted on the
#: largest (the ISSUE's 10^5-flow trace).
SIZES = (10_000, 100_000)
CONTRACT_SIZE = 100_000
MIN_SPEEDUP = 10.0
OVERHEAD_BYTES = 96
REPS = 3
#: Offered load for the congested contention-engine column.
BENCH_LOAD = 0.9


def _time_best_of(fn, reps=REPS):
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def sim_records():
    """Loop vs batch on seeded traces, with agreement deltas."""
    records = []
    for num_flows in SIZES:
        trace = generate_trace(17, TraceConfig(num_flows=num_flows))
        spec = SimulationSpec.from_trace(
            trace, uniform_path(5), OVERHEAD_BYTES
        )
        loop_engine = LoopEngine()
        batch_engine = BatchEngine()
        # Warm NumPy's first-import cost outside the timed region.
        batch_engine.evaluate(spec)
        loop_s, loop = _time_best_of(lambda: loop_engine.evaluate(spec))
        batch_s, batch = _time_best_of(
            lambda: batch_engine.evaluate(spec)
        )
        max_rel_delta = max(
            abs(b - a) / a for a, b in zip(loop.fct_us, batch.fct_us)
        )
        # Contention column: congested wall-clock at BENCH_LOAD and
        # the worst per-flow FCT inflation it induces over its own
        # contention-free floor.
        busy_engine = ContentionEngine(load=BENCH_LOAD)
        calm_engine = ContentionEngine(load=CONTENTION_FREE_LOAD)
        busy_s, busy = _time_best_of(lambda: busy_engine.evaluate(spec))
        calm = calm_engine.evaluate(spec)
        max_fct_inflation = max(
            b / a for a, b in zip(calm.fct_us, busy.fct_us)
        )
        records.append(
            {
                "flows": num_flows,
                "overhead_bytes": OVERHEAD_BYTES,
                "loop": {
                    "engine": loop.engine,
                    "wall_s": round(loop_s, 4),
                },
                "batch": {
                    "engine": batch.engine,
                    "wall_s": round(batch_s, 4),
                },
                "speedup": round(loop_s / max(batch_s, 1e-9), 2),
                "max_rel_fct_delta": max_rel_delta,
                "packets_equal": batch.num_packets == loop.num_packets,
                "wire_bytes_equal": batch.wire_bytes == loop.wire_bytes,
                "contention": {
                    "engine": busy.engine,
                    "load": BENCH_LOAD,
                    "wall_s": round(busy_s, 4),
                    "speedup_vs_loop": round(
                        loop_s / max(busy_s, 1e-9), 2
                    ),
                    "max_fct_inflation": round(max_fct_inflation, 4),
                    "contended_fraction": round(
                        busy.contended_fraction, 4
                    ),
                },
            }
        )
    # Low-load agreement is measured against the per-packet exact DES
    # (the engine's documented reference), on a size-capped companion
    # trace the DES can evaluate in benchmark time.  The closed form
    # (batch engine and loop) is NOT the right reference here: it
    # prices the runt last packet at full wire size, a deliberate
    # upper bound.
    from repro.simulation.engine import ExactEngine

    capped = SimulationSpec.from_trace(
        generate_trace(
            17, TraceConfig(num_flows=2_000, max_bytes=256 * 1024)
        ),
        uniform_path(5),
        OVERHEAD_BYTES,
    )
    exact = ExactEngine().evaluate(capped)
    calm_capped = ContentionEngine(
        load=CONTENTION_FREE_LOAD
    ).evaluate(capped)
    low_load_delta = max(
        abs(c - e) / e
        for e, c in zip(exact.fct_us, calm_capped.fct_us)
    )
    agreement = {
        "reference": "exact",
        "flows": 2_000,
        "max_bytes": 256 * 1024,
        "load": CONTENTION_FREE_LOAD,
        "max_rel_fct_delta": low_load_delta,
        "packets_equal": calm_capped.num_packets == exact.num_packets,
        "wire_bytes_equal": calm_capped.wire_bytes == exact.wire_bytes,
    }
    payload = {
        "contract": {
            "flows": CONTRACT_SIZE,
            "min_speedup": MIN_SPEEDUP,
            "rel_tolerance": 0.0,
            "contention": {
                "load": BENCH_LOAD,
                "min_speedup_vs_loop": MIN_SPEEDUP,
                "low_load_rel_tolerance": CONTENTION_REL_TOLERANCE,
            },
        },
        "contention_low_load_agreement": agreement,
        "traces": records,
    }
    with open(_REPORT_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def test_bench_sim_batch_speedup_contract(sim_records):
    """>= 10x on the 10^5-flow trace — the engine's raison d'etre."""
    (record,) = [
        r for r in sim_records["traces"] if r["flows"] == CONTRACT_SIZE
    ]
    assert record["speedup"] >= MIN_SPEEDUP, record


def test_bench_sim_engines_agree(sim_records):
    """Speed must not cost correctness: the batch engine equals the
    per-flow loop bit for bit at every size, on every column."""
    for record in sim_records["traces"]:
        assert record["max_rel_fct_delta"] == 0.0, record
        assert record["packets_equal"], record
        assert record["wire_bytes_equal"], record


def test_bench_sim_contention_contract(sim_records):
    """The contention engine must stay in the vectorized class (>= 10x
    over the per-flow loop even while queueing at load 0.9) and match
    the batch engine within 1e-6 when contention is structurally
    impossible."""
    (record,) = [
        r for r in sim_records["traces"] if r["flows"] == CONTRACT_SIZE
    ]
    column = record["contention"]
    assert column["speedup_vs_loop"] >= MIN_SPEEDUP, column
    assert column["max_fct_inflation"] >= 1.0, column
    agreement = sim_records["contention_low_load_agreement"]
    assert (
        agreement["max_rel_fct_delta"] < CONTENTION_REL_TOLERANCE
    ), agreement
    assert agreement["packets_equal"], agreement
    assert agreement["wire_bytes_equal"], agreement


def test_bench_sim_report(sim_records):
    from conftest import record_report

    rows = [
        f"Batch vs per-flow-loop evaluation (wall seconds, best of {REPS})",
        f"{'flows':>8} {'loop s':>8} {'batch s':>9} {'cont s':>8} "
        f"{'speedup':>8} {'max rel delta':>14} {'fct infl':>9}",
    ]
    for record in sim_records["traces"]:
        column = record["contention"]
        rows.append(
            f"{record['flows']:>8} "
            f"{record['loop']['wall_s']:>8.3f} "
            f"{record['batch']['wall_s']:>9.4f} "
            f"{column['wall_s']:>8.4f} "
            f"{record['speedup']:>7.2f}x "
            f"{record['max_rel_fct_delta']:>14.2e} "
            f"x{column['max_fct_inflation']:>8.3f}"
        )
    contract = sim_records["contract"]
    rows.append(
        f"contract: >= {contract['min_speedup']:.0f}x at "
        f"{contract['flows']} flows, "
        f"rel tolerance {contract['rel_tolerance']:.0e}; "
        f"contention column at load "
        f"{contract['contention']['load']:.1f}"
    )
    record_report("\n".join(rows))
    assert os.path.exists(_REPORT_PATH)
