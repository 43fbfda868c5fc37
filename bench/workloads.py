"""The benchmark workloads.

Each workload runs in a fresh worker process (``worker.py``).  It
derives every instance from ``--seed``, sets itself up (imports and an
untimed warm-up op), then runs its instances one op at a time, in
passes, for the run's time.  Every op is checked; a failed check counts
as a failed op.

The reference job (:mod:`reference`) runs between consecutive ops, and
an op's sample is its time over the mean of the job's times just before
and just after it: the op's time in *refs*, which a slowdown of the
shared machine stretches on both sides of the ratio.  Wall times are
kept too, for the ``wall.*`` metrics.

An op's outputs (plan fingerprints, history digests) depend only on its
inputs, so equal seeds give equal digests, and an instance whose output
changes between passes fails.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import spans
from common import digest, median, percentile
from reference import time_reference

#: A sample of one op: ``(seconds, error or None, amax_bytes or None)``.
Sample = Tuple[float, Optional[str], Optional[float]]


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


class Recording:
    """What a run measured: op times, failures, outputs, counters."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.outputs: List[str] = []
        self.amax: List[float] = []
        self.op_time_s = 0.0
        self.refs: List[float] = []
        self.wall_ms: List[float] = []
        self.in_refs: List[float] = []
        self.counts: Dict[str, float] = {}

    def add(self, sample: Sample, ref_s: float) -> None:
        seconds, error, amax = sample
        self.attempted += 1
        self.op_time_s += seconds
        if error is not None:
            self.failures.append(error)
            return
        self.wall_ms.append(seconds * 1e3)
        self.in_refs.append(seconds / ref_s)
        if amax is not None:
            self.amax.append(amax)

    def result(self, tail_pct: float) -> Dict[str, Any]:
        if not self.in_refs:
            raise CheckFailed(f"every op failed: {self.failures[:1]}")
        return {
            "p50_ref": median(self.in_refs),
            "tail_ref": percentile(self.in_refs, tail_pct),
            "wall_p50_ms": median(self.wall_ms),
            "wall_tail_ms": percentile(self.wall_ms, tail_pct),
            "reference_ms": median(self.refs) * 1e3,
            "samples": len(self.in_refs),
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:5],
            "outputs_digest": digest(self.outputs),
            "amax_bytes": (
                sum(self.amax) / len(self.amax) if self.amax else 0.0
            ),
            "op_time_s": self.op_time_s,
            "counts": self.counts,
            "extra": {},
        }


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Workload:
    """One op at a time, in passes over a seeded set of instances.

    Ops call ``repro.server.ops`` in the worker process.  Every pass
    runs each instance once.  Passes repeat while another fits in the
    run, and at least two run, so every instance's output is checked
    against a second run of it.
    """

    name = ""
    #: The percentile ``op_tail_ref`` reports.
    tail_pct = 75.0
    #: Params of the untimed warm-up op run during set-up.
    warm_up: Dict[str, Any] = {}

    def __init__(self, seed: int, smoke: bool, tracer) -> None:
        self.smoke = smoke
        self.tracer = tracer
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        from repro.server import ops

        self.ops = ops
        if self.tracer is not None:
            spans.install(self.tracer)
        self.cycle = self.instances()
        self.op(self.warm_up_instance())

    def warm_up_instance(self) -> Dict[str, Any]:
        return dict(self.warm_up)

    def instances(self) -> List[Any]:
        raise NotImplementedError

    def op(self, instance) -> Tuple[str, Optional[float]]:
        """Run and check one op; returns ``(output, amax_bytes)``."""
        raise NotImplementedError

    def measure(self, instance) -> Tuple[List[Sample], Optional[str]]:
        """Run one op: its timed samples and its deterministic output."""
        if self.tracer is not None:
            self.tracer.active = True
        start = time.monotonic()
        try:
            output, amax = self.op(instance)
        except Exception as exc:  # a failed op is counted, not fatal
            return [(time.monotonic() - start, _error(exc), None)], None
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        return [(time.monotonic() - start, None, amax)], output

    def run(self, seconds: float) -> Dict[str, Any]:
        recording = Recording()
        first: Dict[int, str] = {}
        deadline = time.monotonic() + seconds
        passes = 0
        pass_s = 0.0
        ref_before = time_reference()
        while passes < 2 or time.monotonic() + pass_s < deadline:
            started = time.monotonic()
            for index, instance in enumerate(self.cycle):
                samples, output = self.measure(instance)
                ref_after = time_reference()
                recording.refs.append(ref_after)
                ref_s = (ref_before + ref_after) / 2
                ref_before = ref_after
                if output is not None:
                    if first.setdefault(index, output) != output:
                        differs = (
                            f"output {output} differs from the first "
                            f"pass's {first[index]}"
                        )
                        samples = [(s, e or differs, a) for s, e, a in samples]
                    recording.outputs.append(output)
                for sample in samples:
                    recording.add(sample, ref_s)
            passes += 1
            pass_s = time.monotonic() - started
        result = recording.result(self.tail_pct)
        result["passes"] = passes
        return result


# ----------------------------------------------------------------------
# heuristic-deploy
# ----------------------------------------------------------------------
class HeuristicDeploy(Workload):
    """Cold Algorithm 2 deploys at Exp#5 scale, verified.

    Exp#5's smallest workload, ``real:10+synthetic:10``, on random WANs
    of Table III's size (72 switches, 88 links; the Table III topologies
    are themselves seeded random WANs of about that size), each WAN's
    seed drawn from the seed.  One workload size keeps the median on one
    cost level: with K cycling 10/20/30/40, the median of a run fell
    between two levels and moved with the seed's draws.
    """

    name = "heuristic-deploy"
    tail_pct = 75.0
    warm_up = {"workload": "real:2", "topology": "linear:3", "verify": True}

    def instances(self) -> List[Dict[str, Any]]:
        return [
            {
                "workload": "real:10+synthetic:10",
                "topology": f"wan:72:88:{self.rng.randrange(1, 10_000)}",
                "verify": True,
            }
            for _ in range(2 if self.smoke else 12)
        ]

    def op(self, params) -> Tuple[str, Optional[float]]:
        doc = self.ops.deploy_op(params)
        if doc["verification"]["reads_checked"] <= 0:
            raise CheckFailed("verifier checked no metadata reads")
        key = f"{params['workload']}@{params['topology']}"
        return f"{key}={doc['fingerprint']}", doc["summary"]["a_max_bytes"]


# ----------------------------------------------------------------------
# optimal-milp
# ----------------------------------------------------------------------
class OptimalMilp(Workload):
    """Exact P#1 solves by branch and bound, each required OPTIMAL.

    Ten fixed workload x WAN-size shapes, each on a random WAN the seed
    draws.  The 600 s solver limit is never near, so no solve ends on
    the clock.
    """

    name = "optimal-milp"
    tail_pct = 75.0
    warm_up = {"workload": "real:2", "topology": "linear:3", "mode": "optimal"}
    SHAPES = [
        (workload, topology)
        for workload in (
            "real:4", "real:5", "sketches:4", "sketches:8",
            "real:3+sketches:3",
        )
        for topology in ("wan:10:14", "wan:12:18")
    ]

    def instances(self) -> List[Dict[str, Any]]:
        cycle = [
            {
                "workload": workload,
                "topology": topology,
                "seed": self.rng.randrange(1, 10_000),
                "mode": "optimal",
                "time_limit_s": 600.0,
            }
            for workload, topology in self.SHAPES
        ]
        return cycle[:2] if self.smoke else cycle

    def op(self, params) -> Tuple[str, Optional[float]]:
        from repro.telemetry import attached

        statuses: List[str] = []

        def solver_done(event: Dict[str, Any]) -> None:
            if event["kind"] == "solver.done":
                statuses.append(event["status"])

        with attached(solver_done):
            doc = self.ops.deploy_op(params)
        if not statuses or any(s != "optimal" for s in statuses):
            raise CheckFailed(f"solver statuses {statuses}, want optimal")
        key = f"{params['workload']}@{params['topology']}:{params.get('seed')}"
        return f"{key}={doc['fingerprint']}", doc["summary"]["a_max_bytes"]


# ----------------------------------------------------------------------
# churn-replay
# ----------------------------------------------------------------------
#: ``DeltaFormulation``'s default wall-clock budget per delta solve.
DELTA_TIME_LIMIT_S = 5.0


class _BatchClock:
    """Telemetry sink that turns reconciler events into timed ops.

    An op is one reconciled batch: from ``runtime.replan.start`` to its
    ``runtime.converged`` (or ``runtime.replan.failed``).  A solve in a
    batch that stops on the delta MILP's wall-clock limit fails that
    batch, because its plan depends on machine load.  Other outcomes,
    an infeasible delta solve escalated to the full rung included, are
    deterministic and count as successful batches.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.ops: List[Tuple[float, str, Optional[str], Any]] = []
        self.digest: Optional[str] = None
        self.max_solve_s = 0.0
        self._start: Optional[float] = None
        self._bad: Optional[str] = None

    def __call__(self, event: Dict[str, Any]) -> None:
        kind = event["kind"]
        if kind == "runtime.replan.start":
            self._bad = None
            if self.tracer is not None:
                self.tracer.active = True
            self._start = time.monotonic()
        elif kind in ("runtime.converged", "runtime.replan.failed"):
            end = time.monotonic()
            if self.tracer is not None:
                self.tracer.active = False
            rung = event["rung"] if kind == "runtime.converged" else "none"
            self.ops.append(
                (end - self._start, rung, self._bad, event.get("amax_bytes"))
            )
            self._start = None
        elif kind == "solver.done" and self._start is not None:
            wall = event["wall_time_s"]
            self.max_solve_s = max(self.max_solve_s, wall)
            on_clock = event["status"] in ("feasible", "time_limit")
            if on_clock and wall >= DELTA_TIME_LIMIT_S:
                self._bad = (
                    f"solve ended {event['status']} on its wall-clock "
                    f"limit after {wall:.3f} s"
                )
        elif kind == "runtime.scenario.done":
            self.digest = event["digest"]


class ChurnReplay(Workload):
    """Seeded churn scenarios through the warm reconciler.

    The workload and network are fixed and the seed draws the
    scenarios.  Events are network churn only (failures, recoveries,
    drains, latency and programmability changes).  With the default mix,
    which also adds and removes programs, about one scenario in 40 ran a
    delta solve into its 5 s wall-clock limit, and per-seed medians
    moved by +-20% against +-4% without program churn.  Every pass
    replays every scenario; its history digest must repeat.
    """

    name = "churn-replay"
    #: Batch costs cluster: about 81% incremental batches, then full-rung
    #: ones in two groups (about 1.5 and 7-11 refs).  A percentile near a
    #: cluster edge moves with the seed's draws: over eight seeds p80
    #: spread 0.13 and p90 0.33, p85 0.04 (IQR over median).  p85 of
    #: about 4000 batches has 600 beyond it.
    tail_pct = 85.0
    #: A workload the network can nearly always host: with
    #: ``real:10+sketches:4``, 3-9% of batches found no plan, depending
    #: on the seed, and p85 spread 0.15 over ten seeds.
    WORKLOAD = "real:10"
    TOPOLOGY = "wan:20:30:7"
    #: Enough scenarios that the rung mix repeats between seeds: p85
    #: spread 0.07 with 60 scenarios, 0.04 with 120.
    SCENARIOS = 120

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.rungs: Dict[str, float] = {}
        self.max_solve_s = 0.0

    def _scenario(self, workload, topology, seed, events=16):
        from repro.cli import parse_topology
        from repro.runtime import generate_scenario
        from repro.runtime.scenario import DEFAULT_EVENT_MIX, EventKind

        workload_events = (EventKind.WORKLOAD_ADD, EventKind.WORKLOAD_REMOVE)
        scenario = generate_scenario(
            parse_topology(topology),
            num_events=events,
            seed=seed,
            workload_spec=workload,
            topology_spec=topology,
            event_mix={
                kind: weight
                for kind, weight in DEFAULT_EVENT_MIX.items()
                if kind not in workload_events
            },
        )
        return {"scenario": scenario.to_dict(), "incremental": True}

    def warm_up_instance(self) -> Dict[str, Any]:
        return self._scenario("real:4", "wan:10:14:1", seed=1, events=3)

    def instances(self) -> List[Dict[str, Any]]:
        return [
            self._scenario(
                self.WORKLOAD, self.TOPOLOGY, self.rng.randrange(1, 10_000)
            )
            for _ in range(4 if self.smoke else self.SCENARIOS)
        ]

    def op(self, params) -> Tuple[str, Optional[float]]:
        """The set-up's warm-up replay."""
        self.ops.churn_op(params)
        return "", None

    def measure(self, params) -> Tuple[List[Sample], Optional[str]]:
        from repro.telemetry import attached

        clock = _BatchClock(self.tracer)
        error = None
        try:
            with attached(clock):
                self.ops.churn_op(params)
        except Exception as exc:  # a failed replay is counted, not fatal
            error = _error(exc)
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        self.max_solve_s = max(self.max_solve_s, clock.max_solve_s)
        samples: List[Sample] = []
        for seconds, rung, bad, amax in clock.ops:
            name = f"runtime.rung_{rung}"
            self.rungs[name] = self.rungs.get(name, 0) + 1
            samples.append((seconds, bad or error, amax))
        if error is not None:
            return samples or [(0.0, error, None)], None
        scenario = params["scenario"]
        key = f"{scenario['name']}@{scenario['topology_spec']}"
        return samples, f"{key}={clock.digest}"

    def run(self, seconds: float) -> Dict[str, Any]:
        result = super().run(seconds)
        result["counts"].update(self.rungs)
        result["extra"]["runtime.max_delta_solve_ms"] = self.max_solve_s * 1e3
        return result


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (HeuristicDeploy, OptimalMilp, ChurnReplay)
}
