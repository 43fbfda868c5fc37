"""In-memory span tracer and the bindings that attach it to ``repro``.

The benchmark measures layers from outside: :func:`install` replaces
public functions and methods with timing wrappers *at the binding the
caller looks up* (``repro.core.heuristic.split_tdg``, not
``repro.core.heuristic`` in general), in the style of ns-3 trace
sources — every layer exposes named hooks and the consumer decides
which ones to attach.  No file under ``src/`` changes.

Spans are folded as they close: each span name keeps its call count,
total time and *self* time (its duration minus the time covered by
spans nested inside it).  Folding per thread keeps the wrappers
lock-free should an op use threads.  Span names follow
``<layer>.<what>``; a ``/suffix`` marks a binding whose time belongs to
the metric named before it (``paths.query/compute`` is counted in
``paths.query``) while keeping its own call count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class _ThreadState:
    """One thread's open-span stack and folded totals."""

    def __init__(self) -> None:
        self.stack: List[float] = []
        #: span name -> [calls, self_s, total_s]
        self.table: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}


class Tracer:
    """Folds timed spans into per-name self time.

    Attributes:
        active: Spans are recorded only while True; the workload turns
            it on around each timed op.
    """

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._states: List[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``observe(tracer, result)``
        adds counters from a successful call's result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = self._state()
            state.stack.append(0.0)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.monotonic() - start
                child = state.stack.pop()
                if state.stack:
                    state.stack[-1] += duration
                row = state.table.get(name)
                if row is None:
                    row = state.table[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration - child
                row[2] += duration
            if observe is not None:
                observe(self, result)
            return result

        traced.traced_original = fn
        return traced

    def count(self, name: str, value: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    def totals(self) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
        """Per-name ``[calls, self_s, total_s]`` and counters, merged
        over threads."""
        table: Dict[str, List[float]] = {}
        counts: Dict[str, float] = {}
        for state in list(self._states):
            for name, row in list(state.table.items()):
                merged = table.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    merged[i] += row[i]
            for name, value in list(state.counts.items()):
                counts[name] = counts.get(name, 0) + value
        return table, counts


# ----------------------------------------------------------------------
# Observers: counters read off a wrapped call's result
# ----------------------------------------------------------------------
def _tdg_size(tracer: Tracer, tdg) -> None:
    tracer.count("analyzer.tdg_nodes", len(tdg))
    tracer.count("analyzer.tdg_edges", len(tdg.edges))


def _reads_checked(tracer: Tracer, report) -> None:
    tracer.count("verify.reads_checked", report.reads_checked)


def _doc_bytes(tracer: Tracer, text: str) -> None:
    tracer.count("plan.doc_bytes", len(text))


def _solution(tracer: Tracer, solution) -> None:
    tracer.count("milp.nodes", solution.nodes_explored)
    if solution.status.value in ("feasible", "time_limit"):
        tracer.count("milp.time_limit_hits")


def _incremental_ok(tracer: Tracer, _result) -> None:
    tracer.count("runtime.incremental_ok")


#: (module, attribute, span name, observer).  Each entry patches the
#: binding the caller resolves at call time: a module global for
#: functions looked up through their module (including function-local
#: ``from x import y`` imports, which read the module attribute on every
#: call), a class attribute for methods.
BINDINGS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("repro.cli", "parse_workload", "parse.workload", None),
    ("repro.cli", "parse_topology", "parse.topology", None),
    ("repro.core.analyzer", "ProgramAnalyzer.analyze", "analyzer.analyze",
     _tdg_size),
    ("repro.network.paths", "PathEnumerator.paths", "paths.query", None),
    ("repro.network.paths", "PathEnumerator.shortest",
     "paths.query/shortest", None),
    ("repro.network.paths", "k_shortest_paths", "paths.query/compute",
     None),
    ("repro.core.heuristic", "GreedyHeuristic.deploy", "heuristic.deploy",
     None),
    ("repro.core.heuristic", "split_tdg", "heuristic.split", None),
    ("repro.core.heuristic", "select_switches", "heuristic.select", None),
    ("repro.core.heuristic", "assign_stages", "heuristic.stages", None),
    ("repro.core.heuristic", "segment_fits", "heuristic.stages/fits", None),
    ("repro.baselines.base", "schedule_on_chain", "heuristic.chain", None),
    ("repro.baselines.base", "route_all_pairs", "heuristic.chain/route",
     None),
    ("repro.core.refine", "refine_plan", "refine", None),
    ("repro.core.verification", "verify_dataflow", "verify",
     _reads_checked),
    ("repro.plan.serialize", "plan_to_dict", "plan.to_dict", None),
    ("repro.plan.serialize", "canonical_dumps", "plan.dumps", _doc_bytes),
    ("repro.plan.serialize", "plan_fingerprint", "plan.fingerprint", None),
    ("repro.plan.serialize", "plan_from_dict", "plan.from_dict", None),
    ("repro.server.ops", "deploy_doc", "plan.doc", None),
    ("repro.core.formulation", "MilpFormulation.build", "milp.build", None),
    ("repro.core.formulation", "MilpFormulation.deploy", "milp.decode",
     None),
    ("repro.core.delta", "DeltaFormulation.build", "milp.build/delta",
     None),
    ("repro.milp.branch_bound", "presolve", "milp.presolve", None),
    ("repro.milp.presolve", "PresolveCache.fetch", "milp.presolve/cache",
     None),
    ("repro.milp.branch_bound", "linprog", "milp.lp", None),
    ("repro.milp.branch_bound", "BranchBoundSolver.solve", "milp.bb_other",
     _solution),
    ("repro.runtime.incremental", "IncrementalReplanner.replan",
     "runtime.incremental", _incremental_ok),
    ("repro.runtime.incremental", "rebase_plan", "runtime.rebase", None),
    ("repro.runtime.incremental", "splice_plan", "runtime.splice", None),
    ("repro.core.delta", "DeltaFormulation.solve", "runtime.delta_solve",
     None),
    ("repro.runtime.reconciler", "Reconciler._call_deploy", "runtime.full",
     None),
    ("repro.runtime.reconciler", "cheapest_patch", "runtime.patch", None),
    ("repro.runtime.reconciler", "compute_moves", "runtime.bookkeeping",
     None),
    ("repro.runtime.reconciler", "Reconciler._fill_outcome",
     "runtime.bookkeeping/outcome", None),
    ("repro.control.controller", "Controller.rebind",
     "runtime.bookkeeping/rebind", None),
    ("repro.runtime.store", "PlanStore.append",
     "runtime.bookkeeping/store", None),
]


def install(tracer: Tracer) -> None:
    """Patch every binding of :data:`BINDINGS`."""
    for module_name, attr, name, observe in BINDINGS:
        owner = importlib.import_module(module_name)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, leaf)
        wrapped_kind = None
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped_kind = type(raw)
            raw = raw.__func__
        # A module that imported an already-patched function by name
        # holds the wrapper: trace the original, once.
        raw = getattr(raw, "traced_original", raw)
        wrapped = tracer.wrap(name, raw, observe=observe)
        if wrapped_kind is not None:
            wrapped = wrapped_kind(wrapped)
        setattr(owner, leaf, wrapped)


def span_metric(span: str) -> str:
    """The per-layer metric a span folds into: ``paths.query/compute``
    -> ``paths.query_ms``; a bare layer (``refine``) -> ``refine.ms``."""
    base = span.split("/", 1)[0]
    return f"{base}_ms" if "." in base else f"{base}.ms"
