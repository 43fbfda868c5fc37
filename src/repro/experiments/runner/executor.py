"""Parallel execution of experiment cells.

A *cell* is one (framework x deployment problem) unit of
:func:`repro.experiments.harness.run_deployment_suite`; the experiment
sweep loops (Exp#1/2/5) flatten their whole sweep into one cell list so
every deployment in an experiment can run concurrently, not just the
frameworks within one sweep point.

Guarantees, regardless of ``workers``:

* **Deterministic ordering** — results come back in submission order
  (``ProcessPoolExecutor.map`` with chunksize 1), so downstream tables
  and journals are reproducible.
* **Identical results** — each worker runs the exact serial code path
  (:func:`~repro.experiments.harness.run_single_deployment`); only
  wall-clock timings differ from a serial run.
* **Graceful serial fallback** — ``workers=1`` executes inline with no
  process pool (and shares a :class:`PathEnumerator` per network, like
  the historical serial harness).

Telemetry emitted inside a cell (solver and deploy events) is recorded
per cell — in a worker process the events travel back with the task
result — and written to the journal in cell order, so a journal from a
parallel run is line-for-line comparable to a serial one.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import CancelledError, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import DeploymentFramework
from repro.dataplane.program import Program
from repro.experiments.harness import DeploymentRecord, run_single_deployment
from repro.experiments.runner.cache import ResultCache
from repro.experiments.runner.cache_key import cache_key
from repro.experiments.runner.telemetry import JournalWriter
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.telemetry import Event, Recorder, attached


@dataclass
class Cell:
    """One (framework x deployment problem) unit of work.

    ``tag`` carries the sweep coordinate (e.g. topology id or program
    count) through the runner untouched, so experiments can regroup
    results without positional bookkeeping.
    """

    programs: Tuple[Program, ...]
    network: Network
    framework: DeploymentFramework
    packet_payload_bytes: int = 1024
    with_end_to_end: bool = True
    tag: Any = None

    def key(self) -> str:
        """Content hash naming this cell in the result cache."""
        return cache_key(
            self.programs,
            self.network,
            self.framework,
            {
                "packet_payload_bytes": self.packet_payload_bytes,
                "with_end_to_end": self.with_end_to_end,
            },
        )


@dataclass
class CellResult:
    """Outcome of one cell: the record plus its telemetry stream.

    ``plan`` is the canonical serialized deployment plan (see
    :mod:`repro.plan.serialize`) the cell produced — also what the
    result cache persists, so cache hits return it too.  Reconstruct
    with :func:`repro.plan.plan_from_dict`.
    """

    cell: Cell
    record: DeploymentRecord
    events: List[Event] = field(default_factory=list)
    cached: bool = False
    plan: Optional[dict] = None


@dataclass(frozen=True)
class RunnerConfig:
    """Knobs of an :class:`ExperimentRunner` (CLI: ``--workers``,
    ``--cache-dir``, ``--journal``)."""

    workers: int = 1
    cache_dir: Optional[str] = None
    journal: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class RunnerInterrupted(RuntimeError):
    """A cell run was interrupted before every cell finished.

    Raised by :meth:`ExperimentRunner.run_cells` when a
    ``KeyboardInterrupt`` (or an outer cancellation) lands mid-run: the
    pool has already been shut down cleanly — pending cells cancelled,
    no workers left behind — and ``partial`` carries every
    :class:`CellResult` that completed (cache hits included), in
    submission order, so a caller can persist or report what it has.
    """

    def __init__(self, partial: List["CellResult"], total: int) -> None:
        super().__init__(
            f"interrupted with {len(partial)} of {total} cells complete"
        )
        self.partial = partial
        self.total = total


def _execute_cell(
    cell: Cell, paths: Optional[PathEnumerator] = None
) -> Tuple[DeploymentRecord, List[Event], dict]:
    """Run one cell, recording every telemetry event it emits."""
    recorder = Recorder()
    with attached(recorder):
        record, plan = run_single_deployment(
            cell.programs,
            cell.network,
            cell.framework,
            packet_payload_bytes=cell.packet_payload_bytes,
            with_end_to_end=cell.with_end_to_end,
            paths=paths,
            return_plan=True,
        )
    return record, recorder.events, plan


def _pool_cell_worker(
    cell: Cell,
) -> Tuple[DeploymentRecord, List[Event], dict]:
    """Top-level (picklable) entry point for pool workers."""
    return _execute_cell(cell)


def _pool_map_worker(payload: Tuple[Callable, Any]) -> Any:
    fn, item = payload
    return fn(item)


class ExperimentRunner:
    """Fans experiment cells out across a process pool, with a
    content-addressed result cache and a JSONL journal.

    Args:
        config: A :class:`RunnerConfig`; keyword arguments build one
            for you (``ExperimentRunner(workers=4, cache_dir=...)``).
    """

    def __init__(
        self,
        config: Optional[RunnerConfig] = None,
        *,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        journal: Optional[str] = None,
    ) -> None:
        self.config = config or RunnerConfig(
            workers=workers, cache_dir=cache_dir, journal=journal
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )

    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[Cell]) -> List[CellResult]:
        """Execute every cell; results are in submission order."""
        cells = list(cells)
        results: List[Optional[CellResult]] = [None] * len(cells)
        keys: List[Optional[str]] = [None] * len(cells)

        # Cache probe (and intra-run dedup: identical cells later in
        # the list wait for the first occurrence instead of re-running).
        pending: List[int] = []
        first_with_key: Dict[str, int] = {}
        duplicates: Dict[int, int] = {}
        for i, cell in enumerate(cells):
            key = cell.key() if self.cache is not None else None
            keys[i] = key
            if key is not None:
                hit = self.cache.get_entry(key)
                if hit is not None:
                    hit_record, hit_plan = hit
                    results[i] = CellResult(
                        cell=cell,
                        record=hit_record,
                        events=[{"kind": "cache.hit", "key": key}],
                        cached=True,
                        plan=hit_plan,
                    )
                    continue
                if key in first_with_key:
                    duplicates[i] = first_with_key[key]
                    continue
                first_with_key[key] = i
            pending.append(i)

        if pending:
            try:
                if self.config.workers == 1:
                    self._run_serial(cells, pending, results)
                else:
                    self._run_pool(cells, pending, results)
            except (KeyboardInterrupt, CancelledError) as exc:
                raise self._interrupted(
                    cells, pending, results, keys
                ) from exc

        for i, source in duplicates.items():
            origin = results[source]
            assert origin is not None
            results[i] = CellResult(
                cell=cells[i],
                record=origin.record,
                events=[{"kind": "cache.hit", "key": keys[i]}],
                cached=True,
                plan=origin.plan,
            )

        self._cache_results(pending, results, keys)

        final = [res for res in results if res is not None]
        assert len(final) == len(cells)
        self._journal_results(final, keys)
        return final

    def _run_serial(
        self,
        cells: Sequence[Cell],
        pending: Sequence[int],
        results: List[Optional[CellResult]],
    ) -> None:
        # Share one PathEnumerator per network instance, exactly like
        # the historical serial harness loop.
        enumerators: Dict[int, PathEnumerator] = {}
        for i in pending:
            cell = cells[i]
            paths = enumerators.setdefault(
                id(cell.network), PathEnumerator(cell.network)
            )
            record, events, plan = _execute_cell(cell, paths)
            results[i] = CellResult(
                cell=cell, record=record, events=events, plan=plan
            )

    def _run_pool(
        self,
        cells: Sequence[Cell],
        pending: Sequence[int],
        results: List[Optional[CellResult]],
    ) -> None:
        workers = min(self.config.workers, len(pending))
        pool = self._executor_factory(max_workers=workers)
        futures: Dict[int, Any] = {}
        try:
            for i in pending:
                futures[i] = pool.submit(_pool_cell_worker, cells[i])
            for i in pending:
                record, events, plan = futures[i].result()
                results[i] = CellResult(
                    cell=cells[i], record=record, events=events, plan=plan
                )
        except (KeyboardInterrupt, CancelledError):
            # Interrupted mid-pool: harvest every cell that did finish
            # (the in-order result() loop may not have consumed them
            # yet), cancel the rest, and shut the pool down without
            # waiting so no worker is left running — then let
            # run_cells surface the partial results.
            for i, fut in futures.items():
                if results[i] is not None or not fut.done():
                    continue
                try:
                    record, events, plan = fut.result(timeout=0)
                except BaseException:
                    continue
                results[i] = CellResult(
                    cell=cells[i], record=record, events=events, plan=plan
                )
            for fut in futures.values():
                fut.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)

    #: Pool class used by :meth:`_run_pool`; a hook so tests can run
    #: the interrupt path deterministically on a thread pool.
    _executor_factory = staticmethod(ProcessPoolExecutor)

    def _interrupted(
        self,
        cells: Sequence[Cell],
        pending: Sequence[int],
        results: List[Optional[CellResult]],
        keys: Sequence[Optional[str]],
    ) -> RunnerInterrupted:
        """Persist, journal and package what completed before an
        interrupt; the returned exception carries the partial results."""
        self._cache_results(pending, results, keys)
        done = [
            (res, keys[i])
            for i, res in enumerate(results)
            if res is not None
        ]
        partial = [res for res, _ in done]
        self._journal_results(partial, [key for _, key in done])
        if self.config.journal:
            with JournalWriter(self.config.journal) as journal:
                journal.write(
                    {
                        "kind": "runner.interrupted",
                        "completed": len(partial),
                        "total": len(cells),
                    }
                )
        return RunnerInterrupted(partial, total=len(cells))

    def _cache_results(
        self,
        pending: Sequence[int],
        results: Sequence[Optional[CellResult]],
        keys: Sequence[Optional[str]],
    ) -> None:
        """Store the executed cells' results, except those a solver's
        wall-clock limit cut short: such a record depends on the
        machine's load, not only on the content its key names."""
        if self.cache is None:
            return
        for i in pending:
            res = results[i]
            if res is None or keys[i] is None or res.record.timed_out:
                continue
            self.cache.put(keys[i], res.record, plan=res.plan)

    def _journal_results(
        self,
        results: Sequence[CellResult],
        keys: Sequence[Optional[str]],
    ) -> None:
        if not self.config.journal:
            return
        with JournalWriter(self.config.journal) as journal:
            for i, res in enumerate(results):
                journal.write(
                    {
                        "kind": "cell.start",
                        "cell": i,
                        "framework": res.cell.framework.name,
                        "tag": res.cell.tag,
                        "key": keys[i],
                        "cached": res.cached,
                    }
                )
                for event in res.events:
                    line = dict(event)
                    line["cell"] = i
                    journal.write(line)
                journal.write(
                    {
                        "kind": "cell.done",
                        "cell": i,
                        "record": dataclasses.asdict(res.record),
                    }
                )

    # ------------------------------------------------------------------
    def map(self, fn: Callable, items: Sequence[Any]) -> List[Any]:
        """Order-preserving parallel map for non-cell sweep loops.

        ``fn`` must be a module-level callable and ``items`` picklable
        when ``workers > 1``; with one worker this is a plain list
        comprehension (no pool, no pickling).  Map sweeps journal one
        ``map.item`` line per item (they produce no DeploymentRecords,
        so there are no ``cell.*`` events to record).
        """
        items = list(items)
        if self.config.workers == 1 or len(items) <= 1:
            outputs = [fn(item) for item in items]
        else:
            workers = min(self.config.workers, len(items))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                outputs = list(
                    pool.map(
                        _pool_map_worker,
                        [(fn, item) for item in items],
                        chunksize=1,
                    )
                )
        if self.config.journal:
            name = getattr(fn, "__name__", repr(fn))
            with JournalWriter(self.config.journal) as journal:
                for i in range(len(items)):
                    journal.write({"kind": "map.item", "index": i, "fn": name})
        return outputs


def execute_cells(
    cells: Sequence[Cell],
    runner: Optional[ExperimentRunner] = None,
) -> List[CellResult]:
    """Run cells through ``runner``, or serially when ``runner`` is
    None — the shared entry point of the experiment sweep loops."""
    return (runner or ExperimentRunner()).run_cells(cells)
