"""A record cut short by a solver's wall-clock limit is never cached.

Such a record (``timed_out=True``) depends on how loaded the machine
was, while its cache key names only the cell's content; caching it
would replay one slow run's result forever.  The runner therefore
stores only the records that did not time out, both when a run
completes and when an interrupt cuts it short.

The cells run through a fake ``_execute_cell`` (and a thread pool for
``workers=2``), so which cell times out is fixed by its tag.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.baselines import HermesHeuristic
from repro.experiments.harness import DeploymentRecord
from repro.experiments.runner import Cell, ExperimentRunner, RunnerInterrupted
from repro.experiments.runner import executor as executor_module


class FakeCells:
    """``_execute_cell`` stand-in: ``slow`` cells time out,
    ``interrupt`` cells raise KeyboardInterrupt; records what ran."""

    def __init__(self) -> None:
        self.ran = []

    def __call__(self, cell: Cell, paths=None):
        if cell.tag == "interrupt":
            raise KeyboardInterrupt
        self.ran.append(cell.tag)
        record = DeploymentRecord(
            framework="fake",
            overhead_bytes=8,
            solve_time_s=0.0,
            timed_out=cell.tag == "slow",
            occupied_switches=1,
        )
        return record, [], {"tag": cell.tag}


@pytest.fixture
def fake(monkeypatch):
    fake = FakeCells()
    monkeypatch.setattr(executor_module, "_execute_cell", fake)
    monkeypatch.setattr(
        ExperimentRunner, "_executor_factory", staticmethod(ThreadPoolExecutor)
    )
    return fake


@pytest.fixture
def cells(six_programs, small_line):
    framework = HermesHeuristic()
    sizes = {"ok": 2, "slow": 3, "also-ok": 4, "interrupt": 5}

    def make(tag: str) -> Cell:
        # Distinct program tuples keep the cache keys distinct.
        return Cell(
            programs=tuple(six_programs[: sizes[tag]]),
            network=small_line,
            framework=framework,
            tag=tag,
        )

    return make


@pytest.mark.parametrize("workers", [1, 2])
def test_timed_out_cell_solves_again(fake, cells, tmp_path, workers):
    cache_dir = str(tmp_path / "cache")
    batch = [cells("ok"), cells("slow"), cells("also-ok")]
    first = ExperimentRunner(workers=workers, cache_dir=cache_dir)
    assert [r.cached for r in first.run_cells(batch)] == [False] * 3

    fake.ran.clear()
    again = ExperimentRunner(workers=workers, cache_dir=cache_dir)
    results = again.run_cells(batch)
    assert [r.cached for r in results] == [True, False, True]
    assert [r.record.timed_out for r in results] == [False, True, False]
    assert fake.ran == ["slow"]


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupt_caches_only_cells_that_did_not_time_out(
    fake, cells, tmp_path, workers
):
    cache_dir = str(tmp_path / "cache")
    first = ExperimentRunner(workers=workers, cache_dir=cache_dir)
    with pytest.raises(RunnerInterrupted) as excinfo:
        first.run_cells([cells("ok"), cells("slow"), cells("interrupt")])
    assert [r.cell.tag for r in excinfo.value.partial] == ["ok", "slow"]

    fake.ran.clear()
    again = ExperimentRunner(workers=workers, cache_dir=cache_dir)
    results = again.run_cells([cells("ok"), cells("slow")])
    assert [r.cached for r in results] == [True, False]
    assert fake.ran == ["slow"]
