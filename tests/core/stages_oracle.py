"""Stage layout and Algorithm 2's placement as they were before the
running-minimum window scan and the builder-free ``_place``, kept as the
tests' reference model.

:func:`repro.core.stages.earliest_window` keeps the minimum free
capacity of the window it grows and reads one stage per candidate
window; it must return the window the scan that re-reads every stage of
every candidate returned.  ``GreedyHeuristic._place`` concatenates the
segments' layouts and routes them with
:func:`repro.plan.artifact.first_meet_routing`; it must return what the
builder-based placement returned: the same placements and routing, both
in the same order, or raise the same exception with the same message at
the same point.  This module is that code, copied, not imported:
``legacy_earliest_window`` is the old ``earliest_window`` and
``legacy_place`` the old ``GreedyHeuristic._place`` (which read nothing
of ``self``).

Import it as a plain module (``from stages_oracle import ...``); it
deliberately contains no tests of its own.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.stages import assign_stages
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.plan.artifact import DeploymentPlan
from plan_builder_oracle import PlanBuilder
from repro.tdg.graph import Tdg


def legacy_earliest_window(
    free: List[float],
    demand: float,
    earliest: int,
    num_stages: int,
    tol: float = 1e-9,
) -> Optional[Tuple[int, int]]:
    """Earliest-finishing stage window able to host ``demand``.

    Returns 1-based ``(start, end)`` such that every stage in the window
    has at least ``demand / window_size`` free capacity, preferring the
    smallest end stage (keeps dependency chains short), then the fewest
    stages.  ``free`` is 0-indexed remaining capacity per stage.

    Shared by the intra-switch layout below and the virtual-pipeline
    chain scheduler in :mod:`repro.baselines.base` — both must pick
    windows by the same rule so a segment that fits on one switch fits
    identically when that switch appears in a chain.
    """
    for end in range(earliest, num_stages + 1):
        for size in range(1, end - earliest + 2):
            start = end - size + 1
            if start < earliest:
                continue
            share = demand / size
            if all(free[s - 1] + tol >= share for s in range(start, end + 1)):
                return start, end
    return None


def legacy_place(
    tdg: Tdg,
    network: Network,
    paths: PathEnumerator,
    segments: Sequence[Tdg],
    candidates: Sequence[str],
) -> DeploymentPlan:
    builder = PlanBuilder(tdg, network)
    for segment, host in zip(segments, candidates):
        layout = assign_stages(segment, network.switch(host))
        for placement in layout.values():
            builder.place(
                placement.mat_name, placement.switch, placement.stages
            )
    # Consecutive chain hops (Algorithm 2 lines 26-29) plus any
    # skip-level pairs created by edges spanning non-adjacent
    # segments: every communicating pair gets its shortest path.
    builder.route_shortest(paths)
    return builder.build()
