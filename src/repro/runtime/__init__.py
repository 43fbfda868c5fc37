"""Network lifecycle runtime: churn simulation and reconciliation.

The static half of the reproduction answers "what is the best
deployment for this network?"; this package answers "what happens to a
*live* deployment when the network keeps changing?".  It provides:

* :mod:`repro.runtime.scenario` — seeded, serializable streams of
  timed churn events (``repro.scenario/v1``): switch failures and
  recoveries, drains, link latency changes, programmability flips,
  workload adds/removes;
* :mod:`repro.runtime.state` — :class:`WorldState`, the event-folded
  view of the substrate and workload;
* :mod:`repro.runtime.reconciler` — the :class:`Reconciler` loop that
  replans after each event batch down a three-rung escalation ladder
  (warm incremental repair, cold full replan, cheapest patch) under
  explicit policies (debounce, bounded retry, time budget) and rebinds
  the runtime controller;
* :mod:`repro.runtime.incremental` — :class:`IncrementalReplanner`,
  the warm rung: rebase when no placement lost its host, delta-solve
  and splice when the blast radius is small;
* :mod:`repro.runtime.store` — the append-only :class:`PlanStore`
  history of ``repro.plan/v1`` artifacts with consecutive diffs and a
  replay-comparable digest;
* :mod:`repro.runtime.patch` — :func:`cheapest_patch`, the degraded
  local repair used when a replan blows its time budget;
* :mod:`repro.runtime.report` — :class:`DisruptionReport`, the
  per-event and aggregate disruption metrics.
"""

from repro.runtime.incremental import (
    IncrementalEscalation,
    IncrementalReplanner,
    find_orphans,
)
from repro.runtime.patch import cheapest_patch
from repro.runtime.reconciler import (
    EventOutcome,
    ReconcileResult,
    Reconciler,
    ReconcilerPolicy,
    seed_rules,
    transient_amax,
)
from repro.runtime.report import DisruptionReport, TrajectoryPoint
from repro.runtime.scenario import (
    EventKind,
    NetworkEvent,
    Scenario,
    ScenarioError,
    batch_events,
    generate_scenario,
    read_scenario,
    write_scenario,
)
from repro.runtime.state import WorldState
from repro.runtime.store import PlanStore, PlanVersion, StoreReloadError

__all__ = [
    "DisruptionReport",
    "EventKind",
    "EventOutcome",
    "IncrementalEscalation",
    "IncrementalReplanner",
    "NetworkEvent",
    "PlanStore",
    "PlanVersion",
    "StoreReloadError",
    "ReconcileResult",
    "Reconciler",
    "ReconcilerPolicy",
    "Scenario",
    "ScenarioError",
    "TrajectoryPoint",
    "WorldState",
    "batch_events",
    "cheapest_patch",
    "find_orphans",
    "generate_scenario",
    "read_scenario",
    "write_scenario",
    "seed_rules",
    "transient_amax",
]
