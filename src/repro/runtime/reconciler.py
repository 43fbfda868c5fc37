"""The reconciling controller: events in, plan versions out.

The :class:`Reconciler` drives a live deployment through a
:class:`~repro.runtime.scenario.Scenario`.  For every debounce batch of
events it folds the batch into the :class:`~repro.runtime.state.WorldState`,
re-deploys the live workload on the current network under explicit
policies, rebinds the runtime :class:`~repro.control.Controller` to the
new plan, and appends the plan to the :class:`~repro.runtime.store.PlanStore`.

Replanning runs a three-rung escalation ladder, cheapest first:

1. **incremental** (``policy.incremental``, off by default) — the old
   plan is warm-repaired by :class:`~repro.runtime.incremental.
   IncrementalReplanner`: rebased verbatim when no placement lost its
   host, or delta-solved over the blast radius and spliced.  The rung
   escalates — deterministically, never on wall-clock — when the
   workload changed, the blast radius exceeds
   ``policy.max_blast_fraction``, or the repair machinery raises.
2. **full** — the cold path: ``deploy_fn`` re-deploys the live
   workload from scratch under the retry policy.
3. **patch** — the degraded mode: when the full replan blows
   ``replan_budget_s``, its result is discarded in favor of the
   cheapest feasible local patch
   (:func:`repro.runtime.patch.cheapest_patch`).

Policies (:class:`ReconcilerPolicy`):

* **Debounce** — events closer than ``debounce_s`` apart coalesce into
  one batch and one replan, so a correlated burst (a rack power event
  failing three switches within milliseconds) doesn't thrash the
  deployment through three intermediate plans.
* **Incremental first** — ``incremental`` turns rung 1 on;
  ``max_blast_fraction`` bounds how much of the deployment the delta
  mode may re-home before escalating to a cold solve.
* **Time budget** — when a full replan exceeds ``replan_budget_s``
  wall-clock, its result is discarded in favor of the cheapest feasible
  local patch (:func:`repro.runtime.patch.cheapest_patch`): minimal
  churn now, global optimality sacrificed.  ``None`` (the default)
  disables the fallback, which also makes plan histories exactly
  reproducible across machines of different speeds.
* **Bounded retry** — a replan that raises ``DeploymentError`` is
  retried up to ``max_retries`` more times with exponential virtual
  backoff (``retry_backoff_s * 2**attempt`` added to the convergence
  time); if every attempt fails the old plan stays active and the
  batch is recorded as unconverged.

Everything interesting is emitted on the :mod:`repro.telemetry` bus as
``runtime.*`` events, so a journal-enabled run records the full story.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.control.controller import Controller, RebindReport
from repro.control.migration import MatMove, compute_moves
from repro.core.hermes import Hermes
from repro.dataplane.program import Program
from repro.network.topology import Network
from repro.plan.artifact import DeploymentError, DeploymentPlan
from repro.plan.diff import PlanDiff
from repro.runtime.incremental import (
    IncrementalEscalation,
    IncrementalReplanner,
    same_workload as _same_workload,
)
from repro.runtime.patch import cheapest_patch
from repro.runtime.scenario import NetworkEvent, Scenario, batch_events
from repro.runtime.state import WorldState
from repro.runtime.store import PlanStore
from repro.telemetry import emit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import Engine

#: A pluggable deployment function: ``(programs, network) -> plan``.
DeployFn = Callable[[Sequence[Program], Network], DeploymentPlan]

#: The escalation rungs an :class:`EventOutcome` can record.
RUNG_INCREMENTAL = "incremental"
RUNG_FULL = "full"
RUNG_PATCH = "patch"
RUNG_NONE = "none"


@dataclass(frozen=True)
class ReconcilerPolicy:
    """The reconciler's knobs; see the module docstring for semantics."""

    replan_budget_s: Optional[float] = None
    max_retries: int = 2
    retry_backoff_s: float = 0.5
    debounce_s: float = 0.0
    incremental: bool = False
    max_blast_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.replan_budget_s is not None and self.replan_budget_s < 0:
            raise ValueError("replan_budget_s must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.debounce_s < 0:
            raise ValueError("debounce_s must be >= 0")
        if not 0.0 <= self.max_blast_fraction <= 1.0:
            raise ValueError("max_blast_fraction must be in [0, 1]")


@dataclass
class EventOutcome:
    """What one replan batch did to the deployment.

    ``transient_amax_bytes`` models the migration window where the old
    and new placements *coexist* (rules replayed, traffic still hitting
    both): each switch pair carries the sum of its old and new
    metadata bytes, and the transient ``A_max`` is the max over pairs
    of that sum — the worst per-packet overhead a flow can see while
    the migration is in flight.
    """

    batch_index: int
    time_s: float
    events: Tuple[NetworkEvent, ...]
    converged: bool
    attempts: int
    used_patch: bool
    rung: str = RUNG_FULL
    backoff_s: float = 0.0
    error: Optional[str] = None
    fingerprint_before: str = ""
    fingerprint_after: str = ""
    forced_moves: int = 0
    optimization_moves: int = 0
    rules_replayed: int = 0
    mats_dropped: int = 0
    mats_added: int = 0
    old_amax_bytes: int = 0
    new_amax_bytes: int = 0
    transient_amax_bytes: int = 0
    convergence_time_s: float = 0.0
    plan_diff: Optional[PlanDiff] = None

    @property
    def amax_delta_bytes(self) -> int:
        """Positive when the batch degraded the byte overhead."""
        return self.new_amax_bytes - self.old_amax_bytes

    @property
    def moves(self) -> int:
        return self.forced_moves + self.optimization_moves

    def to_dict(self) -> Dict[str, object]:
        return {
            "batch_index": self.batch_index,
            "time_s": self.time_s,
            "events": [e.to_dict() for e in self.events],
            "converged": self.converged,
            "attempts": self.attempts,
            "used_patch": self.used_patch,
            "rung": self.rung,
            "backoff_s": self.backoff_s,
            "error": self.error,
            "fingerprint_before": self.fingerprint_before,
            "fingerprint_after": self.fingerprint_after,
            "forced_moves": self.forced_moves,
            "optimization_moves": self.optimization_moves,
            "rules_replayed": self.rules_replayed,
            "mats_dropped": self.mats_dropped,
            "mats_added": self.mats_added,
            "old_amax_bytes": self.old_amax_bytes,
            "new_amax_bytes": self.new_amax_bytes,
            "transient_amax_bytes": self.transient_amax_bytes,
            "convergence_time_s": self.convergence_time_s,
        }


@dataclass
class ReconcileResult:
    """One scenario's full run: history, outcomes, and the controller."""

    scenario: Scenario
    store: PlanStore
    outcomes: List[EventOutcome] = field(default_factory=list)
    controller: Optional[Controller] = None

    @property
    def initial_fingerprint(self) -> str:
        return self.store.versions[0].fingerprint

    @property
    def final_plan(self) -> DeploymentPlan:
        latest = self.store.latest
        assert latest is not None
        return latest.plan

    def report(
        self,
        engine: Union[str, "Engine", None] = None,
        load: Optional[float] = None,
    ):
        """The disruption metrics (:class:`repro.runtime.DisruptionReport`).

        With an ``engine`` (a name or an engine) or a ``load`` the
        report's traffic-impact columns are populated by evaluating FCT
        inflation over the A_max trajectory (see
        :meth:`DisruptionReport.attach_traffic`); a ``load`` alone
        selects the contention engine's congestion model (queueing
        included in the inflation ratios).
        """
        from repro.runtime.report import DisruptionReport

        report = DisruptionReport.from_result(self)
        if engine or load is not None:
            report.attach_traffic(engine=engine, load=load)
        return report


def transient_amax(
    old_plan: DeploymentPlan, new_plan: DeploymentPlan
) -> int:
    """Worst per-pair bytes while both placements coexist.

    During the migration window each pair can carry its old *and* new
    metadata (rules replayed, traffic hitting both placements), so the
    per-pair overheads add.  When the plans are placement-identical no
    migration happens and there is no coexistence window — the value is
    simply the (common) steady-state ``A_max``.
    """
    if old_plan.placements == new_plan.placements:
        return max(
            old_plan.max_metadata_bytes(), new_plan.max_metadata_bytes()
        )
    old_pairs = old_plan.pair_metadata_bytes()
    new_pairs = new_plan.pair_metadata_bytes()
    pairs = set(old_pairs) | set(new_pairs)
    if not pairs:
        return 0
    return max(
        old_pairs.get(pair, 0) + new_pairs.get(pair, 0) for pair in pairs
    )


class Reconciler:
    """Replays a scenario against a live deployment.

    Args:
        programs: The initial workload.
        network: The base substrate (the scenario mutates a world view
            of it, never the object itself).
        policy: Replan policies; defaults to
            ``ReconcilerPolicy()`` (no budget, two retries, no
            debounce).
        deploy_fn: Deployment function ``(programs, network) -> plan``;
            defaults to the Hermes heuristic.  Tests inject flaky or
            slow functions here to exercise the retry and timeout
            policies deterministically.
        prepare_fn: Optional hook called with the freshly bound
            :class:`Controller` after the initial deployment, before
            any event is replayed — the place to install runtime rules
            so migrations have something to replay (see
            :func:`seed_rules`).
        epsilon1 / epsilon2 / replicate_hubs: Forwarded to the default
            Hermes deployment when ``deploy_fn`` is not given.
    """

    def __init__(
        self,
        programs: Sequence[Program],
        network: Network,
        policy: Optional[ReconcilerPolicy] = None,
        deploy_fn: Optional[DeployFn] = None,
        prepare_fn: Optional[Callable[[Controller], None]] = None,
        epsilon1: float = float("inf"),
        epsilon2: Optional[int] = None,
        replicate_hubs=False,
    ) -> None:
        self.programs = list(programs)
        self.network = network
        self.policy = policy or ReconcilerPolicy()
        self.prepare_fn = prepare_fn
        if deploy_fn is None:
            hermes = Hermes(
                epsilon1=epsilon1,
                epsilon2=epsilon2,
                replicate_hubs=replicate_hubs,
            )
            deploy_fn = lambda progs, net: hermes.deploy(progs, net).plan  # noqa: E731
        self.deploy_fn = deploy_fn
        self._incremental = (
            IncrementalReplanner(self.policy.max_blast_fraction)
            if self.policy.incremental
            else None
        )

    # ------------------------------------------------------------------
    def run(self, scenario: Scenario) -> ReconcileResult:
        """Replay every event batch; returns the full history."""
        world = WorldState(self.network, self.programs)
        store = PlanStore()
        emit(
            "runtime.scenario.start",
            scenario=scenario.name,
            seed=scenario.seed,
            events=len(scenario.events),
        )
        plan = self._call_deploy(
            world.current_programs(), world.current_network()
        )
        store.append(plan, time_s=0.0, reason="initial")
        controller = Controller(plan)
        if self.prepare_fn is not None:
            self.prepare_fn(controller)
        result = ReconcileResult(
            scenario=scenario, store=store, controller=controller
        )
        batches = batch_events(scenario.events, self.policy.debounce_s)
        for index, batch in enumerate(batches):
            outcome = self._reconcile_batch(
                index, batch, world, store, controller
            )
            result.outcomes.append(outcome)
        emit(
            "runtime.scenario.done",
            scenario=scenario.name,
            versions=len(store),
            digest=store.history_digest(),
        )
        return result

    # ------------------------------------------------------------------
    def _reconcile_batch(
        self,
        index: int,
        batch: List[NetworkEvent],
        world: WorldState,
        store: PlanStore,
        controller: Controller,
    ) -> EventOutcome:
        for event in batch:
            emit(
                "runtime.event",
                time_s=event.time_s,
                event_kind=event.kind,
                target=event.target,
            )
            world.apply(event)
        batch_time = batch[-1].time_s
        old_version = store.latest
        assert old_version is not None
        old_plan = old_version.plan
        emit(
            "runtime.replan.start",
            batch=index,
            time_s=batch_time,
            events=len(batch),
        )
        workload_changed = set(p.name for p in world.current_programs()) != {
            p.name for p in self.programs
        } or any(
            e.kind in ("workload_add", "workload_remove") for e in batch
        )
        new_plan, attempts, used_patch, elapsed_s, backoff_s, error, rung = (
            self._replan(world, old_plan)
        )
        outcome = EventOutcome(
            batch_index=index,
            time_s=batch_time,
            events=tuple(batch),
            converged=new_plan is not None,
            attempts=attempts,
            used_patch=used_patch,
            rung=rung,
            backoff_s=backoff_s,
            error=error,
            fingerprint_before=old_version.fingerprint,
            old_amax_bytes=old_plan.max_metadata_bytes(),
            convergence_time_s=elapsed_s + backoff_s,
        )
        if new_plan is None:
            emit(
                "runtime.replan.failed",
                batch=index,
                attempts=attempts,
                error=error,
            )
            outcome.fingerprint_after = old_version.fingerprint
            outcome.new_amax_bytes = outcome.old_amax_bytes
            outcome.transient_amax_bytes = outcome.old_amax_bytes
            return outcome

    # The old controller state feeds the replay accounting *before*
    # rebinding flushes it.
        installed = {
            name: controller.rules_to_replay(name)
            for name in old_plan.placements
            if name in new_plan.placements
        }
        vanished = world.vanished_hosts(old_plan.occupied_switches())
        moves, _unchanged = compute_moves(
            old_plan, new_plan, installed, vanished
        )
        rebind = controller.rebind(new_plan)
        version = store.append(new_plan, time_s=batch_time, reason=(
            "incremental"
            if rung == RUNG_INCREMENTAL
            else ("patch" if used_patch else "replan")
        ))
        # The store diffed (old_plan, new_plan) on append.
        self._fill_outcome(
            outcome, old_plan, new_plan, moves, rebind, store.latest_diff
        )
        outcome.fingerprint_after = version.fingerprint
        emit(
            "runtime.rebind",
            batch=index,
            replayed_rules=rebind.replayed_rules,
            moved=len(rebind.moved),
            dropped=len(rebind.dropped),
            added=len(rebind.added),
        )
        emit(
            "runtime.converged",
            batch=index,
            version=version.version,
            fingerprint=version.fingerprint,
            amax_bytes=outcome.new_amax_bytes,
            forced_moves=outcome.forced_moves,
            optimization_moves=outcome.optimization_moves,
            used_patch=used_patch,
            rung=rung,
            workload_changed=workload_changed,
        )
        return outcome

    @staticmethod
    def _fill_outcome(
        outcome: EventOutcome,
        old_plan: DeploymentPlan,
        new_plan: DeploymentPlan,
        moves: List[MatMove],
        rebind: RebindReport,
        plan_diff: PlanDiff,
    ) -> None:
        outcome.forced_moves = sum(1 for m in moves if m.forced)
        outcome.optimization_moves = len(moves) - outcome.forced_moves
        outcome.rules_replayed = sum(m.rules_to_replay for m in moves)
        outcome.mats_dropped = len(rebind.dropped)
        outcome.mats_added = len(rebind.added)
        outcome.new_amax_bytes = new_plan.max_metadata_bytes()
        outcome.transient_amax_bytes = transient_amax(old_plan, new_plan)
        outcome.plan_diff = plan_diff

    # ------------------------------------------------------------------
    def _call_deploy(
        self, programs: Sequence[Program], network: Network
    ) -> DeploymentPlan:
        return self.deploy_fn(programs, network)

    # ------------------------------------------------------------------
    def _replan(
        self, world: WorldState, old_plan: DeploymentPlan
    ) -> Tuple[
        Optional[DeploymentPlan], int, bool, float, float, Optional[str], str
    ]:
        """One policy-governed replan down the escalation ladder.

        Returns ``(plan, attempts, used_patch, elapsed_s, backoff_s,
        error, rung)``; ``plan`` is None when every attempt failed, in
        which case ``rung`` is :data:`RUNG_NONE`.
        """
        policy = self.policy
        programs = world.current_programs()
        network = world.current_network()
        workload_unchanged = _same_workload(old_plan, programs)

        # Rung 1: warm incremental repair.  Escalation is decided by
        # structure (workload, blast radius, feasibility) — never by
        # wall-clock — so warm histories replay deterministically.
        if self._incremental is not None:
            start = _time.perf_counter()
            try:
                plan, _mode = self._incremental.replan(
                    programs, network, old_plan
                )
            except IncrementalEscalation as exc:
                emit(
                    "runtime.replan.escalate",
                    reason=exc.reason,
                    error=str(exc),
                )
            else:
                elapsed = _time.perf_counter() - start
                return plan, 1, False, elapsed, 0.0, None, RUNG_INCREMENTAL

        # Rung 2: cold full replan under the retry policy.
        attempts = 0
        backoff_s = 0.0
        last_error: Optional[str] = None
        while attempts <= policy.max_retries:
            attempts += 1
            start = _time.perf_counter()
            try:
                plan = self._call_deploy(programs, network)
            except DeploymentError as exc:
                last_error = str(exc)
                emit(
                    "runtime.replan.retry",
                    attempt=attempts,
                    error=last_error,
                )
                if attempts <= policy.max_retries:
                    backoff_s += policy.retry_backoff_s * (
                        2 ** (attempts - 1)
                    )
                continue
            elapsed = _time.perf_counter() - start
            # Rung 3: the over-budget full plan is discarded for the
            # cheapest feasible local patch.
            if (
                policy.replan_budget_s is not None
                and elapsed > policy.replan_budget_s
                and workload_unchanged
            ):
                emit(
                    "runtime.replan.fallback",
                    elapsed_s=elapsed,
                    budget_s=policy.replan_budget_s,
                )
                try:
                    patched = cheapest_patch(old_plan, network)
                except DeploymentError as exc:
                    # The patch found no feasible local repair; the
                    # over-budget full replan is still a valid plan, so
                    # keep it rather than fail the batch.
                    emit(
                        "runtime.replan.patch_failed", error=str(exc)
                    )
                    return (
                        plan, attempts, False, elapsed, backoff_s, None,
                        RUNG_FULL,
                    )
                return (
                    patched, attempts, True, elapsed, backoff_s, None,
                    RUNG_PATCH,
                )
            return plan, attempts, False, elapsed, backoff_s, None, RUNG_FULL
        return None, attempts, False, 0.0, backoff_s, last_error, RUNG_NONE


def seed_rules(
    controller: Controller, per_mat: int = 4
) -> int:
    """Install deterministic runtime rules into every deployed table.

    The reproduction's program models carry empty baseline rule sets,
    so without this a migration replays nothing and the disruption
    report under-counts.  For each MAT with at least one match field
    and one action, installs up to ``per_mat`` exact-match rules (or
    fewer if capacity is tight).  Returns the total installed.

    Designed as a :class:`Reconciler` ``prepare_fn``:
    ``Reconciler(..., prepare_fn=seed_rules)``.
    """
    from repro.dataplane.rules import MatchKind, MatchSpec, Rule

    installed = 0
    for mat_name in sorted(controller.plan.placements):
        mat = controller.plan.tdg.node(mat_name)
        fields = sorted(mat.match_fields.names)
        actions = sorted(a.name for a in mat.actions)
        if not fields or not actions:
            continue
        handle = controller.table(mat_name)
        count = min(per_mat, handle.free_entries)
        for value in range(count):
            controller.install_rule(
                mat_name,
                Rule(
                    matches=(
                        MatchSpec(fields[0], MatchKind.EXACT, value),
                    ),
                    action_name=actions[0],
                ),
            )
            installed += 1
    return installed
