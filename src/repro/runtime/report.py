"""Disruption metrics over one reconciled scenario.

The :class:`DisruptionReport` answers the operational questions the
paper's static experiments can't: when the network churns under a live
deployment, *how much does each event hurt*?  It aggregates the
reconciler's per-batch :class:`~repro.runtime.reconciler.EventOutcome`
records into:

* MAT moves (forced vs optimization) and rules replayed per event;
* which escalation rung served each batch (warm incremental repair,
  cold full replan, cheapest patch) plus the retry cost (attempts,
  virtual backoff) the ladder paid;
* the per-pair byte-overhead trajectory over virtual time, including
  the transient migration windows where both placements coexist;
* time-to-converge per event (replan latency plus retry backoff);
* the fraction of events whose replan *degraded* vs *improved*
  ``A_max`` relative to the pre-event plan.

The report is a plain serializable value: ``to_dict``/``from_dict``
round-trip it through JSON, and :meth:`render` pretty-prints the event
table for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING, Union

from repro.experiments.reporting import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.reconciler import ReconcileResult
    from repro.simulation.engine import Engine

REPORT_SCHEMA = "repro.disruption/v1"


@dataclass(frozen=True)
class TrajectoryPoint:
    """One sample of the byte-overhead trajectory.

    ``transient`` marks the migration window sample: the worst-pair
    overhead while old and new placements coexist, always >= both
    steady-state neighbors.
    """

    time_s: float
    amax_bytes: int
    transient: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_s": self.time_s,
            "amax_bytes": self.amax_bytes,
            "transient": self.transient,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TrajectoryPoint":
        return cls(
            time_s=float(doc["time_s"]),
            amax_bytes=int(doc["amax_bytes"]),
            transient=bool(doc.get("transient", False)),
        )


@dataclass
class DisruptionReport:
    """Aggregated disruption metrics for one scenario run."""

    scenario_name: str
    scenario_seed: int
    scenario_fingerprint: str
    history_digest: str
    num_events: int
    num_batches: int
    num_converged: int
    plan_versions: int
    forced_moves: int
    optimization_moves: int
    rules_replayed: int
    degraded_batches: int
    improved_batches: int
    neutral_batches: int
    incremental_batches: int
    full_batches: int
    patch_batches: int
    total_attempts: int
    total_backoff_s: float
    mean_convergence_s: float
    max_convergence_s: float
    initial_amax_bytes: int
    final_amax_bytes: int
    peak_transient_amax_bytes: int
    trajectory: List[TrajectoryPoint] = field(default_factory=list)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Traffic impact (set by :meth:`attach_traffic`): FCT inflation of
    #: the scalar end-to-end model evaluated over the A_max trajectory,
    #: including the transient-coexistence windows.  ``traffic_engine``
    #: is empty until attached.  When the contention engine priced the
    #: trajectory, ``traffic_load`` records the offered bottleneck
    #: utilization (0.0 = independent-flow engine, no queueing) and the
    #: fct ratios include the metadata's queueing amplification — the
    #: congestion columns.
    traffic_engine: str = ""
    traffic_load: float = 0.0
    initial_fct_ratio: float = 1.0
    final_fct_ratio: float = 1.0
    peak_transient_fct_ratio: float = 1.0

    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result: "ReconcileResult") -> "DisruptionReport":
        """Fold a reconciler run into the report."""
        outcomes = result.outcomes
        versions = result.store.versions
        initial = versions[0]
        trajectory: List[TrajectoryPoint] = [
            TrajectoryPoint(0.0, initial.plan.max_metadata_bytes())
        ]
        rows: List[Dict[str, Any]] = []
        converged = [o for o in outcomes if o.converged]
        for outcome in outcomes:
            rows.append(outcome.to_dict())
            if outcome.converged:
                if outcome.transient_amax_bytes:
                    trajectory.append(
                        TrajectoryPoint(
                            outcome.time_s,
                            outcome.transient_amax_bytes,
                            transient=True,
                        )
                    )
                trajectory.append(
                    TrajectoryPoint(
                        outcome.time_s + outcome.convergence_time_s,
                        outcome.new_amax_bytes,
                    )
                )
        degraded = sum(1 for o in converged if o.amax_delta_bytes > 0)
        improved = sum(1 for o in converged if o.amax_delta_bytes < 0)
        times = [o.convergence_time_s for o in converged]
        latest = result.store.latest
        assert latest is not None
        return cls(
            scenario_name=result.scenario.name,
            scenario_seed=result.scenario.seed,
            scenario_fingerprint=result.scenario.fingerprint(),
            history_digest=result.store.history_digest(),
            num_events=len(result.scenario.events),
            num_batches=len(outcomes),
            num_converged=len(converged),
            plan_versions=len(versions),
            forced_moves=sum(o.forced_moves for o in converged),
            optimization_moves=sum(
                o.optimization_moves for o in converged
            ),
            rules_replayed=sum(o.rules_replayed for o in converged),
            degraded_batches=degraded,
            improved_batches=improved,
            neutral_batches=len(converged) - degraded - improved,
            incremental_batches=sum(
                1 for o in converged if o.rung == "incremental"
            ),
            full_batches=sum(1 for o in converged if o.rung == "full"),
            patch_batches=sum(1 for o in converged if o.rung == "patch"),
            total_attempts=sum(o.attempts for o in outcomes),
            total_backoff_s=sum(o.backoff_s for o in outcomes),
            mean_convergence_s=(
                sum(times) / len(times) if times else 0.0
            ),
            max_convergence_s=max(times, default=0.0),
            initial_amax_bytes=initial.plan.max_metadata_bytes(),
            final_amax_bytes=latest.plan.max_metadata_bytes(),
            peak_transient_amax_bytes=max(
                (o.transient_amax_bytes for o in converged), default=0
            ),
            trajectory=trajectory,
            rows=rows,
        )

    # ------------------------------------------------------------------
    @property
    def moves(self) -> int:
        return self.forced_moves + self.optimization_moves

    @property
    def degraded_fraction(self) -> float:
        """Fraction of converged batches whose replan raised ``A_max``."""
        return (
            self.degraded_batches / self.num_converged
            if self.num_converged
            else 0.0
        )

    @property
    def improved_fraction(self) -> float:
        return (
            self.improved_batches / self.num_converged
            if self.num_converged
            else 0.0
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "scenario_name": self.scenario_name,
            "scenario_seed": self.scenario_seed,
            "scenario_fingerprint": self.scenario_fingerprint,
            "history_digest": self.history_digest,
            "num_events": self.num_events,
            "num_batches": self.num_batches,
            "num_converged": self.num_converged,
            "plan_versions": self.plan_versions,
            "forced_moves": self.forced_moves,
            "optimization_moves": self.optimization_moves,
            "rules_replayed": self.rules_replayed,
            "degraded_batches": self.degraded_batches,
            "improved_batches": self.improved_batches,
            "neutral_batches": self.neutral_batches,
            "incremental_batches": self.incremental_batches,
            "full_batches": self.full_batches,
            "patch_batches": self.patch_batches,
            "total_attempts": self.total_attempts,
            "total_backoff_s": self.total_backoff_s,
            "mean_convergence_s": self.mean_convergence_s,
            "max_convergence_s": self.max_convergence_s,
            "initial_amax_bytes": self.initial_amax_bytes,
            "final_amax_bytes": self.final_amax_bytes,
            "peak_transient_amax_bytes": self.peak_transient_amax_bytes,
            "trajectory": [p.to_dict() for p in self.trajectory],
            "rows": self.rows,
            "traffic_engine": self.traffic_engine,
            "traffic_load": self.traffic_load,
            "initial_fct_ratio": self.initial_fct_ratio,
            "final_fct_ratio": self.final_fct_ratio,
            "peak_transient_fct_ratio": self.peak_transient_fct_ratio,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "DisruptionReport":
        schema = doc.get("schema")
        if schema != REPORT_SCHEMA:
            raise ValueError(
                f"expected schema {REPORT_SCHEMA!r}, got {schema!r}"
            )
        return cls(
            scenario_name=doc["scenario_name"],
            scenario_seed=int(doc["scenario_seed"]),
            scenario_fingerprint=doc["scenario_fingerprint"],
            history_digest=doc["history_digest"],
            num_events=int(doc["num_events"]),
            num_batches=int(doc["num_batches"]),
            num_converged=int(doc["num_converged"]),
            plan_versions=int(doc["plan_versions"]),
            forced_moves=int(doc["forced_moves"]),
            optimization_moves=int(doc["optimization_moves"]),
            rules_replayed=int(doc["rules_replayed"]),
            degraded_batches=int(doc["degraded_batches"]),
            improved_batches=int(doc["improved_batches"]),
            neutral_batches=int(doc["neutral_batches"]),
            # Rung accounting shipped after v1 docs existed; default
            # pre-ladder documents to all-full histories.
            incremental_batches=int(doc.get("incremental_batches", 0)),
            full_batches=int(
                doc.get("full_batches", doc["num_converged"])
            ),
            patch_batches=int(doc.get("patch_batches", 0)),
            total_attempts=int(doc.get("total_attempts", 0)),
            total_backoff_s=float(doc.get("total_backoff_s", 0.0)),
            mean_convergence_s=float(doc["mean_convergence_s"]),
            max_convergence_s=float(doc["max_convergence_s"]),
            initial_amax_bytes=int(doc["initial_amax_bytes"]),
            final_amax_bytes=int(doc["final_amax_bytes"]),
            peak_transient_amax_bytes=int(
                doc["peak_transient_amax_bytes"]
            ),
            trajectory=[
                TrajectoryPoint.from_dict(p)
                for p in doc.get("trajectory", [])
            ],
            rows=list(doc.get("rows", [])),
            traffic_engine=str(doc.get("traffic_engine", "")),
            traffic_load=float(doc.get("traffic_load", 0.0)),
            initial_fct_ratio=float(doc.get("initial_fct_ratio", 1.0)),
            final_fct_ratio=float(doc.get("final_fct_ratio", 1.0)),
            peak_transient_fct_ratio=float(
                doc.get("peak_transient_fct_ratio", 1.0)
            ),
        )

    # ------------------------------------------------------------------
    def attach_traffic(
        self,
        engine: Union[str, "Engine", None] = None,
        packet_payload_bytes: int = 1024,
        load: Optional[float] = None,
        flows: int = 64,
    ) -> "DisruptionReport":
        """Evaluate FCT inflation over the A_max trajectory.

        Every distinct overhead level the scenario visited — steady
        states *and* the transient-coexistence windows where old and
        new placements piggyback metadata simultaneously — is pushed
        through the end-to-end traffic model
        (:func:`repro.simulation.engine.overhead_impact`) with the
        engine that ``engine`` and ``load`` select
        (:func:`repro.simulation.engine.get_engine`).  Per-batch rows
        gain ``fct_ratio`` / ``transient_fct_ratio`` keys and the
        report gains the initial/final/peak-transient summary columns.

        The contention engine (a ``load``, or ``engine="contention"``)
        switches to the congestion model: ``flows`` copies of the
        message share the uniform path's output queue at that
        utilization, so the ratios price the metadata's *queueing
        amplification* on top of its pipeline tax and ``traffic_load``
        records the knob.  Returns ``self`` (mutated) for chaining.
        """
        from repro.simulation.contention import (
            DEFAULT_LOAD,
            ContentionEngine,
        )
        from repro.simulation.engine import get_engine, overhead_impact

        resolved = get_engine(engine, load)
        congested = isinstance(resolved, ContentionEngine)
        population = flows if congested else 1
        cache: Dict[int, float] = {}

        def inflation(amax_bytes: int) -> float:
            if amax_bytes not in cache:
                cache[amax_bytes] = overhead_impact(
                    amax_bytes,
                    packet_payload_bytes=packet_payload_bytes,
                    engine=resolved,
                    flows=population,
                )[0]
            return cache[amax_bytes]

        for row in self.rows:
            if row.get("converged"):
                row["fct_ratio"] = inflation(int(row["new_amax_bytes"]))
                row["transient_fct_ratio"] = inflation(
                    int(row["transient_amax_bytes"])
                )
        self.traffic_engine = resolved.name
        if congested:
            self.traffic_load = (
                resolved.load if resolved.load is not None else DEFAULT_LOAD
            )
        else:
            self.traffic_load = 0.0
        self.initial_fct_ratio = inflation(self.initial_amax_bytes)
        self.final_fct_ratio = inflation(self.final_amax_bytes)
        self.peak_transient_fct_ratio = max(
            (
                inflation(point.amax_bytes)
                for point in self.trajectory
                if point.transient
            ),
            default=inflation(self.peak_transient_amax_bytes),
        )
        return self

    @property
    def has_traffic(self) -> bool:
        """Whether :meth:`attach_traffic` populated the FCT columns."""
        return bool(self.traffic_engine)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The CLI-facing text report: summary lines + event table."""
        lines = [
            f"Scenario {self.scenario_name!r} "
            f"(seed {self.scenario_seed}): "
            f"{self.num_events} events in {self.num_batches} batches, "
            f"{self.num_converged} converged, "
            f"{self.plan_versions} plan versions",
            f"Moves: {self.forced_moves} forced + "
            f"{self.optimization_moves} optimization "
            f"({self.rules_replayed} rules replayed)",
            f"A_max: {self.initial_amax_bytes} B -> "
            f"{self.final_amax_bytes} B "
            f"(peak transient {self.peak_transient_amax_bytes} B)",
            f"Replans: {self.degraded_batches} degraded / "
            f"{self.improved_batches} improved / "
            f"{self.neutral_batches} neutral; "
            f"convergence mean {self.mean_convergence_s * 1e3:.1f} ms, "
            f"max {self.max_convergence_s * 1e3:.1f} ms",
            f"Rungs: {self.incremental_batches} incremental / "
            f"{self.full_batches} full / {self.patch_batches} patch; "
            f"{self.total_attempts} attempts, "
            f"backoff {self.total_backoff_s:.1f} s",
            f"History digest: {self.history_digest[:16]}...",
        ]
        if self.has_traffic:
            congestion = (
                f" at load {self.traffic_load:.2f}"
                if self.traffic_load
                else ""
            )
            lines.append(
                f"Traffic impact ({self.traffic_engine} engine"
                f"{congestion}): "
                f"FCT x{self.initial_fct_ratio:.4f} -> "
                f"x{self.final_fct_ratio:.4f} "
                f"(peak transient x{self.peak_transient_fct_ratio:.4f})"
            )
        lines.append("")
        headers = [
            "batch", "t (s)", "events", "converged", "rung", "tries",
            "forced", "opt", "rules", "A_max (B)", "transient (B)",
            "conv (ms)",
        ]
        if self.has_traffic:
            headers += ["FCT x", "transient FCT x"]
        table = Table(title="Per-batch disruption", headers=headers)
        for row in self.rows:
            cells = [
                row["batch_index"],
                f"{row['time_s']:.2f}",
                ",".join(e["kind"] for e in row["events"]),
                "yes" if row["converged"] else "NO",
                row.get("rung", "full"),
                row.get("attempts", 1),
                row["forced_moves"],
                row["optimization_moves"],
                row["rules_replayed"],
                row["new_amax_bytes"],
                row["transient_amax_bytes"],
                f"{row['convergence_time_s'] * 1e3:.1f}",
            ]
            if self.has_traffic:
                cells += [
                    (
                        f"{row['fct_ratio']:.4f}"
                        if "fct_ratio" in row
                        else "-"
                    ),
                    (
                        f"{row['transient_fct_ratio']:.4f}"
                        if "transient_fct_ratio" in row
                        else "-"
                    ),
                ]
            table.add_row(cells)
        lines.append(table.render())
        return "\n".join(lines)
