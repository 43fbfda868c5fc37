"""Per-connection session state: the warm-deploy path and its history.

A :class:`Session` is what makes the daemon more than a remote
procedure wrapper around :mod:`repro.server.ops`: it remembers the
plan a connection last deployed, so a repeat ``deploy`` with the same
solve-relevant params takes the warm incremental rung
(:class:`~repro.runtime.incremental.IncrementalReplanner` rebase) in
fractions of a millisecond instead of re-running the cold pipeline.
The session keeps one replanner instance alive across deploys, so its
delta formulation's :class:`~repro.milp.presolve.PresolveCache` and
warm incumbents carry over too.

The warm path is taken **only** when the solve-relevant params are
identical to the previous deploy's — exactly the case where a rebase
provably reproduces the cold plan (same placements, re-derived
routing/metrics ⇒ same fingerprint) — so the server/CLI byte
differential survives warmth: the deterministic view of a warm deploy
equals the cold CLI document for the same params.  Anything that could
change the solution (different workload, topology, seed, mode, ...)
falls back to the cold path.

Every activated plan is appended to a per-session
:class:`~repro.runtime.store.PlanStore` (versioned, diffed,
digest-comparable).  With a ``state_dir`` the history and the last
solve params are persisted after each deploy and recovered on
construction, so a re-attached session resumes its history — digest
continuity included — and its next identical deploy is warm again.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, Mapping, Optional

from repro.atomic import atomic_write
from repro.plan.serialize import canonical_dumps, plan_from_dict
from repro.runtime import (
    IncrementalEscalation,
    IncrementalReplanner,
    PlanStore,
    StoreReloadError,
)
from repro.server.ops import (
    DEPLOY_DEFAULTS,
    OpError,
    deploy_doc,
    deploy_op,
    plan_diff_op,
    resolve_params,
)
from repro.telemetry import emit

#: Deploy params that do not affect the produced plan — they only
#: decorate the result document, so they are excluded from the key
#: that decides warm-vs-cold.
_DECORATION_PARAMS = frozenset({"verify", "configs"})

#: Session state file written next to the plan history.
_SESSION_FILE = "session.json"


def solve_key(params: Mapping[str, Any]) -> str:
    """Canonical key over the solve-relevant deploy params."""
    return canonical_dumps(
        {k: v for k, v in params.items() if k not in _DECORATION_PARAMS}
    )


class Session:
    """One client's control-plane state on the server.

    Args:
        session_id: Server-assigned identifier (shown in telemetry
            and ``session_info``).
        state_dir: Optional directory for persistence/recovery.  If
            it already holds a written session, the plan history and
            last solve params are reloaded so the session continues
            where its predecessor stopped.
    """

    def __init__(
        self, session_id: str, state_dir: Optional[str] = None
    ) -> None:
        self.session_id = session_id
        self.state_dir = state_dir
        self.store = PlanStore()
        self.warm_hits = 0
        self.cold_solves = 0
        self.subscribed = False
        self._solve_key: Optional[str] = None
        self._current_plan = None
        self._replanner = IncrementalReplanner()
        self._recovered = False
        if state_dir and os.path.exists(
            os.path.join(state_dir, _SESSION_FILE)
        ):
            self._recover(state_dir)

    # ------------------------------------------------------------------
    # Ops with session state
    # ------------------------------------------------------------------
    def deploy(
        self,
        params: Optional[Mapping[str, Any]] = None,
        run_cold: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
    ) -> Dict[str, Any]:
        """Deploy, warm when possible, and record the plan version.

        ``run_cold`` lets the service route the cold solve through its
        process pool; it must behave exactly like
        :func:`repro.server.ops.deploy_op` on resolved params.

        Returns the op document plus a ``session`` section (outside
        the deterministic view) describing how this session produced
        it.
        """
        p = resolve_params(params, DEPLOY_DEFAULTS)
        key = solve_key(p)
        warm = None
        if self._current_plan is not None and key == self._solve_key:
            warm = self._warm_deploy(p)
        if warm is not None:
            doc, plan, source = warm
            self.warm_hits += 1
        else:
            # The cold document may come back from the process pool,
            # so its plan is parsed; a warm plan is kept as built, and
            # with it its TDG (and the TDG's serialization memo).
            doc = (run_cold or deploy_op)(p)
            plan = plan_from_dict(doc["plan"])
            source = "cold"
            self.cold_solves += 1
        reason = (
            "initial"
            if not len(self.store)
            else ("incremental" if source.startswith("warm") else "replan")
        )
        entry = self.store.append(
            plan, time_s=float(len(self.store)), reason=reason
        )
        self._current_plan = plan
        self._solve_key = key
        emit(
            "server.deploy",
            session=self.session_id,
            source=source,
            version=entry.version,
            fingerprint=entry.fingerprint,
        )
        if self.state_dir:
            self._persist(p)
        doc["session"] = {
            "source": source,
            "plan_version": entry.version,
            "recovered": self._recovered,
        }
        return doc

    def _warm_deploy(self, p: Dict[str, Any]):
        """Rebase the current plan onto freshly parsed inputs.

        Runs only when the solve key equals the current plan's, and the
        key pins the workload spec and seed, so the current plan's TDG
        is the requested workload and the replanner is asked directly.
        Returns ``(doc, plan, source)`` or None when the replanner
        escalates (the caller then takes the cold path — same result,
        slower).
        """
        from repro.cli import parse_topology, parse_workload

        start = time.perf_counter()
        try:
            programs = parse_workload(p["workload"], seed=p["seed"])
            network = parse_topology(p["topology"], seed=p["seed"])
        except (ValueError, KeyError) as exc:
            raise OpError(str(exc)) from exc
        try:
            plan, mode = self._replanner.replan(
                network, self._current_plan
            )
        except IncrementalEscalation as exc:
            emit(
                "server.warm_escalated",
                session=self.session_id,
                reason=str(exc),
            )
            return None
        wall_s = time.perf_counter() - start
        doc = deploy_doc(
            plan,
            num_programs=len(programs),
            params=p,
            solve_time_s=wall_s,
            wall_s=wall_s,
        )
        return doc, plan, f"warm:{mode}"

    def plan_diff(
        self, params: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Plan diff; ``old`` defaults to the session's current plan."""
        params = dict(params or {})
        if params.get("old") is None and self._current_plan is not None:
            params["old"] = self._current_plan.to_dict()
        if params.get("new") is None and self._current_plan is not None:
            params["new"] = self._current_plan.to_dict()
        return plan_diff_op(params)

    def info(self) -> Dict[str, Any]:
        """The ``session_info`` result document."""
        latest = self.store.latest
        return {
            "session_id": self.session_id,
            "deploys": self.warm_hits + self.cold_solves,
            "warm_hits": self.warm_hits,
            "cold_solves": self.cold_solves,
            "plan_version": latest.version if latest else None,
            "fingerprint": latest.fingerprint if latest else None,
            "history_digest": (
                self.store.history_digest() if len(self.store) else None
            ),
            "recovered": self._recovered,
            "subscribed": self.subscribed,
        }

    # ------------------------------------------------------------------
    # Persistence / recovery
    # ------------------------------------------------------------------
    def _persist(self, resolved_params: Dict[str, Any]) -> None:
        """Write the history and the solve params to ``state_dir``.

        Only the plan versions this session has not written yet get a
        file, so a deploy writes one plan document, not the history.
        """
        self.store.write_dir(self.state_dir)
        meta = {
            "schema": "repro.session/v1",
            "params": {
                k: v
                for k, v in resolved_params.items()
                if k not in _DECORATION_PARAMS
            },
            "warm_hits": self.warm_hits,
            "cold_solves": self.cold_solves,
        }
        path = os.path.join(self.state_dir, _SESSION_FILE)
        with atomic_write(path) as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def _recover(self, state_dir: str) -> None:
        """Resume from a persisted session directory.

        A failed recovery raises :class:`StoreReloadError` — a corrupt
        state dir must be noticed, not silently restarted cold.
        """
        path = os.path.join(state_dir, _SESSION_FILE)
        try:
            with open(path) as fh:
                meta = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreReloadError(f"cannot read {path}: {exc}") from exc
        self.store = PlanStore.read_dir(state_dir)
        latest = self.store.latest
        if latest is not None:
            self._current_plan = latest.plan
            self._solve_key = canonical_dumps(meta.get("params", {}))
        self.warm_hits = int(meta.get("warm_hits", 0))
        self.cold_solves = int(meta.get("cold_solves", 0))
        self._recovered = True
        emit(
            "server.session_recovered",
            session=self.session_id,
            versions=len(self.store),
        )
