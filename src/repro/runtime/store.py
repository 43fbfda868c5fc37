"""Versioned history of deployment-plan artifacts.

Every plan the reconciler activates — the initial deployment and each
post-event re-deployment — is appended to a :class:`PlanStore` as an
immutable :class:`PlanVersion`, keyed by the plan's canonical
``repro.plan/v1`` fingerprint.  The store exposes the structural
:class:`~repro.plan.diff.PlanDiff` between consecutive versions and an
end-to-end diff, and digests the whole history into one hash so two
replays of the same scenario can be compared with a single string:
same events, same policies, same code ⇒ same ``history_digest()``.

Wall-clock timings deliberately never enter the store — versions carry
the *virtual* event time — so the determinism contract holds across
machines.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.atomic import atomic_write
from repro.plan.artifact import DeploymentPlan
from repro.plan.diff import PlanDiff, diff_plans
from repro.plan.serialize import canonical_dumps, read_plan, write_plan


class StoreReloadError(ValueError):
    """A written store directory cannot be reloaded faithfully."""


@dataclass(frozen=True)
class PlanVersion:
    """One entry of the plan history.

    Attributes:
        version: 0-based position in the history.
        fingerprint: SHA-256 of the plan's canonical serialization.
        time_s: Virtual time the plan became active.
        reason: Why it was produced: ``"initial"``, ``"incremental"``
            (warm rebase/splice), ``"replan"`` (cold full solve) or
            ``"patch"`` (the timeout fallback).
        plan: The plan artifact itself.
    """

    version: int
    fingerprint: str
    time_s: float
    reason: str
    plan: DeploymentPlan


class PlanStore:
    """Append-only plan history with consecutive-version diffs."""

    def __init__(self) -> None:
        self._versions: List[PlanVersion] = []
        self._by_fingerprint: Dict[str, DeploymentPlan] = {}
        self._diffs: List[PlanDiff] = []
        #: Directory -> how many leading versions write_dir put there.
        self._written: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(
        self, plan: DeploymentPlan, time_s: float, reason: str
    ) -> PlanVersion:
        """Record ``plan`` as the next active version."""
        fingerprint = plan.fingerprint()
        entry = PlanVersion(
            version=len(self._versions),
            fingerprint=fingerprint,
            time_s=time_s,
            reason=reason,
            plan=plan,
        )
        if self._versions:
            self._diffs.append(diff_plans(self._versions[-1].plan, plan))
        self._versions.append(entry)
        self._by_fingerprint.setdefault(fingerprint, plan)
        return entry

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._versions)

    @property
    def versions(self) -> List[PlanVersion]:
        return list(self._versions)

    @property
    def latest(self) -> Optional[PlanVersion]:
        return self._versions[-1] if self._versions else None

    def get(self, fingerprint: str) -> DeploymentPlan:
        """The plan with this fingerprint (any version that had it)."""
        try:
            return self._by_fingerprint[fingerprint]
        except KeyError:
            raise KeyError(
                f"no plan with fingerprint {fingerprint[:12]}..."
            ) from None

    def fingerprints(self) -> List[str]:
        """Per-version fingerprints, oldest first."""
        return [v.fingerprint for v in self._versions]

    def diffs(self) -> List[PlanDiff]:
        """Structural deltas between consecutive versions."""
        return list(self._diffs)

    @property
    def latest_diff(self) -> Optional[PlanDiff]:
        """The delta from the previous version to the latest one; None
        until the store holds two versions."""
        return self._diffs[-1] if self._diffs else None

    def end_to_end_diff(self) -> PlanDiff:
        """The delta from the first to the latest version."""
        if not self._versions:
            raise ValueError("empty plan store has no diff")
        return diff_plans(self._versions[0].plan, self._versions[-1].plan)

    def history_digest(self) -> str:
        """One hash over the whole history: fingerprints + diffs.

        Two reconciler runs that made the same decisions produce equal
        digests; anything that moved a MAT differently changes it.
        """
        doc = {
            "fingerprints": self.fingerprints(),
            "diffs": [d.to_dict() for d in self._diffs],
        }
        blob = canonical_dumps(doc)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable history summary (no embedded plans)."""
        return {
            "versions": [
                {
                    "version": v.version,
                    "fingerprint": v.fingerprint,
                    "time_s": v.time_s,
                    "reason": v.reason,
                    "a_max_bytes": v.plan.max_metadata_bytes(),
                    "occupied_switches": v.plan.num_occupied_switches(),
                }
                for v in self._versions
            ],
            "diffs": [d.to_dict() for d in self._diffs],
            "history_digest": self.history_digest(),
        }

    def write_dir(self, directory: str) -> List[str]:
        """Persist every version's full plan document plus the summary.

        Writes ``plan-<version>-<fp12>.json`` per version and
        ``history.json`` with the :meth:`to_dict` summary, each file
        atomically; returns every version's path, then the summary's.

        Versions never change, so a plan file this store has already
        written to ``directory`` is not written again: a store persisted
        after each append writes one plan file per call.  A store read
        back with :meth:`read_dir` writes every plan once more on its
        first call.  ``history.json`` is always rewritten.
        """
        os.makedirs(directory, exist_ok=True)
        key = os.path.abspath(directory)
        written = self._written.get(key, 0)
        paths: List[str] = []
        for v in self._versions:
            path = os.path.join(
                directory, f"plan-{v.version:03d}-{v.fingerprint[:12]}.json"
            )
            if v.version >= written:
                write_plan(v.plan, path)
                self._written[key] = v.version + 1
            paths.append(path)
        history = os.path.join(directory, "history.json")
        with atomic_write(history) as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(history)
        return paths

    @classmethod
    def read_dir(cls, directory: str) -> "PlanStore":
        """Rebuild a store from a :meth:`write_dir` directory.

        The server's session-recovery path: a reloaded store must be
        indistinguishable from the one that was written — same
        fingerprints, same per-step diffs, same ``history_digest()`` —
        and appending to it must continue the history seamlessly.
        Every plan document is re-read and re-fingerprinted, so a
        tampered or truncated directory raises
        :class:`StoreReloadError` instead of silently forking history.
        """
        history_path = os.path.join(directory, "history.json")
        try:
            with open(history_path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreReloadError(
                f"cannot read {history_path}: {exc}"
            ) from exc
        store = cls()
        for expected in doc.get("versions", []):
            version = int(expected["version"])
            fingerprint = expected["fingerprint"]
            path = os.path.join(
                directory, f"plan-{version:03d}-{fingerprint[:12]}.json"
            )
            try:
                # Appending re-fingerprints (and re-diffs) the loaded
                # plan, so a tampered document fails here rather than
                # poisoning the history.
                plan = read_plan(path)
                entry = store.append(
                    plan,
                    time_s=float(expected["time_s"]),
                    reason=expected["reason"],
                )
            except (OSError, ValueError, KeyError) as exc:
                raise StoreReloadError(
                    f"cannot load version {version}: {exc}"
                ) from exc
            if entry.fingerprint != fingerprint:
                raise StoreReloadError(
                    f"version {version} re-fingerprints to "
                    f"{entry.fingerprint[:12]}, history recorded "
                    f"{fingerprint[:12]}"
                )
        recorded = doc.get("history_digest")
        if recorded is not None and store.history_digest() != recorded:
            raise StoreReloadError(
                "reloaded history digest "
                f"{store.history_digest()[:12]} != recorded "
                f"{recorded[:12]}"
            )
        return store
