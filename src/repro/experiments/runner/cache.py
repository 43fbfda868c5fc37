"""Content-addressed on-disk cache of deployment records.

Entries are keyed by the SHA-256 fingerprint from
:mod:`repro.experiments.runner.cache_key` and stored as small JSON
files (``<root>/<k[:2]>/<key>.json``), so repeated sweep points and
re-runs of an experiment return :class:`DeploymentRecord` objects
without re-solving anything.  Writes are atomic
(:func:`repro.atomic.atomic_write`), making the cache safe to share
between concurrent runs; corrupt or version-skewed entries read as
misses.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.atomic import atomic_write
from repro.experiments.harness import DeploymentRecord
from repro.experiments.runner.cache_key import CACHE_KEY_VERSION


class ResultCache:
    """A directory of cached :class:`DeploymentRecord` results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[DeploymentRecord]:
        """The cached record for ``key``, or None on a miss."""
        entry = self.get_entry(key)
        return entry[0] if entry is not None else None

    def get_entry(
        self, key: str
    ) -> Optional[Tuple[DeploymentRecord, Optional[dict]]]:
        """The cached ``(record, plan_document)`` pair, or None.

        The plan document is the canonical ``repro.plan`` serialization
        stored by :meth:`put` (None for entries cached without one);
        reconstruct with :func:`repro.plan.plan_from_dict`.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if payload.get("version") != CACHE_KEY_VERSION:
            self.misses += 1
            return None
        fields = payload.get("record")
        try:
            record = DeploymentRecord(**fields)
        except TypeError:
            self.misses += 1
            return None
        self.hits += 1
        return record, payload.get("plan")

    def put(
        self,
        key: str,
        record: DeploymentRecord,
        plan: Optional[dict] = None,
    ) -> Path:
        """Store ``record`` (and optionally its serialized plan) under
        ``key`` (atomic replace)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_KEY_VERSION,
            "key": key,
            "record": dataclasses.asdict(record),
            "plan": plan,
        }
        with atomic_write(path) as fh:
            json.dump(payload, fh, indent=1)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self.root.glob("*/*.json"):
            entry.unlink()
            removed += 1
        return removed
