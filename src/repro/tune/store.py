"""Persistent store of tuned configs.

A :class:`TuneStore` is a single JSON file mapping
``(geometry fingerprint, kernel, SLO, backend)`` keys to tuned
:class:`~repro.tune.search.TuneConfig` entries (plus the search report
that produced them).  The fingerprint is the structural
:func:`~repro.core.plan.tree_fingerprint` of a *canonical* tree built at
a fixed leaf size, so two registrations of the same point set hit the
same entry regardless of what leaf size the tuner eventually picks —
and any geometry change (points moved, added, removed) changes the key,
which is the cache-invalidation story: stale entries are simply never
looked up again, and :meth:`TuneStore.invalidate` garbage-collects them.

Writes are atomic (temp file + ``os.replace``) and the store is
versioned: a file with an unknown version or undecodable JSON is treated
as empty rather than trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.plan import tree_fingerprint
from repro.core.tree import build_tree
from repro.tune.search import SLO, TuneConfig

__all__ = ["TuneStore", "geometry_fingerprint", "resolve_config", "STORE_VERSION"]

STORE_VERSION = 1

#: Leaf size of the canonical fingerprint tree — fixed so the store key
#: does not depend on the (tuned, hence variable) production leaf size.
_FINGERPRINT_Q = 64


def geometry_fingerprint(points: np.ndarray) -> str:
    """Structural fingerprint of a point set for store keying."""
    pts = np.asarray(points, dtype=np.float64)
    return tree_fingerprint(build_tree(pts, _FINGERPRINT_Q))


class TuneStore:
    """Thread-safe JSON store of tuned configs; safe against corruption."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._lock = threading.Lock()

    # -- keying ------------------------------------------------------------

    @staticmethod
    def key(fingerprint: str, kernel: str, slo: SLO, backend: str) -> str:
        raw = f"{fingerprint}|{kernel}|{slo.key()}|{backend}"
        return hashlib.sha256(raw.encode()).hexdigest()[:24]

    # -- IO ----------------------------------------------------------------

    def _load(self) -> dict:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {"version": STORE_VERSION, "entries": {}}
        if not isinstance(data, dict) or data.get("version") != STORE_VERSION:
            return {"version": STORE_VERSION, "entries": {}}
        if not isinstance(data.get("entries"), dict):
            data["entries"] = {}
        return data

    def _save(self, data: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)

    # -- API ---------------------------------------------------------------

    def get(
        self, fingerprint: str, kernel: str, slo: SLO, backend: str = "cpu"
    ) -> TuneConfig | None:
        with self._lock:
            entry = self._load()["entries"].get(
                self.key(fingerprint, kernel, slo, backend)
            )
        if entry is None:
            return None
        try:
            return TuneConfig.from_dict(entry["config"])
        except (KeyError, TypeError):
            return None

    def put(
        self,
        fingerprint: str,
        kernel: str,
        slo: SLO,
        config: TuneConfig,
        backend: str = "cpu",
        report: dict | None = None,
    ) -> str:
        """Insert/overwrite one tuned entry; returns its store key."""
        key = self.key(fingerprint, kernel, slo, backend)
        with self._lock:
            data = self._load()
            data["entries"][key] = {
                "fingerprint": fingerprint,
                "kernel": kernel,
                "slo": slo.to_dict(),
                "backend": backend,
                "config": config.to_dict(),
                "report": report or {},
                "created_s": time.time(),
            }
            self._save(data)
        return key

    def invalidate(self, fingerprint: str | None = None) -> int:
        """Drop entries for one fingerprint (or every entry); returns count."""
        with self._lock:
            data = self._load()
            if fingerprint is None:
                n = len(data["entries"])
                data["entries"] = {}
            else:
                victims = [
                    k for k, e in data["entries"].items()
                    if e.get("fingerprint") == fingerprint
                ]
                n = len(victims)
                for k in victims:
                    del data["entries"][k]
            if n:
                self._save(data)
        return n

    def entries(self) -> list[dict]:
        with self._lock:
            return list(self._load()["entries"].values())


def resolve_config(
    store: TuneStore | None, points, kernel_name: str, slo: SLO, grid,
    search, backend: str = "cpu", refresh: bool = False,
):
    """Store lookup -> search -> persist: the one way a tuned config is
    resolved for (``points``, kernel, ``slo``, ``backend``) on ``grid``.

    ``search()`` runs the tuner and returns ``(config, report dict or
    None)``, which is also what this returns (report ``None`` on a store
    hit).  The store key does not cover the grid, so a stored config
    outside ``grid`` is a miss.  ``refresh`` skips the lookup: a re-tune
    searches because the stored entry is what drifted.  ``store=None``
    is just ``search()``.
    """
    if store is None:
        return search()
    fingerprint = geometry_fingerprint(points)
    if not refresh:
        hit = store.get(fingerprint, kernel_name, slo, backend)
        if hit is not None and hit in grid:
            return hit, None
    config, report = search()
    store.put(fingerprint, kernel_name, slo, config, backend=backend,
              report=report)
    return config, report
