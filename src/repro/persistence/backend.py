"""Persistent store backing the in-memory cache (paper sections 2.1 and 3.3).

DynaSoRe follows the Facebook memcache architecture: a write is first
processed by the persistent store, which produces the new version of the
user's view and then notifies the in-memory store (the write proxy) to fetch
it.  The persistent store is the source of truth; the cache can always be
rebuilt from it after a crash.

This module implements that contract in process: views are materialised from
the write-ahead log, version numbers increase monotonically, and the cache
side pulls fresh copies through :meth:`PersistentStore.fetch_view`.
"""

from __future__ import annotations

from ..exceptions import PersistenceError
from ..store.view import Event, View
from .wal import WriteAheadLog


class PersistentStore:
    """Source-of-truth store for user views, backed by a write-ahead log."""

    def __init__(self, wal: WriteAheadLog | None = None, max_events_per_view: int = 100) -> None:
        # ``or`` would discard an *empty* log (it has len() == 0), so compare
        # against None explicitly.
        self.wal = wal if wal is not None else WriteAheadLog()
        self.max_events_per_view = max_events_per_view
        self._views: dict[int, View] = {}
        # Rebuild state from an existing log (recovery after restart).
        for record in self.wal.replay():
            if record.kind == "write":
                self._apply_write(record.user, record.timestamp, record.payload.encode())

    # ---------------------------------------------------------------- writes
    def process_write(self, user: int, timestamp: float, payload: bytes = b"") -> int:
        """Durably apply a user write and return the new view version.

        The record is appended to the write-ahead log *before* the in-memory
        view is updated, matching the paper's durability guarantee.
        """
        self.wal.append("write", user, timestamp, payload.decode(errors="ignore"))
        return self._apply_write(user, timestamp, payload)

    def _apply_write(self, user: int, timestamp: float, payload: bytes) -> int:
        view = self._views.get(user)
        if view is None:
            view = View(user=user, max_events=self.max_events_per_view)
            self._views[user] = view
        view.append(Event(producer=user, timestamp=timestamp, payload=payload))
        return view.version

    # ----------------------------------------------------------------- reads
    def fetch_view(self, user: int) -> View:
        """Return a copy of the current view of ``user`` (cache fill path)."""
        view = self._views.get(user)
        if view is None:
            # A user that never wrote still has an (empty) view.
            view = View(user=user, max_events=self.max_events_per_view)
            self._views[user] = view
        return view.copy()

    def current_version(self, user: int) -> int:
        """Version of the user's view (0 when the user never wrote)."""
        view = self._views.get(user)
        return view.version if view is not None else 0

    def has_view(self, user: int) -> bool:
        """True when the user has written at least once."""
        return user in self._views and self._views[user].version > 0

    def verify_integrity(self) -> None:
        """Check that materialised versions match the write-ahead log."""
        counts: dict[int, int] = {}
        for record in self.wal.replay():
            if record.kind == "write":
                counts[record.user] = counts.get(record.user, 0) + 1
        for user, expected in counts.items():
            actual = self.current_version(user)
            if actual != expected:
                raise PersistenceError(
                    f"view {user} has version {actual}, write-ahead log says {expected}"
                )


__all__ = ["PersistentStore"]
