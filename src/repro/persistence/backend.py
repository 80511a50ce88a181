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

from array import array
from collections import Counter

from ..exceptions import PersistenceError
from ..store.view import Event, View
from .wal import WriteAheadLog


class PersistentStore:
    """Source-of-truth store for user views, backed by a write-ahead log.

    Per user it keeps a version count and the last ``max_events_per_view``
    event timestamps and payloads, oldest first; :class:`View` and
    :class:`Event` objects are built only by :meth:`fetch_view`.  Payload
    bytes are logged as ``surrogateescape`` text, so any bytes survive a
    rebuild from the log.
    """

    def __init__(self, wal: WriteAheadLog | None = None, max_events_per_view: int = 100) -> None:
        # ``or`` would discard an *empty* log (it has len() == 0), so compare
        # against None explicitly.
        self.wal = wal if wal is not None else WriteAheadLog()
        self.max_events_per_view = max_events_per_view
        self._versions: dict[int, int] = {}
        self._timestamps: dict[int, array] = {}
        self._payloads: dict[int, list[bytes]] = {}
        # Rebuild state from an existing log (recovery after restart).
        for user, timestamp, payload in self.wal.scan("write"):
            self._apply_write(user, timestamp, payload.encode(errors="surrogateescape"))

    # ---------------------------------------------------------------- writes
    def process_write(self, user: int, timestamp: float, payload: bytes = b"") -> int:
        """Durably apply a user write and return the new view version.

        The record is appended to the write-ahead log *before* the in-memory
        view is updated, matching the paper's durability guarantee.
        """
        self.wal.append("write", user, timestamp, payload.decode(errors="surrogateescape"))
        return self._apply_write(user, timestamp, payload)

    def _apply_write(self, user: int, timestamp: float, payload: bytes) -> int:
        version = self._versions.get(user, 0) + 1
        self._versions[user] = version
        if version == 1:
            timestamps = self._timestamps[user] = array("d")
            payloads = self._payloads[user] = []
        else:
            timestamps = self._timestamps[user]
            payloads = self._payloads[user]
        timestamps.append(timestamp)
        payloads.append(payload)
        limit = self.max_events_per_view
        if limit is not None and len(payloads) > limit:
            excess = len(payloads) - limit
            del timestamps[:excess]
            del payloads[:excess]
        return version

    # ----------------------------------------------------------------- reads
    def fetch_view(self, user: int) -> View:
        """Return a copy of the current view of ``user`` (cache fill path).

        A user that never wrote has an empty view at version 0.
        """
        view = View(
            user=user, version=self.current_version(user), max_events=self.max_events_per_view
        )
        if view.version:
            view.events = [
                Event(producer=user, timestamp=timestamp, payload=payload)
                for timestamp, payload in zip(
                    reversed(self._timestamps[user]), reversed(self._payloads[user])
                )
            ]
        return view

    def current_version(self, user: int) -> int:
        """Version of the user's view (0 when the user never wrote)."""
        return self._versions.get(user, 0)

    def has_view(self, user: int) -> bool:
        """True when the user has written at least once."""
        return user in self._versions

    def verify_integrity(self) -> None:
        """Check that materialised versions match the write-ahead log."""
        counts = Counter(user for user, _, _ in self.wal.scan("write"))
        for user, expected in counts.items():
            actual = self.current_version(user)
            if actual != expected:
                raise PersistenceError(
                    f"view {user} has version {actual}, write-ahead log says {expected}"
                )


__all__ = ["PersistentStore"]
