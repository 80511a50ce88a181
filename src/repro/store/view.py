"""Views and view replicas.

A *view* is the producer-pivoted list of events of one user (paper section
2.1).  The simulator mostly manipulates :class:`ViewReplica` objects — the
placement-relevant metadata of one copy of a view on one server — while the
actual event payloads live in :class:`View` and are only materialised by the
public key-value API (:mod:`repro.core.api`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .stats import AccessStatistics


@dataclass
class Event:
    """A single piece of user-produced content (opaque payload)."""

    producer: int
    timestamp: float
    payload: bytes = b""


@dataclass
class View:
    """Producer-pivoted materialised view: the events produced by one user.

    Events are kept in reverse chronological order (most recent first), which
    is how social feeds consume them.  ``version`` increases with every write
    so the cache-coherence protocol can detect stale replicas.
    """

    user: int
    events: list[Event] = field(default_factory=list)
    version: int = 0
    max_events: int | None = None

    def append(self, event: Event) -> None:
        """Add a new event and bump the version."""
        self.events.insert(0, event)
        if self.max_events is not None and len(self.events) > self.max_events:
            del self.events[self.max_events :]
        self.version += 1

    def latest(self, count: int) -> list[Event]:
        """The ``count`` most recent events."""
        return self.events[:count]

    def copy(self) -> "View":
        """Deep copy used when replicating a view to another server."""
        clone = View(user=self.user, version=self.version, max_events=self.max_events)
        clone.events = list(self.events)
        return clone


#: Utility value used for replicas that must never be evicted (sole replica
#: of a view, or fewer replicas than the configured minimum).
INFINITE_UTILITY = math.inf


@dataclass
class ViewReplica:
    """Placement metadata of one copy of a view on one storage server."""

    user: int
    server: int
    stats: AccessStatistics
    #: Cached utility of this replica, recomputed during maintenance ticks.
    utility: float = 0.0
    #: Index of the server hosting the next closest replica, or None when
    #: this is the only replica (paper: each replica stores the location of
    #: the next closest replica, used to estimate utility).
    next_closest_replica: int | None = None

    @property
    def is_sole_replica(self) -> bool:
        """True when no other replica exists in the system."""
        return self.next_closest_replica is None

    def effective_utility(self) -> float:
        """Utility used by eviction: infinite for sole replicas."""
        if self.is_sole_replica:
            return INFINITE_UTILITY
        return self.utility


__all__ = ["Event", "INFINITE_UTILITY", "View", "ViewReplica"]
