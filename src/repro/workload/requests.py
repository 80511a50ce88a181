"""Request-log data model.

A request log is a time-ordered sequence of events the simulator replays:

* :class:`ReadRequest` — user ``u`` reads the views of the users she follows
  (the target list is resolved against the social graph at execution time, so
  graph mutations affect subsequent reads, as in the real system);
* :class:`WriteRequest` — user ``u`` produced an event, her view must be
  updated on every replica;
* :class:`EdgeAdded` / :class:`EdgeRemoved` — the social network evolved
  (used by the flash-event experiment and the dynamic-graph tests).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ReadRequest:
    """User ``user`` requests her feed (the views of everyone she follows)."""

    timestamp: float
    user: int


@dataclass(frozen=True, slots=True)
class WriteRequest:
    """User ``user`` produced an event; her view must be updated."""

    timestamp: float
    user: int


@dataclass(frozen=True, slots=True)
class EdgeAdded:
    """``follower`` started following ``followee``."""

    timestamp: float
    follower: int
    followee: int


@dataclass(frozen=True, slots=True)
class EdgeRemoved:
    """``follower`` stopped following ``followee``."""

    timestamp: float
    follower: int
    followee: int


Request = ReadRequest | WriteRequest | EdgeAdded | EdgeRemoved


__all__ = [
    "EdgeAdded",
    "EdgeRemoved",
    "ReadRequest",
    "Request",
    "WriteRequest",
]
