"""Flash-event workload construction (paper section 4.6).

The experiment picks a random user, adds 100 random followers at day 2 and
removes them at day 7, then measures how the number of replicas of the user's
view and the per-replica read load evolve.  This module builds the small
event fragment produced by the flash crowd itself and merges it into an
existing workload.

Injection is a *merge of a small mutation stream*: the fragment (edge
mutations plus the followers' extra reads) is generated eagerly — it is tiny
compared to the base workload — sorted once, and combined with the base via
the stable k-way chunk merge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..constants import DAY
from ..exceptions import WorkloadError
from ..socialgraph.graph import SocialGraph
from ..socialgraph.mutations import random_new_followers
from .stream import (
    EventRow,
    EventStream,
    KIND_EDGE_ADD,
    KIND_EDGE_REMOVE,
    KIND_READ,
    NO_AUX,
    merge_streams,
)


@dataclass(frozen=True)
class FlashEventSpec:
    """Description of one flash event."""

    target_user: int
    new_followers: tuple[int, ...]
    start_time: float
    end_time: float

    def __post_init__(self) -> None:
        if self.end_time <= self.start_time:
            raise WorkloadError("flash event must end after it starts")


def plan_flash_event(
    graph: SocialGraph,
    rng: random.Random,
    followers: int = 100,
    start_day: float = 2.0,
    end_day: float = 7.0,
    target_user: int | None = None,
) -> FlashEventSpec:
    """Choose a target user and the followers joining during the flash event."""
    users = graph.users
    if not users:
        raise WorkloadError("cannot plan a flash event on an empty graph")
    if target_user is None:
        target_user = users[rng.randrange(len(users))]
    pairs = random_new_followers(graph, target_user, followers, rng)
    return FlashEventSpec(
        target_user=target_user,
        new_followers=tuple(follower for follower, _ in pairs),
        start_time=start_day * DAY,
        end_time=end_day * DAY,
    )


def flash_event_rows(
    spec: FlashEventSpec,
    reads_per_follower_per_day: float,
    rng: random.Random,
) -> list[EventRow]:
    """Sorted event rows produced by the flash event itself.

    The new followers actively read their feed while they follow the target
    user; those extra reads are what drives DynaSoRe to replicate the hot
    view.
    """
    rows: list[EventRow] = []
    duration_days = (spec.end_time - spec.start_time) / DAY
    for follower in spec.new_followers:
        rows.append((KIND_EDGE_ADD, spec.start_time, follower, spec.target_user))
        rows.append((KIND_EDGE_REMOVE, spec.end_time, follower, spec.target_user))
        reads = int(round(reads_per_follower_per_day * duration_days))
        for _ in range(reads):
            timestamp = rng.uniform(spec.start_time, spec.end_time)
            rows.append((KIND_READ, timestamp, follower, NO_AUX))
    rows.sort(key=lambda row: row[1])
    return rows


def flash_event_stream(
    spec: FlashEventSpec,
    reads_per_follower_per_day: float,
    rng: random.Random,
) -> EventStream:
    """The flash fragment as a (small, eagerly built) chunked stream."""
    return EventStream.from_rows(flash_event_rows(spec, reads_per_follower_per_day, rng))


def inject_flash_stream(
    base: EventStream,
    spec: FlashEventSpec,
    reads_per_follower_per_day: float = 4.0,
    seed: int = 7,
) -> EventStream:
    """Merge a flash event into a workload stream (lazy, chunk-level)."""
    rng = random.Random(seed)
    extra = flash_event_stream(spec, reads_per_follower_per_day, rng)
    return merge_streams(base, extra)


__all__ = [
    "FlashEventSpec",
    "flash_event_rows",
    "flash_event_stream",
    "inject_flash_stream",
    "plan_flash_event",
]
