"""Yahoo! News Activity style trace generator (paper section 4.2).

The paper's real workload is a proprietary two-week sample of Yahoo! News
Activity: 2.5M users, 17M writes and 9.8M reads, i.e. a *write-heavy* trace
(most reads happened on Facebook and never reached the Yahoo! logs), with a
strong diurnal pattern and day-to-day variation (Figure 2).  The users of the
trace are mapped onto the Facebook social graph by activity/degree rank.

This module generates a synthetic trace with the same observable properties:

* configurable duration (default 14 days);
* write-heavy global ratio (defaults to 17:9.8);
* sinusoidal diurnal modulation plus per-day random variation, so traffic
  varies over time the way Figure 2 shows;
* heavy-tailed per-user activity mapped onto graph users by degree rank,
  reproducing the paper's rank-join between trace users and graph users.

Generation is stream-native and windowed by simulated *day*: the per-day
event budget is fixed up front (proportional to the day's load factor), and
each day's events are drawn from per-model RNGs consumed in day order — so
the chunk size used to consume the stream can never change the trace.  A day
is emitted as three columns (kinds, timestamps, users), stable-sorted by
time and packed into chunks without a row per event.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

from ..constants import DAY, HOUR
from ..exceptions import WorkloadError
from ..socialgraph.graph import SocialGraph
from .stream import (
    CHUNK_EVENTS,
    EventChunk,
    EventStream,
    KIND_READ,
    KIND_WRITE,
    allocate_proportionally,
    pack_columns,
    time_ordered_columns,
)


@dataclass(frozen=True)
class NewsActivityTraceConfig:
    """Parameters of the Yahoo!-like trace."""

    days: float = 14.0
    #: Average number of writes per user over the whole trace.  The paper's
    #: trace has 17M writes for 2.5M users, i.e. 6.8 writes per user.
    writes_per_user: float = 6.8
    #: Ratio of reads to writes (9.8M / 17M in the paper's trace).
    read_write_ratio: float = 9.8 / 17.0
    #: Fraction of users that participate in the trace (the paper keeps only
    #: users with at least one read and one write).
    active_fraction: float = 1.0
    #: Amplitude of the diurnal modulation (0 disables it).
    diurnal_amplitude: float = 0.6
    #: Standard deviation of the per-day multiplicative noise.
    daily_noise: float = 0.25
    #: Pareto shape of per-user activity (smaller = heavier tail).
    activity_shape: float = 1.3
    seed: int = 7

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise WorkloadError("days must be positive")
        if not 0.0 < self.active_fraction <= 1.0:
            raise WorkloadError("active_fraction must be in (0, 1]")
        if self.activity_shape <= 0:
            raise WorkloadError("activity_shape must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise WorkloadError("diurnal_amplitude must be in [0, 1)")


class NewsActivityTraceGenerator:
    """Generates a write-heavy, diurnally-modulated request trace."""

    def __init__(
        self, graph: SocialGraph, config: NewsActivityTraceConfig | None = None
    ) -> None:
        self.graph = graph
        self.config = config or NewsActivityTraceConfig()

    # --------------------------------------------------------------- mapping
    def ranked_users(self) -> list[int]:
        """Graph users ordered by decreasing friend count.

        The paper ranks trace users by number of writes and graph users by
        number of friends and joins them by rank; we reproduce the same
        rank-based mapping by handing the heaviest trace activity to the
        best-connected graph users.
        """
        return sorted(
            self.graph.users,
            key=lambda user: (self.graph.in_degree(user) + self.graph.out_degree(user)),
            reverse=True,
        )

    def activity_profile(self, rng: random.Random) -> dict[int, float]:
        """Heavy-tailed per-user activity weight mapped by rank."""
        ranked = self.ranked_users()
        active_count = max(1, int(len(ranked) * self.config.active_fraction))
        active = ranked[:active_count]
        draws = sorted(
            (rng.paretovariate(self.config.activity_shape) for _ in active), reverse=True
        )
        return {user: draw for user, draw in zip(active, draws)}

    # ------------------------------------------------------------------ time
    def _daily_rates(self, rng: random.Random) -> list[float]:
        """Per-day multiplicative factors (day-to-day variation of Figure 2)."""
        days = int(math.ceil(self.config.days))
        factors = []
        for day in range(days):
            noise = max(0.2, rng.gauss(1.0, self.config.daily_noise))
            weekend = 0.85 if day % 7 in (5, 6) else 1.0
            factors.append(noise * weekend)
        return factors

    def _draw_hour(self, rng: random.Random) -> float:
        """Draw an hour-of-day honouring the diurnal cycle."""
        amplitude = self.config.diurnal_amplitude
        # Rejection-sample the hour against the diurnal curve: peak in the
        # evening (hour 20), trough early morning (hour 4).
        while True:
            hour = rng.uniform(0.0, 24.0)
            intensity = 1.0 + amplitude * math.sin((hour - 8.0) / 24.0 * 2.0 * math.pi)
            if rng.uniform(0.0, 1.0 + amplitude) <= intensity:
                return hour

    # --------------------------------------------------------------- streams
    def stream(self, chunk_size: int = CHUNK_EVENTS) -> EventStream:
        """The trace as a lazy, re-iterable chunked event stream."""
        return EventStream(lambda: self._chunks(chunk_size))

    def _chunks(self, chunk_size: int) -> Iterator[EventChunk]:
        config = self.config
        users = self.graph.users
        if not users:
            return iter(())

        profile_rng = random.Random(f"{config.seed}:trace:profile")
        activity = self.activity_profile(profile_rng)
        active_users = list(activity)
        weights = [activity[user] for user in active_users]
        daily = self._daily_rates(profile_rng)

        total_writes = int(round(len(active_users) * config.writes_per_user))
        total_reads = int(round(total_writes * config.read_write_ratio))
        # Day budgets combine the day's load factor with its width, so a
        # fractional final day carries proportionally fewer events and the
        # event rate tracks the daily factors across the whole span.
        end_of_trace = config.days * DAY
        day_fractions = [
            (min(end_of_trace, (day + 1) * DAY) - day * DAY) / DAY
            for day in range(len(daily))
        ]
        day_weights = [
            factor * fraction for factor, fraction in zip(daily, day_fractions)
        ]
        writes_per_day = allocate_proportionally(total_writes, day_weights)
        reads_per_day = allocate_proportionally(total_reads, day_weights)

        write_rng = random.Random(f"{config.seed}:trace:writes")
        read_rng = random.Random(f"{config.seed}:trace:reads")

        def batches():
            for day in range(len(daily)):
                kinds = b""
                users: list[int] = []
                timestamps: list[float] = []
                for kind, rng, count in (
                    (KIND_WRITE, write_rng, writes_per_day[day]),
                    (KIND_READ, read_rng, reads_per_day[day]),
                ):
                    kinds += bytes([kind]) * count
                    users += rng.choices(active_users, weights=weights, k=count)
                    for _ in range(count):
                        # Full days always pass first try; a fractional
                        # final day resamples the diurnal draw until the
                        # timestamp falls inside the trace (bounded, so a
                        # sliver-width day can never spin forever).
                        for _ in range(100):
                            timestamp = day * DAY + self._draw_hour(rng) * HOUR
                            if timestamp < end_of_trace:
                                break
                        else:
                            timestamp = math.nextafter(end_of_trace, day * DAY)
                        timestamps.append(timestamp)
                yield time_ordered_columns(kinds, timestamps, users)

        return pack_columns(batches(), chunk_size)


__all__ = [
    "NewsActivityTraceConfig",
    "NewsActivityTraceGenerator",
]
