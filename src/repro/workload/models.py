"""Additional workload models for scenario diversity.

The paper evaluates an evenly-spread synthetic workload and a diurnal
trace; real social traffic is burstier than either.  Two stream-native
models widen the scenario space:

* :class:`ParetoBurstWorkloadGenerator` — interarrival gaps drawn from a
  Pareto distribution, so traffic arrives in heavy-tailed bursts separated
  by lulls.  Adaptive placement must not thrash when the arrival process
  itself is bursty, not just when the *who* changes;
* :class:`CelebrityReadStormGenerator` — a background workload plus read
  storms around the best-connected users: a celebrity posts, and her
  followers pile onto her view within a short window.  This concentrates
  read load on a few hot views without any graph mutation (the flash-event
  experiment's complement).

Both generators emit chunked columnar streams and derive randomness from
one dedicated ``random.Random`` per model (and per celebrity for storms),
consumed in stream order — chunk boundaries never perturb the draws.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

from ..constants import DAY, HOUR
from ..exceptions import WorkloadError
from ..socialgraph.graph import SocialGraph
from .stream import (
    CHUNK_EVENTS,
    EventChunk,
    EventRow,
    EventStream,
    KIND_READ,
    KIND_WRITE,
    NO_AUX,
    merge_streams,
    pack_rows,
)


# ---------------------------------------------------------------------------
# Pareto-bursty interarrivals
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ParetoBurstConfig:
    """Parameters of the bursty-arrival workload."""

    #: Expected simulated span in days (heavy tails may overshoot slightly).
    days: float = 1.0
    #: Average number of events (reads + writes) per user per day.
    events_per_user_per_day: float = 5.0
    #: Fraction of events that are reads.
    read_fraction: float = 0.8
    #: Pareto shape of the interarrival gaps; must exceed 1 so the mean gap
    #: exists.  Values close to 1 give extreme burstiness.
    shape: float = 1.5
    seed: int = 7

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise WorkloadError("days must be positive")
        if self.events_per_user_per_day <= 0:
            raise WorkloadError("events_per_user_per_day must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError("read_fraction must lie in [0, 1]")
        if self.shape <= 1.0:
            raise WorkloadError("shape must exceed 1 (finite mean interarrival)")


class ParetoBurstWorkloadGenerator:
    """Degree-weighted workload with Pareto-distributed interarrival gaps."""

    def __init__(self, graph: SocialGraph, config: ParetoBurstConfig | None = None) -> None:
        self.graph = graph
        self.config = config or ParetoBurstConfig()

    def total_events(self) -> int:
        """Number of events the stream will emit."""
        config = self.config
        return int(round(self.graph.num_users * config.events_per_user_per_day * config.days))

    def stream(self, chunk_size: int = CHUNK_EVENTS) -> EventStream:
        """The workload as a lazy, re-iterable chunked event stream."""
        return EventStream(lambda: self._chunks(chunk_size))

    def _chunks(self, chunk_size: int) -> Iterator[EventChunk]:
        config = self.config
        users = list(self.graph.users)
        total = self.total_events()
        if not users or total == 0:
            return iter(())

        weights = [
            1.0 + math.log1p(self.graph.in_degree(user) + self.graph.out_degree(user))
            for user in users
        ]
        cum_weights = list(accumulate(weights))
        duration = config.days * DAY
        # Pareto(shape) has mean shape/(shape-1); gaps are (draw - 1) * scale
        # with mean scale/(shape-1), so this scale spreads `total` events over
        # the requested span in expectation.
        scale = duration * (config.shape - 1.0) / total

        def rows() -> Iterator[EventRow]:
            rng = random.Random(f"{config.seed}:pareto")
            now = 0.0
            for _ in range(total):
                now += (rng.paretovariate(config.shape) - 1.0) * scale
                (user,) = rng.choices(users, cum_weights=cum_weights, k=1)
                kind = KIND_READ if rng.random() < config.read_fraction else KIND_WRITE
                yield (kind, now, user, NO_AUX)

        return pack_rows(rows(), chunk_size)


# ---------------------------------------------------------------------------
# Celebrity read storms
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CelebrityStormConfig:
    """Parameters of the celebrity read-storm workload."""

    days: float = 1.0
    #: Number of top-audience users that trigger storms.
    celebrities: int = 3
    #: Storms each celebrity triggers over the whole span.
    storms_per_celebrity: int = 2
    #: Length of one storm window in seconds.
    storm_duration: float = 2 * HOUR
    #: Reads each follower issues during one storm window.
    reads_per_follower: float = 3.0
    #: Background events (reads + writes) per user per day.
    background_events_per_user_per_day: float = 2.0
    #: Fraction of background events that are reads.
    background_read_fraction: float = 0.8
    seed: int = 7

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise WorkloadError("days must be positive")
        if self.celebrities < 1:
            raise WorkloadError("at least one celebrity is required")
        if self.storms_per_celebrity < 1:
            raise WorkloadError("storms_per_celebrity must be positive")
        if self.storm_duration <= 0:
            raise WorkloadError("storm_duration must be positive")
        if self.reads_per_follower < 0:
            raise WorkloadError("reads_per_follower cannot be negative")
        if not 0.0 <= self.background_read_fraction < 1.0:
            raise WorkloadError("background_read_fraction must lie in [0, 1)")


class CelebrityReadStormGenerator:
    """Background traffic plus follower read storms on the hottest views.

    The combined stream is a k-way merge of the background stream with one
    small storm stream per celebrity, exercising the same chunk-level merge
    the flash-event pipeline uses.
    """

    def __init__(
        self, graph: SocialGraph, config: CelebrityStormConfig | None = None
    ) -> None:
        self.graph = graph
        self.config = config or CelebrityStormConfig()

    def celebrity_users(self) -> list[int]:
        """The ``celebrities`` users with the largest audiences."""
        ranked = sorted(self.graph.users, key=self.graph.in_degree, reverse=True)
        return ranked[: self.config.celebrities]

    def storm_windows(self, celebrity: int) -> list[float]:
        """Deterministic storm start times for one celebrity."""
        config = self.config
        rng = random.Random(f"{config.seed}:celebrity:{celebrity}:windows")
        duration = config.days * DAY
        latest = max(0.0, duration - config.storm_duration)
        return sorted(rng.uniform(0.0, latest) for _ in range(config.storms_per_celebrity))

    def _storm_stream(self, celebrity: int) -> EventStream:
        """One celebrity's storms (small, eagerly built and sorted)."""
        config = self.config
        rng = random.Random(f"{config.seed}:celebrity:{celebrity}:reads")
        rows: list[EventRow] = []
        followers = sorted(self.graph.followers(celebrity))
        for start in self.storm_windows(celebrity):
            end = start + config.storm_duration
            # The celebrity posts at the window start; the pile-on follows.
            rows.append((KIND_WRITE, start, celebrity, NO_AUX))
            for follower in followers:
                for _ in range(int(round(config.reads_per_follower))):
                    rows.append((KIND_READ, rng.uniform(start, end), follower, NO_AUX))
        rows.sort(key=lambda row: row[1])
        return EventStream.from_rows(rows)

    def _background(self) -> EventStream:
        """Evenly-spread background traffic (reuses the synthetic windows)."""
        from .synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator

        config = self.config
        total_per_user = config.background_events_per_user_per_day
        read_fraction = config.background_read_fraction
        writes = total_per_user * (1.0 - read_fraction)
        ratio = read_fraction / (1.0 - read_fraction)
        return SyntheticWorkloadGenerator(
            self.graph,
            SyntheticWorkloadConfig(
                days=config.days,
                writes_per_user_per_day=writes,
                read_write_ratio=ratio,
                seed=config.seed,
            ),
        ).stream()

    def stream(self, chunk_size: int = CHUNK_EVENTS) -> EventStream:
        """The combined workload (background merged with every storm)."""
        if not self.graph.users:
            return EventStream.empty()
        storms = [self._storm_stream(user) for user in self.celebrity_users()]
        return merge_streams(self._background(), *storms, chunk_size=chunk_size)


__all__ = [
    "CelebrityReadStormGenerator",
    "CelebrityStormConfig",
    "ParetoBurstConfig",
    "ParetoBurstWorkloadGenerator",
]
