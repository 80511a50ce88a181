"""Synthetic request-log generator (paper section 4.2, "Synthetic logs").

The generator follows the paper's assumptions:

* read and write activity of a user is proportional to the logarithm of her
  in- and out-degrees (Huberman et al.);
* the system sees roughly four times more reads than writes
  (Silberstein et al.);
* each user issues on average one write request per day;
* requests are evenly distributed over time (low variance), which lets
  DynaSoRe estimate read and write rates accurately.

Generation is *stream-native* and *column-native*: events are produced
lazily in fixed time windows (one generator window is a few simulated
hours), each window as three columns — no row per event — sorted by one
stable argsort and packed into the columnar chunks of
:mod:`repro.workload.stream`.  Randomness is drawn from
one dedicated ``random.Random`` per model (writes, reads), each consumed in
window order — never per chunk — so the emitted events are byte-identical
regardless of the chunk size used to consume the stream.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate

from ..constants import DAY, HOUR, SYNTHETIC_READ_WRITE_RATIO
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

#: Width of one generation window.  Events are drawn and sorted per window,
#: so the window — a fixed property of the generator, independent of chunk
#: size and consumption pattern — is the unit of seed stability.
GENERATION_WINDOW = 6 * HOUR

_READ = bytes([KIND_READ])
_WRITE = bytes([KIND_WRITE])


@dataclass(frozen=True)
class SyntheticWorkloadConfig:
    """Parameters of the synthetic workload."""

    #: Simulated duration in days.
    days: float = 1.0
    #: Average number of writes each user issues per day.
    writes_per_user_per_day: float = 1.0
    #: Global ratio of reads to writes.
    read_write_ratio: float = SYNTHETIC_READ_WRITE_RATIO
    #: Random seed.
    seed: int = 7

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise WorkloadError("days must be positive")
        if self.writes_per_user_per_day < 0:
            raise WorkloadError("writes_per_user_per_day cannot be negative")
        if self.read_write_ratio < 0:
            raise WorkloadError("read_write_ratio cannot be negative")


class SyntheticWorkloadGenerator:
    """Generates evenly-spread, degree-driven request streams."""

    def __init__(self, graph: SocialGraph, config: SyntheticWorkloadConfig | None = None) -> None:
        self.graph = graph
        self.config = config or SyntheticWorkloadConfig()

    # ------------------------------------------------------------- rates
    def write_weights(self) -> dict[int, float]:
        """Per-user write propensity, proportional to log(1 + out-degree).

        Producers with more followers tend to post more (Huberman et al.); we
        use the out-degree of the *follower graph transpose*, i.e. the user's
        audience size (in-degree), as the popularity proxy, mixed with her
        own out-degree so lurkers still write occasionally.
        """
        weights = {}
        for user in self.graph.users:
            audience = self.graph.in_degree(user)
            activity = self.graph.out_degree(user)
            weights[user] = 1.0 + math.log1p(audience) + 0.5 * math.log1p(activity)
        return weights

    def read_weights(self) -> dict[int, float]:
        """Per-user read propensity, proportional to log(1 + out-degree)."""
        weights = {}
        for user in self.graph.users:
            following = self.graph.out_degree(user)
            weights[user] = 1.0 + math.log1p(following)
        return weights

    # --------------------------------------------------------------- streams
    def stream(self, chunk_size: int = CHUNK_EVENTS) -> EventStream:
        """The workload as a lazy, re-iterable chunked event stream."""
        return EventStream(lambda: self._chunks(chunk_size))

    def _chunks(self, chunk_size: int) -> Iterator[EventChunk]:
        config = self.config
        users = self.graph.users
        if not users:
            return iter(())

        duration = config.days * DAY
        total_writes = int(round(len(users) * config.writes_per_user_per_day * config.days))
        total_reads = int(round(total_writes * config.read_write_ratio))
        windows = max(1, math.ceil(duration / GENERATION_WINDOW))
        # Budgets are proportional to window *width*, so a fractional last
        # window carries proportionally fewer events and the event rate
        # stays even across the whole span (the generator's contract).
        widths = [
            min(duration, (window + 1) * GENERATION_WINDOW) - window * GENERATION_WINDOW
            for window in range(windows)
        ]
        writes_per_window = allocate_proportionally(total_writes, widths)
        reads_per_window = allocate_proportionally(total_reads, widths)

        user_list = list(users)
        write_weights = self.write_weights()
        read_weights = self.read_weights()
        cum_write_weights = list(accumulate(write_weights[u] for u in user_list))
        cum_read_weights = list(accumulate(read_weights[u] for u in user_list))
        # One RNG per model, consumed strictly in window order: chunking can
        # never perturb the draws.
        write_rng = random.Random(f"{config.seed}:synthetic:writes")
        read_rng = random.Random(f"{config.seed}:synthetic:reads")

        models = (
            (_WRITE, write_rng, cum_write_weights, writes_per_window),
            (_READ, read_rng, cum_read_weights, reads_per_window),
        )

        def batches():
            for window in range(windows):
                start = window * GENERATION_WINDOW
                span = min(start + GENERATION_WINDOW, duration) - start
                kinds = b""
                users: list[int] = []
                timestamps: list[float] = []
                for kind, rng, cum_weights, budget in models:
                    count = budget[window]
                    kinds += kind * count
                    # Who, then when, on the model's own RNG; the timestamp
                    # expression is the body of ``Random.uniform(start, end)``.
                    users += rng.choices(user_list, cum_weights=cum_weights, k=count)
                    draw = rng.random
                    timestamps += [start + span * draw() for _ in range(count)]
                yield time_ordered_columns(kinds, timestamps, users)

        return pack_columns(batches(), chunk_size)


__all__ = [
    "GENERATION_WINDOW",
    "SyntheticWorkloadConfig",
    "SyntheticWorkloadGenerator",
]
