"""Per-replica access statistics with origin coarsening.

Each replica tracks, with rotating counters:

* how many reads it served, broken down by *origin* — the coarse-grained
  switch label computed by the topology (the source's rack switch within the
  replica's own sub-tree, the source's intermediate switch otherwise);
* how many writes it received (writes always come from the view's write
  proxy, so a single counter suffices — paper section 3.2).

These statistics feed Algorithm 1 (utility estimation), Algorithm 2 (replica
creation) and Algorithm 3 (replica migration).
"""

from __future__ import annotations

from ..constants import DEFAULT_COUNTER_PERIOD, DEFAULT_COUNTER_SLOTS
from .counters import RotatingCounter


class AccessStatistics:
    """Origin-resolved read counters plus a write counter for one replica."""

    __slots__ = (
        "slots",
        "period",
        "_reads",
        "_writes",
        "_origins_cache",
    )

    def __init__(
        self,
        slots: int = DEFAULT_COUNTER_SLOTS,
        period: float = DEFAULT_COUNTER_PERIOD,
    ) -> None:
        self.slots = slots
        self.period = period
        self._reads: dict[int, RotatingCounter] = {}
        self._writes = RotatingCounter(slots, period)
        # Cached result of ``reads_by_origin``; invalidated by reads,
        # rotations and clears.  Algorithms 1–3 query the same statistics
        # several times per evaluated request, so the cache removes the
        # repeated dict builds from the hot path.
        self._origins_cache: dict[int, float] | None = None

    # ------------------------------------------------------------- recording
    def record_read(self, origin: int, timestamp: float, amount: float = 1.0) -> None:
        """Record a read coming from ``origin``."""
        counter = self._reads.get(origin)
        if counter is None:
            counter = RotatingCounter(self.slots, self.period, start_time=timestamp)
            self._reads[origin] = counter
        counter.record(timestamp, amount)
        self._origins_cache = None

    def record_write(self, timestamp: float, amount: float = 1.0) -> None:
        """Record a write (always issued by the view's write proxy)."""
        self._writes.record(timestamp, amount)

    def advance(self, timestamp: float) -> None:
        """Rotate every counter so the window is current with ``timestamp``."""
        for counter in self._reads.values():
            counter.advance(timestamp)
        self._writes.advance(timestamp)
        self._origins_cache = None

    # --------------------------------------------------------------- queries
    def reads_by_origin(self) -> dict[int, float]:
        """Read counts over the sliding window, keyed by origin label.

        The returned dict is a shared cache — treat it as read-only.
        Mutating it corrupts every later query until the next
        invalidation (reads, rotations, clears), and the decision
        kernels memoise on its identity, so aliasing bugs surface far
        from their cause.  The array-backed twin
        (:meth:`repro.store.tables.StatsTable.reads_by_origin`) has no
        cache and returns a fresh dict on every call.
        """
        cached = self._origins_cache
        if cached is None:
            cached = {}
            for origin, counter in self._reads.items():
                total = counter.total()
                if total > 0:
                    cached[origin] = total
            self._origins_cache = cached
        return cached

    def total_reads(self) -> float:
        """Total reads over the window, all origins combined."""
        return sum(counter.total() for counter in self._reads.values())

    def total_writes(self) -> float:
        """Total writes over the window."""
        return self._writes.total()

    def reads_from(self, origin: int) -> float:
        """Reads recorded from one origin over the window."""
        counter = self._reads.get(origin)
        return counter.total() if counter is not None else 0.0

    def copy(self) -> "AccessStatistics":
        """Deep copy of the statistics (used when replicating a view)."""
        clone = AccessStatistics(self.slots, self.period)
        clone._reads = {origin: counter.copy() for origin, counter in self._reads.items()}
        clone._writes = self._writes.copy()
        return clone

    def clear(self) -> None:
        """Forget every recorded access (used after migrating a replica)."""
        self._reads.clear()
        self._writes = RotatingCounter(self.slots, self.period)
        self._origins_cache = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AccessStatistics(reads={self.total_reads():.0f}, "
            f"writes={self.total_writes():.0f}, origins={len(self._reads)})"
        )


__all__ = ["AccessStatistics"]
