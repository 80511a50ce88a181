"""Rotating access counters (paper section 3.2, "Access statistics").

Servers record the number of accesses to each view using a bank of rotating
counters: each counter covers one time period (one hour by default), and
when a period ends the oldest counter is reset and reused.  The sum of all
slots therefore approximates the access count over a sliding window (24 hours
by default), which is the rate DynaSoRe uses to compute view utilities.
"""

from __future__ import annotations

from ..constants import DEFAULT_COUNTER_PERIOD, DEFAULT_COUNTER_SLOTS
from ..exceptions import StorageError


class RotatingCounter:
    """A sliding-window counter made of ``slots`` rotating buckets."""

    __slots__ = ("slots", "period", "_buckets", "_current_period", "_total")

    def __init__(
        self,
        slots: int = DEFAULT_COUNTER_SLOTS,
        period: float = DEFAULT_COUNTER_PERIOD,
        start_time: float = 0.0,
    ) -> None:
        if slots < 1:
            raise StorageError("a rotating counter needs at least one slot")
        if period <= 0:
            raise StorageError("the rotation period must be positive")
        self.slots = slots
        self.period = period
        self._buckets = [0.0] * slots
        self._current_period = int(start_time // period)
        # Running sum of the window, maintained incrementally so ``total`` is
        # O(1) — it sits on the utility-estimation hot path, where it used to
        # dominate via repeated O(slots) sums.
        self._total = 0.0

    # ------------------------------------------------------------- recording
    def record(self, timestamp: float, amount: float = 1.0) -> None:
        """Record ``amount`` accesses at ``timestamp``."""
        if int(timestamp // self.period) > self._current_period:
            self.advance(timestamp)
        self._buckets[self._current_period % self.slots] += amount
        self._total += amount

    def advance(self, timestamp: float) -> None:
        """Rotate buckets so the counter is current with ``timestamp``.

        Every full period that elapsed since the last access clears exactly
        one bucket; if more periods than slots elapsed the whole window is
        cleared.
        """
        period = int(timestamp // self.period)
        if period <= self._current_period:
            return
        elapsed = period - self._current_period
        if elapsed >= self.slots:
            self._buckets = [0.0] * self.slots
            self._total = 0.0
        else:
            buckets = self._buckets
            for step in range(1, elapsed + 1):
                index = (self._current_period + step) % self.slots
                self._total -= buckets[index]
                buckets[index] = 0.0
        self._current_period = period

    # --------------------------------------------------------------- queries
    def total(self) -> float:
        """Sum of the sliding window."""
        return self._total

    def rate_per_period(self) -> float:
        """Average accesses per period over the window."""
        return self.total() / self.slots

    def is_empty(self) -> bool:
        """True when no access is recorded in the window."""
        return all(value == 0.0 for value in self._buckets)

    def copy(self) -> "RotatingCounter":
        """Deep copy preserving the rotation state."""
        clone = RotatingCounter(self.slots, self.period)
        clone._buckets = list(self._buckets)
        clone._current_period = self._current_period
        clone._total = self._total
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RotatingCounter(total={self.total():.1f}, slots={self.slots})"


__all__ = ["RotatingCounter"]
