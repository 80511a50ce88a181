"""Simulation clock helpers.

The trace-driven simulator advances time by replaying timestamped requests;
the clock tracks the current simulated time and decides when periodic
maintenance ticks (counter rotation, threshold updates, eviction sweeps) are
due.
"""

from __future__ import annotations

from ..constants import HOUR
from ..exceptions import SimulationError


class SimulationClock:
    """Monotonic simulated clock with periodic tick scheduling."""

    def __init__(self, tick_period: float = HOUR, start_time: float = 0.0) -> None:
        if tick_period <= 0:
            raise SimulationError("tick_period must be positive")
        self.tick_period = tick_period
        self._now = start_time
        self._next_tick = (int(start_time // tick_period) + 1) * tick_period

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, timestamp: float) -> list[float]:
        """Advance the clock to ``timestamp``.

        Returns the times of every maintenance tick that became due while
        advancing (possibly empty).  Time never goes backwards: earlier
        timestamps leave the clock untouched.
        """
        if timestamp < self._now:
            return []
        due: list[float] = []
        while self._next_tick <= timestamp:
            due.append(self._next_tick)
            self._next_tick += self.tick_period
        self._now = timestamp
        return due

    def pending_tick(self) -> float:
        """Time of the next scheduled maintenance tick."""
        return self._next_tick


__all__ = ["SimulationClock"]
