"""Memory-budget arithmetic (paper section 2.3).

The paper expresses cluster memory as "x% extra memory": with ``|V|`` views
of ``b`` bytes each, the system has x% extra memory when its total capacity
is ``(1 + x/100) * |V| * b``.  Since all views have the same size, capacity is
counted in views.  The budget is split evenly across storage servers, with
the remainder spread one view at a time over the first servers so the total
is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import CapacityError


@dataclass(frozen=True)
class MemoryBudget:
    """Total and per-server view capacity for a given extra-memory setting."""

    views: int
    extra_memory_pct: float
    servers: int

    def __post_init__(self) -> None:
        if self.views < 0:
            raise CapacityError("the number of views cannot be negative")
        if self.servers < 1:
            raise CapacityError("at least one storage server is required")
        if self.extra_memory_pct < 0:
            raise CapacityError("extra memory cannot be negative")
        if self.total_capacity < self.views:
            raise CapacityError(
                "the cluster cannot store one replica of every view "
                f"(capacity={self.total_capacity}, views={self.views})"
            )

    @property
    def total_capacity(self) -> int:
        """Total number of view slots in the cluster."""
        return int(round(self.views * (1.0 + self.extra_memory_pct / 100.0)))

    def per_server_capacity(self) -> list[int]:
        """Capacity of each server (even split, remainder to the first ones)."""
        base = self.total_capacity // self.servers
        remainder = self.total_capacity % self.servers
        return [base + (1 if i < remainder else 0) for i in range(self.servers)]


def budget_for(views: int, extra_memory_pct: float, servers: int) -> MemoryBudget:
    """Convenience constructor for a :class:`MemoryBudget`."""
    return MemoryBudget(views=views, extra_memory_pct=extra_memory_pct, servers=servers)


__all__ = ["MemoryBudget", "budget_for"]
