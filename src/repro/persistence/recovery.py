"""Crash recovery of storage servers (paper sections 2.2 and 3.3).

When a DynaSoRe server crashes, its views can be recovered in two ways:

* views that were replicated on other servers are still readily available in
  memory (fast path, no cache miss);
* views whose only replica was on the crashed server must be fetched from the
  persistent store (slow path).

Every strategy's ``on_server_down`` reports that split as a
:class:`RecoveryPlan`; :meth:`ClusterSimulator.crash_server
<repro.simulator.engine.ClusterSimulator.crash_server>` then fetches the
slow-path views from the persistent store and records the split as a
``FaultRecord``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RecoveryPlan:
    """What must happen to recover from the crash of one server."""

    crashed_server: int
    #: Views recoverable from surviving in-memory replicas.
    recoverable_from_memory: list[int] = field(default_factory=list)
    #: Views that must be re-fetched from the persistent store.
    recoverable_from_disk: list[int] = field(default_factory=list)

    @property
    def total_views(self) -> int:
        """Number of views that lived on the crashed server."""
        return len(self.recoverable_from_memory) + len(self.recoverable_from_disk)

    @property
    def memory_recovery_fraction(self) -> float:
        """Fraction of views recoverable without touching the disk store."""
        if self.total_views == 0:
            return 1.0
        return len(self.recoverable_from_memory) / self.total_views


__all__ = ["RecoveryPlan"]
