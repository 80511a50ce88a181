"""Fault events injected into a simulation run.

A *fault event* is one timestamped change of the cluster's infrastructure:
a storage server crashing (its in-memory views are lost and must be
recovered), a node gracefully leaving the cluster (a drain copies its views
out before shutdown), or a crashed or drained server coming back.  The
scenario generator (:mod:`repro.scenarios.faults`) emits streams of these
events; the cluster simulator interleaves them with the request log and
applies each one at its simulated timestamp.

Events reference storage servers by *position* (0 .. num_servers - 1, the
same indexing the placement strategies and the memory budget use), not by
leaf device index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..simulator.engine import ClusterSimulator


@dataclass(frozen=True)
class FaultEvent:
    """Base class of every infrastructure fault event."""

    timestamp: float

    def apply(self, simulator: "ClusterSimulator") -> None:
        """Apply the event to a running simulation."""
        raise NotImplementedError


@dataclass(frozen=True)
class ServerCrash(FaultEvent):
    """A storage server fails abruptly; its in-memory views are lost.

    Views replicated elsewhere stay available; views whose only replica was
    on the crashed server are re-fetched from the persistent store
    (WAL-driven recovery, paper sections 2.2 and 3.3).
    """

    position: int = 0

    def apply(self, simulator: "ClusterSimulator") -> None:
        simulator.crash_server(self.position, self.timestamp)


@dataclass(frozen=True)
class ServerRecovery(FaultEvent):
    """A previously crashed (or drained) server rejoins with empty memory."""

    position: int = 0

    def apply(self, simulator: "ClusterSimulator") -> None:
        simulator.restore_server(self.position, self.timestamp)


@dataclass(frozen=True)
class NodeLeave(FaultEvent):
    """A server leaves gracefully: its views are copied out before shutdown.

    Unlike a crash, a drain never touches the persistent store — every view
    is transferred from the leaving server to its new host over the network.
    """

    position: int = 0

    def apply(self, simulator: "ClusterSimulator") -> None:
        simulator.drain_server(self.position, self.timestamp)


__all__ = ["FaultEvent", "NodeLeave", "ServerCrash", "ServerRecovery"]
