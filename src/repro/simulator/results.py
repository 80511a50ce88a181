"""Results of a simulation run.

A :class:`SimulationResult` bundles everything the experiment harness needs
to regenerate the paper's tables and figures: total and per-level switch
traffic, the application/system split, the time-bucketed top-switch series,
replica statistics and the memory usage of the strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..traffic.accounting import TrafficSnapshot


@dataclass(frozen=True)
class FaultRecord:
    """One applied infrastructure fault and what its recovery did.

    ``kind`` is ``"crash"`` (abrupt failure), ``"drain"`` (graceful leave)
    or ``"restore"`` (server back in service).  The view counts say how the
    affected views were recovered: from surviving in-memory replicas (fast
    path) or from the persistent store (slow path).
    """

    timestamp: float
    kind: str
    position: int
    views_from_memory: int = 0
    views_from_disk: int = 0

    @property
    def total_views(self) -> int:
        """Number of views that had to be recovered for this event."""
        return self.views_from_memory + self.views_from_disk


@dataclass
class ReplicaTimeline:
    """Replica count and per-replica read load of one tracked view over time."""

    user: int
    #: (time, replica count) samples.
    replica_counts: list[tuple[float, int]] = field(default_factory=list)
    #: (time, reads per replica in the sampling window) samples.
    reads_per_replica: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class SimulationResult:
    """Outcome of one trace-driven simulation run."""

    strategy_name: str
    extra_memory_pct: float
    duration: float
    requests_executed: int
    reads_executed: int
    writes_executed: int
    snapshot: TrafficSnapshot
    #: bucket index -> application traffic at the top switch
    top_series_application: dict[int, float]
    #: bucket index -> system traffic at the top switch
    top_series_system: dict[int, float]
    bucket_width: float
    #: average number of replicas per view at the end of the run
    replication_factor: float
    #: total view slots in use at the end of the run
    memory_in_use: int
    #: timelines of explicitly tracked views (flash-event experiment)
    tracked_views: dict[int, ReplicaTimeline] = field(default_factory=dict)
    #: infrastructure faults applied during the run (scenario subsystem)
    fault_records: list[FaultRecord] = field(default_factory=list)
    #: number of users left without any replica at the end of the run
    #: (0 means every injected fault was fully recovered)
    unavailable_views: int = 0

    # ----------------------------------------------------------------- totals
    @property
    def top_switch_traffic(self) -> float:
        """Total traffic recorded at the top switch."""
        return self.snapshot.total_by_level.get("top", 0.0)

    def level_traffic(self, level: str) -> float:
        """Total traffic recorded at one switch level."""
        return self.snapshot.total_by_level.get(level, 0.0)

    def top_switch_series(self, split: bool = False):
        """Time series of top-switch traffic per bucket.

        With ``split=False`` returns ``{bucket: total}``; with ``split=True``
        returns ``{bucket: (application, system)}`` as used by Figure 6.
        """
        buckets = set(self.top_series_application) | set(self.top_series_system)
        if not split:
            return {
                bucket: self.top_series_application.get(bucket, 0.0)
                + self.top_series_system.get(bucket, 0.0)
                for bucket in sorted(buckets)
            }
        return {
            bucket: (
                self.top_series_application.get(bucket, 0.0),
                self.top_series_system.get(bucket, 0.0),
            )
            for bucket in sorted(buckets)
        }

    def summary(self) -> dict[str, float]:
        """Compact numeric summary used by reports and tests."""
        return {
            "top": self.snapshot.total_by_level.get("top", 0.0),
            "intermediate": self.snapshot.total_by_level.get("intermediate", 0.0),
            "rack": self.snapshot.total_by_level.get("rack", 0.0),
            "reads": float(self.reads_executed),
            "writes": float(self.writes_executed),
            "replication_factor": self.replication_factor,
            "memory_in_use": float(self.memory_in_use),
        }


__all__ = ["FaultRecord", "ReplicaTimeline", "SimulationResult"]
