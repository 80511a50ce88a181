"""Trace-driven cluster simulator."""

from .clock import SimulationClock
from .engine import ClusterSimulator
from .results import FaultRecord, ReplicaTimeline, SimulationResult
from .runner import normalise_results

__all__ = [
    "ClusterSimulator",
    "FaultRecord",
    "ReplicaTimeline",
    "SimulationClock",
    "SimulationResult",
    "normalise_results",
]
