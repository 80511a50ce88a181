"""Trace-driven cluster simulator."""

from .clock import SimulationClock
from .engine import ClusterSimulator
from .results import FaultRecord, ReplicaTimeline, SimulationResult
from .runner import normalise_results
from .shard import (
    ShardHeartbeat,
    ShardLoadSummary,
    ShardMaterials,
    ShardRunReport,
    materials_from_spec,
    run_sharded,
    run_sharded_detailed,
    run_spec_sharded,
)

__all__ = [
    "ClusterSimulator",
    "FaultRecord",
    "ReplicaTimeline",
    "ShardHeartbeat",
    "ShardLoadSummary",
    "ShardMaterials",
    "ShardRunReport",
    "SimulationClock",
    "SimulationResult",
    "materials_from_spec",
    "normalise_results",
    "run_sharded",
    "run_sharded_detailed",
    "run_spec_sharded",
]
