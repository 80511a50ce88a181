"""DynaSoRe reproduction: an adaptive in-memory view store for social
applications (Bai, Jégou, Junqueira, Leroy — Middleware 2013).

The package is organised as a set of substrates (topology, traffic, social
graph, partitioning, workload, store, persistence), the DynaSoRe core
(placement algorithms and the public key-value API), the baselines the paper
compares against, a trace-driven cluster simulator, and the experiment
harness that regenerates every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import (ClusterSpec, TreeTopology, facebook_like, DynaSoReStore)
>>> topology = TreeTopology(ClusterSpec(intermediate_switches=2,
...                                     racks_per_intermediate=2,
...                                     machines_per_rack=4))
>>> graph = facebook_like(users=200, seed=1)
>>> store = DynaSoReStore(topology, graph, extra_memory_pct=50.0)
>>> store.write(0, b"hello world")
1
>>> feed = store.read(1)
"""

from .config import (
    ClusterSpec,
    DynaSoReConfig,
    ExperimentProfile,
    FlatClusterSpec,
    SimulationConfig,
)
from .baselines import PlacementStrategy, SparPlacement, StaticPlacementStrategy
from .core import DynaSoRe, DynaSoReStore
from .scenarios import (
    CompositeScenario,
    CrashRecoverScenario,
    DiurnalLoadScenario,
    Scenario,
)
from .simulator import ClusterSimulator, FaultRecord, SimulationResult
from .socialgraph import SocialGraph, facebook_like, livejournal_like, twitter_like
from .store import MemoryBudget
from .topology import FlatTopology, TreeTopology
from .workload import (
    EventChunk,
    EventStream,
    NewsActivityTraceConfig,
    NewsActivityTraceGenerator,
    SyntheticWorkloadConfig,
    SyntheticWorkloadGenerator,
    merge_streams,
    read_trace,
    trace_content_hash,
    write_trace,
)

__version__ = "1.0.0"

__all__ = [
    "ClusterSimulator",
    "ClusterSpec",
    "CompositeScenario",
    "CrashRecoverScenario",
    "DiurnalLoadScenario",
    "EventChunk",
    "EventStream",
    "merge_streams",
    "read_trace",
    "trace_content_hash",
    "write_trace",
    "DynaSoRe",
    "DynaSoReConfig",
    "DynaSoReStore",
    "ExperimentProfile",
    "FaultRecord",
    "FlatClusterSpec",
    "FlatTopology",
    "Scenario",
    "MemoryBudget",
    "NewsActivityTraceConfig",
    "NewsActivityTraceGenerator",
    "PlacementStrategy",
    "SimulationConfig",
    "SimulationResult",
    "SocialGraph",
    "SparPlacement",
    "StaticPlacementStrategy",
    "SyntheticWorkloadConfig",
    "SyntheticWorkloadGenerator",
    "TreeTopology",
    "facebook_like",
    "livejournal_like",
    "twitter_like",
    "__version__",
]
