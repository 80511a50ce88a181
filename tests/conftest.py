"""Shared fixtures of the test suite.

The fixtures build small but non-trivial instances of the main objects: a
tree topology with three levels, a flat topology, a community-structured
social graph, and a short synthetic workload stream.  Keeping them here avoids
repeating setup code across the ~30 test modules.
"""

from __future__ import annotations

import random
from itertools import takewhile

import pytest

from repro.config import ClusterSpec, DynaSoReConfig, ExperimentProfile, FlatClusterSpec, SimulationConfig
from repro.socialgraph.generators import dataset_preset, generate_social_graph
from repro.socialgraph.graph import SocialGraph
from repro.store.memory import MemoryBudget
from repro.topology.flat import FlatTopology
from repro.topology.tree import TreeTopology
from repro.traffic.accounting import TrafficAccountant
from repro.workload.stream import EventStream
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator


@pytest.fixture
def cluster_spec() -> ClusterSpec:
    """Small 2x2x4 cluster: 2 intermediates, 2 racks each, 4 machines/rack."""
    return ClusterSpec(
        intermediate_switches=2,
        racks_per_intermediate=2,
        machines_per_rack=4,
        brokers_per_rack=1,
    )


@pytest.fixture
def tree_topology(cluster_spec: ClusterSpec) -> TreeTopology:
    """Tree topology built from the small cluster spec (12 servers)."""
    return TreeTopology(cluster_spec)


@pytest.fixture
def flat_topology() -> FlatTopology:
    """Flat topology with 10 machines."""
    return FlatTopology(FlatClusterSpec(machines=10))


@pytest.fixture
def small_graph() -> SocialGraph:
    """Community-structured graph with 120 users."""
    spec = dataset_preset("facebook", users=120)
    return generate_social_graph(spec, seed=3)


@pytest.fixture
def tiny_graph() -> SocialGraph:
    """Hand-built 6-user graph with known structure."""
    graph = SocialGraph(range(6))
    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (1, 3)]
    for follower, followee in edges:
        graph.add_edge(follower, followee)
    return graph


@pytest.fixture
def small_log(small_graph: SocialGraph):
    """Half-day synthetic request log over the small graph, as a stream."""
    generator = SyntheticWorkloadGenerator(
        small_graph, SyntheticWorkloadConfig(days=0.5, seed=11)
    )
    return generator.stream()


@pytest.fixture
def time_prefix():
    """``time_prefix(stream, end)``: the events of ``stream`` before ``end``."""
    return lambda stream, end: EventStream.from_rows(
        takewhile(lambda row: row[1] < end, stream.rows())
    )


@pytest.fixture
def assert_time_ordered():
    """``assert_time_ordered(stream)``: timestamps never decrease."""

    def check(stream: EventStream) -> None:
        timestamps = [timestamp for _, timestamp, _, _ in stream.rows()]
        assert timestamps == sorted(timestamps)

    return check


@pytest.fixture
def accountant(tree_topology: TreeTopology) -> TrafficAccountant:
    """Traffic accountant bound to the tree topology."""
    return TrafficAccountant(tree_topology, bucket_width=3600.0)


@pytest.fixture
def budget(small_graph: SocialGraph, tree_topology: TreeTopology) -> MemoryBudget:
    """Memory budget with 50% extra memory for the small graph."""
    return MemoryBudget(
        views=small_graph.num_users,
        extra_memory_pct=50.0,
        servers=len(tree_topology.servers),
    )


@pytest.fixture
def dynasore_config() -> DynaSoReConfig:
    """Default DynaSoRe configuration."""
    return DynaSoReConfig()


@pytest.fixture
def sim_config() -> SimulationConfig:
    """Simulation configuration with 50% extra memory."""
    return SimulationConfig(extra_memory_pct=50.0, seed=5)


@pytest.fixture
def ci_profile() -> ExperimentProfile:
    """The CI experiment profile."""
    return ExperimentProfile.ci()


@pytest.fixture
def rng() -> random.Random:
    """Deterministic random generator for tests."""
    return random.Random(1234)
