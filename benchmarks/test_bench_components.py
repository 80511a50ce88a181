"""Micro-benchmarks and ablations of the main components.

These are not paper figures; they measure the cost of the building blocks a
downstream user would care about (partitioning a graph, executing requests
through DynaSoRe, SPAR placement construction) and double as ablation
benches for the design choices DESIGN.md calls out (proxy migration and view
migration can be disabled individually).
"""

from __future__ import annotations

import pytest

from repro.baselines.spar import SparPlacement
from repro.config import ClusterSpec, DynaSoReConfig, SimulationConfig
from repro.core.engine import DynaSoRe
from repro.partitioning.hierarchical import hierarchical_partition
from repro.partitioning.kway import partition_kway
from repro.simulator.engine import ClusterSimulator
from repro.socialgraph.generators import facebook_like
from repro.topology.tree import TreeTopology
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator

SPEC = ClusterSpec(intermediate_switches=3, racks_per_intermediate=2, machines_per_rack=4)


@pytest.fixture(scope="module")
def graph():
    return facebook_like(users=1200, seed=17)


@pytest.fixture(scope="module")
def short_log(graph):
    return SyntheticWorkloadGenerator(
        graph, SyntheticWorkloadConfig(days=0.25, seed=17)
    ).stream()


def test_partition_kway_throughput(benchmark, graph):
    """Multilevel k-way partitioning of a ~1k user graph into 18 parts."""
    adjacency = graph.undirected_adjacency()
    result = benchmark(partition_kway, adjacency, 18, 17)
    assert result.balance <= 1.3


def test_hierarchical_partition_throughput(benchmark, graph):
    """Hierarchical (hMETIS-style) partitioning over the cluster tree."""
    adjacency = graph.undirected_adjacency()
    result = benchmark.pedantic(
        hierarchical_partition, args=(adjacency, SPEC), kwargs={"seed": 17}, iterations=1, rounds=2
    )
    assert set(result.server_assignment) == set(graph.users)


def test_spar_placement_construction(benchmark, graph):
    """SPAR's edge-streaming placement over the whole social graph."""

    def build():
        from repro.store.memory import MemoryBudget
        from repro.traffic.accounting import TrafficAccountant

        topology = TreeTopology(SPEC)
        strategy = SparPlacement(seed=17)
        budget = MemoryBudget(views=graph.num_users, extra_memory_pct=50.0, servers=len(topology.servers))
        strategy.bind(topology, graph, TrafficAccountant(topology), budget, seed=17)
        strategy.build_initial_placement()
        return strategy

    strategy = benchmark.pedantic(build, iterations=1, rounds=2)
    assert strategy.replication_factor() > 1.0


def run_dynasore(graph, log, config: DynaSoReConfig):
    simulator = ClusterSimulator(
        TreeTopology(SPEC),
        graph.copy(),
        DynaSoRe(initializer="hmetis", config=config, seed=17),
        SimulationConfig(extra_memory_pct=50.0, seed=17),
    )
    return simulator.run(log)


def test_dynasore_request_throughput(benchmark, graph, short_log):
    """End-to-end DynaSoRe execution speed (requests per second)."""
    result = benchmark.pedantic(
        run_dynasore, args=(graph, short_log, DynaSoReConfig()), iterations=1, rounds=1
    )
    assert result.requests_executed == short_log.stats().events


def test_ablation_disable_proxy_migration(benchmark, graph, short_log):
    """Ablation: proxy migration off → traffic must not improve."""
    baseline = run_dynasore(graph, short_log, DynaSoReConfig())
    ablated = benchmark.pedantic(
        run_dynasore,
        args=(graph, short_log, DynaSoReConfig(enable_proxy_migration=False)),
        iterations=1,
        rounds=1,
    )
    assert ablated.top_switch_traffic >= baseline.top_switch_traffic * 0.85


def test_ablation_disable_view_migration(benchmark, graph, short_log):
    """Ablation: Algorithm 3 off → replication alone must still work."""
    result = benchmark.pedantic(
        run_dynasore,
        args=(graph, short_log, DynaSoReConfig(enable_view_migration=False)),
        iterations=1,
        rounds=1,
    )
    assert result.replication_factor >= 1.0
    assert result.memory_in_use >= graph.num_users
