"""End-to-end integration tests crossing module boundaries.

These tests exercise the same paths as the paper's evaluation at a very small
scale and assert the qualitative results the paper reports: DynaSoRe reduces
top-switch traffic relative to the baselines, keeps every view available,
respects the memory budget, reacts to flash events, and recovers from
crashes through replicas or the persistent store.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.base import StaticPlacementStrategy
from repro.baselines.spar import SparPlacement
from repro.config import ClusterSpec, FlatClusterSpec, SimulationConfig
from repro.constants import DAY
from repro.core.engine import DynaSoRe
from repro.simulator.engine import ClusterSimulator
from repro.socialgraph.generators import facebook_like
from repro.topology.flat import FlatTopology
from repro.topology.tree import TreeTopology
from repro.workload.flash import inject_flash_stream, plan_flash_event
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator


SPEC = ClusterSpec(intermediate_switches=3, racks_per_intermediate=2, machines_per_rack=4)


@pytest.fixture(scope="module")
def scenario():
    graph = facebook_like(users=250, seed=13)
    log = SyntheticWorkloadGenerator(
        graph, SyntheticWorkloadConfig(days=0.5, seed=13)
    ).stream()
    return graph, log


def run_strategy(strategy, graph, log, extra_memory_pct, measure_from=0.0, topology=None):
    topology = topology or TreeTopology(SPEC)
    simulator = ClusterSimulator(
        topology,
        graph.copy(),
        strategy,
        SimulationConfig(extra_memory_pct=extra_memory_pct, measure_from=measure_from, seed=13),
    )
    return simulator.run(log), simulator


class TestEndToEndComparison:
    def test_dynasore_beats_random_and_spar(self, scenario):
        graph, log = scenario
        cutoff = log.stats().duration / 2
        random_result, _ = run_strategy(
            StaticPlacementStrategy("random", seed=13), graph, log, 50.0, cutoff
        )
        spar_result, _ = run_strategy(SparPlacement(seed=13), graph, log, 50.0, cutoff)
        dynasore_result, _ = run_strategy(
            DynaSoRe(initializer="hmetis", seed=13), graph, log, 50.0, cutoff
        )
        assert dynasore_result.top_switch_traffic < spar_result.top_switch_traffic
        assert dynasore_result.top_switch_traffic < 0.6 * random_result.top_switch_traffic
        assert spar_result.top_switch_traffic <= random_result.top_switch_traffic * 1.02

    def test_memory_budget_is_never_exceeded(self, scenario):
        graph, log = scenario
        _, simulator = run_strategy(DynaSoRe(initializer="random", seed=13), graph, log, 30.0)
        strategy = simulator.strategy
        assert strategy.memory_in_use() <= strategy.memory_capacity()
        table = strategy.tables
        assert all(used <= cap for used, cap in zip(table.used, table.capacities))

    def test_every_view_remains_available(self, scenario):
        graph, log = scenario
        _, simulator = run_strategy(DynaSoRe(initializer="metis", seed=13), graph, log, 30.0)
        locations = simulator.strategy.replica_locations()
        assert set(graph.users) <= set(locations)
        assert all(len(devices) >= 1 for devices in locations.values())

    def test_more_memory_means_less_top_traffic(self, scenario):
        graph, log = scenario
        cutoff = log.stats().duration / 2
        lean, _ = run_strategy(DynaSoRe(initializer="hmetis", seed=13), graph, log, 0.0, cutoff)
        rich, _ = run_strategy(DynaSoRe(initializer="hmetis", seed=13), graph, log, 150.0, cutoff)
        assert rich.top_switch_traffic <= lean.top_switch_traffic * 1.05

    def test_flat_topology_end_to_end(self, scenario):
        graph, log = scenario
        # A flat cluster where, as in the paper, machines hold many views each.
        flat_spec = FlatClusterSpec(machines=20)
        cutoff = log.stats().duration / 2
        random_result, _ = run_strategy(
            StaticPlacementStrategy("random", seed=13),
            graph,
            log,
            100.0,
            cutoff,
            topology=FlatTopology(flat_spec),
        )
        dynasore_result, _ = run_strategy(
            DynaSoRe(initializer="metis", seed=13),
            graph,
            log,
            100.0,
            cutoff,
            topology=FlatTopology(flat_spec),
        )
        assert dynasore_result.top_switch_traffic < random_result.top_switch_traffic


class TestDesignHalves:
    """Both halves of the design act in an ordinary run."""

    def test_read_and_write_proxies_migrate(self, scenario):
        graph, log = scenario
        _, simulator = run_strategy(DynaSoRe(initializer="hmetis", seed=13), graph, log, 50.0)
        counters = simulator.strategy.counters
        assert counters.read_proxy_migrations > 0
        assert counters.write_proxy_migrations > 0

    def test_views_replicate_migrate_and_shed(self, scenario):
        graph, log = scenario
        result, simulator = run_strategy(DynaSoRe(initializer="hmetis", seed=13), graph, log, 50.0)
        counters = simulator.strategy.counters
        assert counters.replicas_migrated > 0
        assert counters.replicas_removed > 0
        assert result.replication_factor > 1.0
        assert result.memory_in_use >= graph.num_users


class TestFlashEventIntegration:
    def test_replicas_grow_then_shrink(self):
        graph = facebook_like(users=200, seed=21)
        rng = random.Random(21)
        base = SyntheticWorkloadGenerator(
            graph, SyntheticWorkloadConfig(days=1.0, seed=21)
        ).stream()
        spec = plan_flash_event(graph, rng, followers=80, start_day=0.2, end_day=0.6)
        log = inject_flash_stream(base, spec, reads_per_follower_per_day=6.0, seed=21)
        simulator = ClusterSimulator(
            TreeTopology(SPEC),
            graph,
            DynaSoRe(initializer="hmetis", seed=21),
            SimulationConfig(extra_memory_pct=30.0, seed=21),
        )
        simulator.track_view(spec.target_user)
        result = simulator.run(log)
        timeline = result.tracked_views[spec.target_user]
        counts = dict(timeline.replica_counts)
        peak = max(counts.values())
        during = [c for t, c in counts.items() if 0.25 * DAY <= t <= 0.6 * DAY]
        after = [c for t, c in counts.items() if t >= 0.95 * DAY]
        assert peak >= 2, "the hot view should be replicated during the flash event"
        assert during and max(during) >= 2
        assert after and min(after) <= max(during), "replicas should not keep growing after the event"


class TestCrashRecoveryIntegration:
    def test_recovery_uses_replicas_and_persistent_store(self, scenario):
        graph, log = scenario
        _, simulator = run_strategy(DynaSoRe(initializer="hmetis", seed=13), graph, log, 100.0)
        strategy = simulator.strategy
        users = list(simulator.graph.users)
        crashed = strategy.replica_positions(users[0])[0]
        held = strategy.tables.used[crashed]

        record = simulator.crash_server(crashed, now=log.stats().last_timestamp)
        assert record.kind == "crash"
        assert record.total_views == held
        assert strategy.tables.used[crashed] == 0
        assert all(strategy.has_any_replica(user) for user in users)
        assert all(crashed not in strategy.replica_positions(user) for user in users)
        # With 100% extra memory a good share of views had surviving replicas.
        assert record.views_from_memory / record.total_views > 0.2
