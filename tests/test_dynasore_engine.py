"""Tests for the DynaSoRe placement engine."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.config import DynaSoReConfig
from repro.constants import HOUR
from repro.core.engine import DynaSoRe
from repro.exceptions import ConfigurationError, SimulationError
from repro.store.memory import MemoryBudget
from repro.traffic.accounting import TrafficAccountant


def bind_dynasore(
    topology,
    graph,
    extra_memory_pct=50.0,
    initializer="hmetis",
    config=None,
    seed=3,
):
    strategy = DynaSoRe(initializer=initializer, config=config or DynaSoReConfig(), seed=seed)
    accountant = TrafficAccountant(topology)
    budget = MemoryBudget(
        views=graph.num_users, extra_memory_pct=extra_memory_pct, servers=len(topology.servers)
    )
    strategy.bind(topology, graph, accountant, budget)
    return strategy, accountant


class TestInitialPlacement:
    def test_every_view_has_one_replica(self, tree_topology, small_graph):
        strategy, _ = bind_dynasore(tree_topology, small_graph)
        locations = strategy.replica_locations()
        assert set(locations) == set(small_graph.users)
        assert all(len(devices) == 1 for devices in locations.values())

    def test_table_capacities_are_the_budget_split(self, tree_topology, small_graph):
        strategy, _ = bind_dynasore(tree_topology, small_graph, extra_memory_pct=30.0)
        table = strategy.tables
        assert table.capacities == strategy.budget.per_server_capacity()
        assert sum(table.capacities) == strategy.memory_capacity()
        assert table.admission_thresholds == [0.0] * table.num_positions

    def test_proxies_start_in_view_rack(self, tree_topology, small_graph):
        strategy, _ = bind_dynasore(tree_topology, small_graph)
        for user in list(small_graph.users)[:20]:
            device = next(iter(strategy.replica_locations()[user]))
            broker = strategy.proxies.read_broker(user)
            assert tree_topology.rack_of(broker) == tree_topology.rack_of(device)

    def test_unknown_initializer_rejected(self):
        with pytest.raises(ConfigurationError):
            DynaSoRe(initializer="sorting-hat")

    def test_callable_initializer(self, tree_topology, small_graph):
        def everyone_on_server_zero(graph, topology, seed):
            return {user: 0 for user in graph.users}

        strategy = DynaSoRe(initializer=everyone_on_server_zero)
        accountant = TrafficAccountant(tree_topology)
        budget = MemoryBudget(
            views=small_graph.num_users,
            extra_memory_pct=200.0,
            servers=len(tree_topology.servers),
        )
        strategy.bind(tree_topology, small_graph, accountant, budget)
        # Capacity fitting spreads the overflow across other servers.
        assert strategy.memory_in_use() == small_graph.num_users


class TestExecution:
    def test_read_records_traffic_and_statistics(self, tree_topology, small_graph):
        strategy, accountant = bind_dynasore(tree_topology, small_graph)
        reader = next(u for u in small_graph.users if small_graph.out_degree(u) >= 2)
        strategy.execute_read(reader, now=10.0)
        assert accountant.message_count > 0
        target = next(iter(small_graph.following(reader)))
        position = strategy.replica_positions(target)[0]
        slot = strategy.tables.slot_of(target, position)
        assert strategy.tables.stats.total_reads(slot) >= 1

    def test_write_updates_all_replicas(self, tree_topology, small_graph):
        strategy, accountant = bind_dynasore(tree_topology, small_graph)
        user = small_graph.users[0]
        strategy.execute_write(user, now=10.0)
        for position in strategy.replica_positions(user):
            slot = strategy.tables.slot_of(user, position)
            assert strategy.tables.stats.total_writes(slot) >= 1

    def test_hot_remote_view_gets_replicated(self, tree_topology, small_graph):
        strategy, _ = bind_dynasore(tree_topology, small_graph, extra_memory_pct=100.0)
        # Pick a view and a reader whose proxies live in another sub-tree.
        target = small_graph.users[0]
        target_device = next(iter(strategy.replica_locations()[target]))
        target_inter = tree_topology.intermediate_of(target_device)
        reader = next(
            u
            for u in small_graph.users
            if tree_topology.intermediate_of(
                next(iter(strategy.replica_locations()[u]))
            )
            != target_inter
        )
        before = strategy.replica_count(target)
        for i in range(30):
            strategy.execute_read(reader, now=float(i), targets=(target,))
        assert strategy.replica_count(target) > before

    def test_replication_respects_capacity(self, tree_topology, small_graph):
        strategy, _ = bind_dynasore(tree_topology, small_graph, extra_memory_pct=30.0)
        for i, user in enumerate(list(small_graph.users)[:60]):
            strategy.execute_read(user, now=float(i))
        table = strategy.tables
        assert all(used <= cap for used, cap in zip(table.used, table.capacities))
        budget_capacity = strategy.memory_capacity()
        assert strategy.memory_in_use() <= budget_capacity

    def test_every_view_keeps_at_least_one_replica(self, tree_topology, small_graph):
        strategy, _ = bind_dynasore(tree_topology, small_graph, extra_memory_pct=50.0)
        for i, user in enumerate(list(small_graph.users)[:80]):
            strategy.execute_read(user, now=float(i))
            strategy.execute_write(user, now=float(i) + 0.5)
        strategy.on_tick(HOUR)
        locations = strategy.replica_locations()
        assert all(len(devices) >= 1 for devices in locations.values())

    def test_new_user_is_provisioned_on_demand(self, tree_topology, small_graph):
        strategy, _ = bind_dynasore(tree_topology, small_graph)
        small_graph.add_edge(10_000, small_graph.users[0])
        strategy.on_edge_added(10_000, small_graph.users[0], now=0.0)
        assert strategy.replica_count(10_000) == 1

    def test_read_proxy_migrates_toward_data(self, tree_topology, small_graph):
        strategy, _ = bind_dynasore(tree_topology, small_graph, extra_memory_pct=0.0)
        reader = small_graph.users[0]
        # Force the read proxy far from the single target view.
        target = next(iter(small_graph.following(reader)))
        target_device = next(iter(strategy.replica_locations()[target]))
        far_broker = next(
            b.index
            for b in tree_topology.brokers
            if tree_topology.intermediate_of(b.index)
            != tree_topology.intermediate_of(target_device)
        )
        strategy.proxies.read_proxy[reader] = far_broker
        strategy.execute_read(reader, now=0.0, targets=(target,))
        new_broker = strategy.proxies.read_broker(reader)
        assert tree_topology.rack_of(new_broker) == tree_topology.rack_of(target_device)

    def test_tick_updates_thresholds_and_counters(self, tree_topology, small_graph):
        strategy, _ = bind_dynasore(tree_topology, small_graph, extra_memory_pct=0.0)
        for i, user in enumerate(list(small_graph.users)[:30]):
            strategy.execute_read(user, now=float(i))
        strategy.on_tick(HOUR)
        assert strategy._threshold_cache == {}
        assert all(value >= 0.0 for value in strategy.tables.admission_thresholds)

    def test_counters_track_decisions(self, tree_topology, small_graph):
        strategy, _ = bind_dynasore(tree_topology, small_graph, extra_memory_pct=100.0)
        for i, user in enumerate(list(small_graph.users)[:80]):
            strategy.execute_read(user, now=float(i))
        counts = asdict(strategy.counters)
        assert counts["replicas_created"] >= 0
        assert counts["replicas_created"] >= counts["replicas_migrated"]

    def test_flat_topology_execution(self, flat_topology, tiny_graph):
        strategy, accountant = bind_dynasore(
            flat_topology, tiny_graph, extra_memory_pct=100.0, initializer="random"
        )
        for i, user in enumerate(tiny_graph.users):
            strategy.execute_read(user, now=float(i))
            strategy.execute_write(user, now=float(i) + 0.1)
        strategy.on_tick(HOUR)
        assert accountant.message_count > 0
        assert all(len(d) >= 1 for d in strategy.replica_locations().values())
