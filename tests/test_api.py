"""Tests for the public key-value API (DynaSoReStore)."""

from __future__ import annotations

import doctest

import pytest

import repro

from repro.baselines.base import StaticPlacementStrategy
from repro.config import ClusterSpec
from repro.core.api import DynaSoReStore
from repro.exceptions import SimulationError
from repro.persistence.backend import PersistentStore
from repro.persistence.wal import WriteAheadLog
from repro.socialgraph.generators import facebook_like
from repro.topology.tree import TreeTopology


@pytest.fixture
def store():
    topology = TreeTopology(
        ClusterSpec(intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=4)
    )
    graph = facebook_like(users=100, seed=6)
    return DynaSoReStore(topology, graph, extra_memory_pct=50.0, seed=6)


class TestDynaSoReStore:
    def test_write_returns_increasing_versions(self, store):
        user = store.graph.users[0]
        assert store.write(user, b"first") == 1
        assert store.write(user, b"second") == 2

    def test_read_returns_written_events(self, store):
        producer = store.graph.users[0]
        consumer = next(iter(store.graph.followers(producer)), None)
        store.write(producer, b"breaking news")
        views = store.read(consumer if consumer is not None else producer, targets=[producer])
        assert views[producer].version == 1
        assert views[producer].events[0].payload == b"breaking news"

    def test_read_defaults_to_social_graph(self, store):
        reader = next(u for u in store.graph.users if store.graph.out_degree(u) >= 1)
        views = store.read(reader)
        assert set(views) == set(store.graph.following(reader))

    def test_read_records_traffic(self, store):
        reader = next(u for u in store.graph.users if store.graph.out_degree(u) >= 1)
        before = store.accountant.message_count
        store.read(reader)
        assert store.accountant.message_count > before

    def test_write_is_durable(self, store):
        user = store.graph.users[0]
        store.write(user, b"persist me")
        assert store.persistent.current_version(user) == 1
        store.persistent.verify_integrity()

    def test_clock_advances_monotonically(self, store):
        store.advance_time(100.0)
        assert store.now == 100.0
        with pytest.raises(SimulationError):
            store.advance_time(50.0)

    def test_maintenance_runs(self, store):
        user = store.graph.users[0]
        store.write(user)
        store.advance_time(3700.0)
        store.run_maintenance()  # must not raise
        assert store.replica_count(user) >= 1

    def test_top_switch_traffic_reported(self, store):
        reader = next(u for u in store.graph.users if store.graph.out_degree(u) >= 3)
        for _ in range(5):
            store.read(reader)
        assert store.top_switch_traffic() >= 0.0
        snapshot = store.traffic_snapshot()
        assert "top" in snapshot.total_by_level

    def test_custom_strategy_and_persistent_store(self):
        topology = TreeTopology(
            ClusterSpec(intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=4)
        )
        graph = facebook_like(users=60, seed=7)
        persistent = PersistentStore(WriteAheadLog())
        store = DynaSoReStore(
            topology,
            graph,
            extra_memory_pct=0.0,
            strategy=StaticPlacementStrategy("random", seed=7),
            persistent_store=persistent,
            seed=7,
        )
        user = graph.users[0]
        store.write(user, b"x")
        assert persistent.current_version(user) == 1
        assert store.replica_count(user) == 1

    def test_views_of_silent_users_are_empty(self, store):
        reader = next(u for u in store.graph.users if store.graph.out_degree(u) >= 1)
        views = store.read(reader)
        assert all(view.version == 0 for view in views.values())


def test_package_quickstart_runs():
    """The quickstart in the package docstring is the only doctest."""
    assert doctest.testmod(repro) == doctest.TestResults(failed=0, attempted=6)
