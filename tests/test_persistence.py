"""Tests for the write-ahead log, persistent store and crash recovery."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.constants import DAY
from repro.core.engine import DynaSoRe
from repro.exceptions import PersistenceError
from repro.persistence.backend import PersistentStore
from repro.persistence.recovery import RecoveryPlan
from repro.persistence.wal import LogRecord, WriteAheadLog
from repro.simulator.engine import ClusterSimulator


class TestWriteAheadLog:
    def test_append_assigns_sequence_numbers(self):
        wal = WriteAheadLog()
        first = wal.append("write", user=1, timestamp=0.0)
        second = wal.append("write", user=2, timestamp=1.0)
        assert first.sequence == 0
        assert second.sequence == 1
        assert wal.last_sequence() == 1
        assert len(wal) == 2

    def test_replay_from_sequence(self):
        wal = WriteAheadLog()
        for user in range(5):
            wal.append("write", user=user, timestamp=float(user))
        replayed = wal.replay(from_sequence=3)
        assert [r.user for r in replayed] == [3, 4]

    def test_persistence_on_disk(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append("write", user=1, timestamp=0.0, payload="hello")
        reloaded = WriteAheadLog(path)
        assert len(reloaded) == 1
        assert reloaded.replay()[0].payload == "hello"
        reloaded.append("write", user=2, timestamp=1.0)
        assert reloaded.last_sequence() == 1

    def test_truncate(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        for user in range(4):
            wal.append("write", user=user, timestamp=float(user))
        dropped = wal.truncate(up_to_sequence=2)
        assert dropped == 2
        assert [r.sequence for r in wal.replay()] == [2, 3]
        assert [r.sequence for r in WriteAheadLog(path).replay()] == [2, 3]

    def test_corrupt_record_raises(self):
        with pytest.raises(PersistenceError):
            LogRecord.from_json("not json at all")

    def test_record_round_trip(self):
        record = LogRecord(sequence=3, timestamp=1.5, kind="write", user=9, payload="x")
        assert LogRecord.from_json(record.to_json()) == record


class TestPersistentStore:
    def test_write_then_fetch(self):
        store = PersistentStore()
        version = store.process_write(user=1, timestamp=0.0, payload=b"event-1")
        assert version == 1
        view = store.fetch_view(1)
        assert view.version == 1
        assert view.events[0].payload == b"event-1"

    def test_versions_increase(self):
        store = PersistentStore()
        assert store.process_write(1, 0.0) == 1
        assert store.process_write(1, 1.0) == 2
        assert store.current_version(1) == 2

    def test_fetch_unknown_user_returns_empty_view(self):
        store = PersistentStore()
        view = store.fetch_view(42)
        assert view.version == 0
        assert view.events == []
        assert not store.has_view(42)

    def test_fetch_returns_copy(self):
        store = PersistentStore()
        store.process_write(1, 0.0, b"a")
        fetched = store.fetch_view(1)
        fetched.append_payload = None  # mutate the copy object freely
        fetched.events.clear()
        assert store.fetch_view(1).events

    def test_rebuild_from_wal(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        store = PersistentStore(WriteAheadLog(path))
        store.process_write(1, 0.0, b"a")
        store.process_write(1, 1.0, b"b")
        store.process_write(2, 2.0, b"c")
        recovered = PersistentStore(WriteAheadLog(path))
        assert recovered.current_version(1) == 2
        assert recovered.current_version(2) == 1

    def test_verify_integrity(self):
        store = PersistentStore()
        store.process_write(1, 0.0)
        store.verify_integrity()
        # Corrupt the materialised state on purpose.
        store._views[1].version = 99
        with pytest.raises(PersistenceError):
            store.verify_integrity()


def test_recovery_plan_split():
    plan = RecoveryPlan(
        crashed_server=10, recoverable_from_memory=[1, 3, 4], recoverable_from_disk=[2]
    )
    assert plan.total_views == 4
    assert plan.memory_recovery_fraction == 0.75
    empty = RecoveryPlan(crashed_server=10)
    assert empty.total_views == 0
    assert empty.memory_recovery_fraction == 1.0


class _CountingStore(PersistentStore):
    """Persistent store that remembers which views were fetched from it."""

    def __init__(self) -> None:
        super().__init__()
        self.fetched: list[int] = []

    def fetch_view(self, user):
        self.fetched.append(user)
        return super().fetch_view(user)


class TestRecovery:
    """Crash recovery of a DynaSoRe cluster through ``crash_server``."""

    @pytest.fixture
    def simulator(self, tree_topology, small_graph, small_log):
        simulator = ClusterSimulator(
            tree_topology,
            small_graph.copy(),
            DynaSoRe(initializer="random", seed=5),
            SimulationConfig(extra_memory_pct=100.0, seed=5),
        )
        simulator.run(small_log)
        return simulator

    @staticmethod
    def holdings(simulator, position):
        """Users on ``position`` with another replica, and those held only there."""
        replicated, sole = set(), set()
        for user in simulator.graph.users:
            positions = simulator.strategy.replica_positions(user)
            if position in positions:
                (replicated if len(positions) > 1 else sole).add(user)
        return replicated, sole

    def mixed_position(self, simulator):
        """The server holding the most replicated and sole views at once."""
        position = max(
            simulator.available_server_positions(),
            key=lambda p: min(len(part) for part in self.holdings(simulator, p)),
        )
        replicated, sole = self.holdings(simulator, position)
        assert replicated and sole
        return position, replicated, sole

    def test_plan_splits_memory_and_disk(self, simulator):
        crashed, replicated, sole = self.mixed_position(simulator)
        record = simulator.crash_server(crashed, now=DAY)
        assert record.views_from_memory == len(replicated)
        assert record.views_from_disk == len(sole)
        assert 0.0 < record.views_from_memory / record.total_views < 1.0

    def test_execute_recovery_updates_locations(self, simulator):
        crashed, replicated, sole = self.mixed_position(simulator)
        strategy = simulator.strategy
        before = {user: strategy.replica_positions(user) for user in replicated}
        simulator.crash_server(crashed, now=DAY)
        for user in replicated:
            assert set(strategy.replica_positions(user)) == set(before[user]) - {crashed}
        survivors = set(simulator.available_server_positions())
        for user in sole:
            positions = strategy.replica_positions(user)
            assert len(positions) == 1 and positions[0] in survivors
        assert strategy.tables.used[crashed] == 0

    def test_disk_recovery_reads_persistent_store(self, simulator):
        crashed, _, sole = self.mixed_position(simulator)
        store = _CountingStore()
        simulator.persistent_store = store
        simulator.crash_server(crashed, now=DAY)
        assert sorted(store.fetched) == sorted(sole)

    def test_drain_recovers_everything_from_memory(self, simulator):
        drained, replicated, sole = self.mixed_position(simulator)
        record = simulator.drain_server(drained, now=DAY)
        assert record.kind == "drain"
        assert record.views_from_disk == 0
        assert record.views_from_memory == len(replicated) + len(sole)
        assert simulator.persistent_store is None

    def test_unaffected_server_has_empty_plan(self, simulator):
        crashed, _, _ = self.mixed_position(simulator)
        simulator.crash_server(crashed, now=DAY)
        simulator.restore_server(crashed, now=DAY + 1.0)  # rejoins empty
        record = simulator.crash_server(crashed, now=DAY + 2.0)
        assert record.total_views == 0
