"""Tests for the write-ahead log, persistent store and crash recovery."""

from __future__ import annotations

import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.constants import DAY
from repro.core.engine import DynaSoRe
from repro.exceptions import PersistenceError
from repro.persistence import wal as wal_module
from repro.persistence.backend import PersistentStore
from repro.persistence.recovery import RecoveryPlan
from repro.persistence.wal import LogRecord, WriteAheadLog
from repro.simulator.engine import ClusterSimulator
from repro.store.view import Event, View


class TestWriteAheadLog:
    def test_append_assigns_sequence_numbers(self):
        wal = WriteAheadLog()
        first = wal.append("write", user=1, timestamp=0.0)
        second = wal.append("write", user=2, timestamp=1.0)
        assert (first, second) == (0, 1)
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

    def test_reopened_log_continues_the_sequence_numbers(self, tmp_path):
        """``append`` returns the number the record is stored under, and a
        log reopened from its file carries on where the file ends."""
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        assert [wal.append("write", user, float(user)) for user in range(3)] == [0, 1, 2]
        reopened = WriteAheadLog(path)
        assert reopened.last_sequence() == 2
        assert reopened.append("config", 0, 3.0, payload="p") == 3
        assert [record.sequence for record in WriteAheadLog(path).replay()] == [0, 1, 2, 3]

    def test_path_backed_appends_are_fsynced_once_each(self, tmp_path, monkeypatch):
        """Each append reaches stable storage before it returns: one
        ``os.fsync`` per record, on the log's own file."""
        fsync = os.fsync
        synced: list[int] = []

        def counting_fsync(descriptor):
            synced.append(len(path.read_bytes().splitlines()))
            fsync(descriptor)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        for user in range(5):
            wal.append("write", user=user, timestamp=float(user))
        store = PersistentStore(WriteAheadLog(path))
        store.process_write(9, 5.0, b"x")
        # The n-th fsync finds the n-th record already written and flushed.
        assert synced == [1, 2, 3, 4, 5, 6]

    def test_appends_without_a_path_build_no_record(self, monkeypatch):
        """A mirrored write only fills the log's columns: over 1 000 writes
        to a store with no file, no :class:`LogRecord` is constructed."""
        built: list[LogRecord] = []

        class CountingRecord(LogRecord):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(wal_module, "LogRecord", CountingRecord)
        store = PersistentStore()
        for position in range(1000):
            store.process_write(position % 17, float(position))
        assert len(store.wal) == 1000
        assert not built
        assert len(store.wal.replay(from_sequence=998)) == len(built) == 2

    def test_load_refuses_sequences_that_do_not_increase(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text(
            "".join(
                LogRecord(sequence, float(sequence), "write", 1).to_json() + "\n"
                for sequence in (0, 2, 1)
            )
        )
        with pytest.raises(PersistenceError, match=r"wal\.jsonl:3: sequence 1"):
            WriteAheadLog(path)

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
        store._versions[1] = 99
        with pytest.raises(PersistenceError):
            store.verify_integrity()

    def test_rebuild_keeps_payloads_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        payloads = [b"\xff\x00caf\xc3\xa9", "café".encode(), b""]
        store = PersistentStore(WriteAheadLog(path))
        for timestamp, payload in enumerate(payloads):
            store.process_write(1, float(timestamp), payload)
        # Payloads that are valid UTF-8 are logged as that text.
        assert [record.payload for record in WriteAheadLog(path).replay()][1:] == ["café", ""]
        recovered = PersistentStore(WriteAheadLog(path))
        recovered.verify_integrity()
        assert [event.payload for event in recovered.fetch_view(1).events] == [
            event.payload for event in store.fetch_view(1).events
        ]
        assert recovered.fetch_view(1).events[-1].payload == payloads[0]

    def test_mirrored_writes_stay_small(self):
        """A mirrored write costs at most 120 B of log and store state."""
        writes, users = 50_000, 5_000
        tracemalloc.start()
        try:
            store = PersistentStore()
            before = tracemalloc.get_traced_memory()[0]
            for position in range(writes):
                store.process_write(position % users, float(position))
            per_write = (tracemalloc.get_traced_memory()[0] - before) / writes
        finally:
            tracemalloc.stop()
        assert len(store.wal) == writes
        assert per_write <= 120, per_write


class _ReferenceLog:
    """Object model of the log: a list of records, the next sequence number."""

    def __init__(self) -> None:
        self.records: list[LogRecord] = []
        self.next_sequence = 0

    def append(self, kind, user, timestamp, payload):
        self.records.append(LogRecord(self.next_sequence, timestamp, kind, user, payload))
        self.next_sequence += 1


class _ReferenceStore:
    """Object model of the store: one :class:`View` per user, rebuilt from
    the log's writes, every write appended through :meth:`View.append`."""

    def __init__(self, log: _ReferenceLog, max_events: int | None) -> None:
        self.max_events = max_events
        self.views: dict[int, View] = {}
        for record in log.records:
            if record.kind == "write":
                self.apply(
                    record.user, record.timestamp, record.payload.encode(errors="surrogateescape")
                )

    def apply(self, user, timestamp, payload):
        view = self.views.setdefault(user, View(user=user, max_events=self.max_events))
        view.append(Event(producer=user, timestamp=timestamp, payload=payload))

    def fetch_view(self, user):
        view = self.views.get(user)
        return view.copy() if view is not None else View(user=user, max_events=self.max_events)


_USERS = st.integers(0, 3)
_TIMES = st.floats(allow_nan=False, allow_infinity=False, width=64)
_KINDS = st.sampled_from(["write", "config"])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _KINDS, _USERS, _TIMES, st.text(max_size=4)),
        st.tuples(st.just("write"), _USERS, _TIMES, st.binary(max_size=4)),
        st.tuples(st.just("fetch"), _USERS),
        st.tuples(st.just("reload")),
    ),
    max_size=30,
)


def _view_state(view: View):
    return view.user, view.version, view.max_events, [
        (event.producer, event.timestamp, event.payload) for event in view.events
    ]


@settings(max_examples=150, deadline=None)
@given(steps=_STEPS, max_events=st.sampled_from([1, 2, 3, 4, None]))
def test_columnar_log_and_store_match_the_object_model(steps, max_events):
    """Random appends, writes, fetches and restarts from disk: the columnar
    log and store answer exactly as the object model does."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "wal.jsonl"
        store = PersistentStore(WriteAheadLog(path), max_events_per_view=max_events)
        log = _ReferenceLog()
        reference = _ReferenceStore(log, max_events)
        for step in steps:
            if step[0] == "append":
                _, kind, user, timestamp, payload = step
                sequence = store.wal.append(kind, user, timestamp, payload)
                log.append(kind, user, timestamp, payload)
                assert sequence == log.records[-1].sequence
            elif step[0] == "write":
                _, user, timestamp, payload = step
                reference.apply(user, timestamp, payload)
                log.append("write", user, timestamp, payload.decode(errors="surrogateescape"))
                version = store.process_write(user, timestamp, payload)
                assert version == reference.views[user].version
            elif step[0] == "fetch":
                assert _view_state(store.fetch_view(step[1])) == _view_state(
                    reference.fetch_view(step[1])
                )
            else:
                # A restart reads the whole log back from disk.
                store = PersistentStore(WriteAheadLog(path), max_events_per_view=max_events)
                reference = _ReferenceStore(log, max_events)
            assert store.wal.replay() == log.records
            assert len(store.wal) == len(log.records)
            assert store.wal.last_sequence() == log.next_sequence - 1
        for user in range(4):
            assert _view_state(store.fetch_view(user)) == _view_state(reference.fetch_view(user))
            assert store.current_version(user) == (
                reference.views[user].version if user in reference.views else 0
            )
            assert store.has_view(user) == (user in reference.views)


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
