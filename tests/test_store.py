"""Tests for the in-memory store substrate: counters, stats, servers, budget."""

from __future__ import annotations


import pytest

from repro.constants import DEFAULT_ADMISSION_FILL, DEFAULT_EVICTION_THRESHOLD
from repro.exceptions import CapacityError, StorageError
from repro.store.counters import RotatingCounter
from repro.store.memory import MemoryBudget, budget_for
from repro.store.stats import AccessStatistics
from repro.store.tables import NO_SLOT, ReplicaTable, pick_least_loaded
from repro.store.view import Event, INFINITE_UTILITY, View, ViewReplica


class TestRotatingCounter:
    def test_records_and_totals(self):
        counter = RotatingCounter(slots=4, period=10.0)
        counter.record(1.0)
        counter.record(2.0)
        assert counter.total() == 2.0

    def test_rotation_clears_oldest(self):
        counter = RotatingCounter(slots=3, period=10.0)
        counter.record(5.0)  # slot for period 0
        counter.record(15.0)  # period 1
        counter.record(25.0)  # period 2
        assert counter.total() == 3.0
        counter.record(35.0)  # period 3 reuses slot of period 0
        assert counter.total() == 3.0

    def test_long_gap_clears_everything(self):
        counter = RotatingCounter(slots=3, period=10.0)
        counter.record(1.0)
        counter.advance(1000.0)
        assert counter.is_empty()

    def test_advance_is_monotonic(self):
        counter = RotatingCounter(slots=3, period=10.0)
        counter.record(25.0)
        counter.advance(5.0)  # going back in time is a no-op
        assert counter.total() == 1.0

    def test_rate_per_period(self):
        counter = RotatingCounter(slots=4, period=10.0)
        for t in (1.0, 2.0, 11.0, 21.0):
            counter.record(t)
        assert counter.rate_per_period() == pytest.approx(1.0)

    def test_copy_is_independent(self):
        counter = RotatingCounter(slots=2, period=10.0)
        counter.record(1.0)
        clone = counter.copy()
        clone.record(2.0)
        assert counter.total() == 1.0
        assert clone.total() == 2.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(StorageError):
            RotatingCounter(slots=0)
        with pytest.raises(StorageError):
            RotatingCounter(period=0.0)

    def test_record_amount(self):
        counter = RotatingCounter(slots=2, period=10.0)
        counter.record(0.0, amount=5.0)
        assert counter.total() == 5.0


class TestAccessStatistics:
    def test_reads_by_origin(self):
        stats = AccessStatistics(slots=4, period=10.0)
        stats.record_read(origin=7, timestamp=1.0)
        stats.record_read(origin=7, timestamp=2.0)
        stats.record_read(origin=9, timestamp=3.0)
        assert stats.reads_by_origin() == {7: 2.0, 9: 1.0}
        assert stats.total_reads() == 3.0

    def test_writes(self):
        stats = AccessStatistics(slots=4, period=10.0)
        stats.record_write(1.0)
        stats.record_write(2.0)
        assert stats.total_writes() == 2.0

    def test_window_expiry(self):
        stats = AccessStatistics(slots=2, period=10.0)
        stats.record_read(origin=1, timestamp=0.0)
        stats.advance(100.0)
        assert stats.total_reads() == 0.0
        assert stats.reads_by_origin() == {}

    def test_copy(self):
        stats = AccessStatistics(slots=4, period=10.0)
        stats.record_read(3, 0.0)
        stats.record_write(0.0)
        clone = stats.copy()
        clone.record_read(3, 1.0)
        assert stats.reads_from(3) == 1.0
        assert clone.reads_from(3) == 2.0

    def test_clear(self):
        stats = AccessStatistics()
        stats.record_read(1, 0.0)
        stats.record_write(0.0)
        stats.clear()
        assert stats.total_reads() == 0.0
        assert stats.total_writes() == 0.0


class TestView:
    def test_append_orders_most_recent_first(self):
        view = View(user=1)
        view.append(Event(1, 1.0, b"a"))
        view.append(Event(1, 2.0, b"b"))
        assert view.events[0].payload == b"b"
        assert view.version == 2

    def test_max_events_trims(self):
        view = View(user=1, max_events=2)
        for i in range(5):
            view.append(Event(1, float(i)))
        assert len(view.events) == 2
        assert view.version == 5

    def test_latest(self):
        view = View(user=1)
        for i in range(4):
            view.append(Event(1, float(i)))
        assert [e.timestamp for e in view.latest(2)] == [3.0, 2.0]

    def test_copy_is_deep(self):
        view = View(user=1)
        view.append(Event(1, 1.0))
        clone = view.copy()
        clone.append(Event(1, 2.0))
        assert view.version == 1
        assert clone.version == 2

    def test_replica_sole_utility_is_infinite(self):
        replica = ViewReplica(user=1, server=0, stats=AccessStatistics())
        assert replica.is_sole_replica
        assert replica.effective_utility() == INFINITE_UTILITY
        replica.next_closest_replica = 5
        replica.utility = 3.0
        assert replica.effective_utility() == 3.0


class TestReplicaTablePosition:
    """One storage-server position of a ``ReplicaTable``: capacity,
    occupancy, admission threshold and eviction order."""

    def make_table(self, capacity: int = 10) -> ReplicaTable:
        table = ReplicaTable(positions=1)
        table.set_capacity(0, capacity)
        return table

    def add(self, table: ReplicaTable, user: int, utility: float | None = None) -> int:
        """Allocate at position 0 and return the slot; a ``utility`` makes
        the replica a non-sole one (finite effective utility)."""
        slot = table.allocate(user, 0)
        if utility is not None:
            table._next_closest[slot] = 99
            table._utility[slot] = utility
        return slot

    def test_add_and_remove(self):
        table = self.make_table()
        slot = table.allocate(1, 0)
        assert table.slot_of(1, 0) == slot
        assert table.used_of(0) == 1
        table.free(slot)
        assert table.slot_of(1, 0) is None
        assert table.used_of(0) == 0

    def test_slot_of_is_the_duplicate_and_unknown_guard(self):
        # ``allocate`` stores whatever it is told to; callers ask ``slot_of``
        # first, which finds a replica at exactly that position or nothing.
        table = ReplicaTable(positions=2)
        slot = table.allocate(1, 0)
        assert table.slot_of(1, 0) == slot
        assert table.slot_of(1, 1) is None
        assert table.slot_of(9, 0) is None
        table.allocate(1, 1)
        assert table.user_positions(1) == (0, 1)
        assert table.users_at(0) == [1]

    def test_allocation_past_capacity_is_counted_not_refused(self):
        # Admission policy belongs to the callers (initial placement and
        # recovery overflow on purpose); the table reports the excess.
        table = self.make_table(capacity=1)
        self.add(table, 1)
        self.add(table, 2)
        assert table.used_of(0) == 2 > table.capacity_of(0)
        assert table.needs_eviction(0, DEFAULT_EVICTION_THRESHOLD)
        assert table.excess_replicas(0, DEFAULT_EVICTION_THRESHOLD) == 1

    def test_utilisation_ranks_positions(self):
        table = ReplicaTable(positions=2)
        table.set_capacity(0, 4)
        table.set_capacity(1, 4)
        for user, position in ((1, 0), (2, 0), (3, 1)):
            table.allocate(user, position)
        assert table.capacity_of(0) - table.used_of(0) == 2
        assert pick_least_loaded(table.used, capacities=table.capacities) == 1

    def test_admission_threshold_zero_when_not_full(self):
        table = self.make_table(capacity=10)
        for user in range(5):
            self.add(table, user)
        assert table.update_admission_threshold(0, DEFAULT_ADMISSION_FILL) == 0.0

    def test_admission_threshold_positive_when_nearly_full(self):
        table = self.make_table(capacity=10)
        for user in range(10):
            self.add(table, user, utility=float(user))
        assert table.update_admission_threshold(0, DEFAULT_ADMISSION_FILL) > 0.0
        assert table.admission_thresholds[0] > 0.0

    def test_eviction_candidates_exclude_sole_replicas(self):
        table = self.make_table(capacity=5)
        sole = self.add(table, 1)
        replicated = self.add(table, 2, utility=1.0)
        assert table._next_closest[sole] == NO_SLOT
        assert table.eviction_candidate_slots(0) == [replicated]

    def test_eviction_candidates_sorted_by_utility(self):
        table = self.make_table(capacity=5)
        for user, utility in ((1, 5.0), (2, 1.0), (3, 3.0)):
            self.add(table, user, utility=utility)
        users = [table.user_of(slot) for slot in table.eviction_candidate_slots(0)]
        assert users == [2, 3, 1]

    def test_needs_eviction(self):
        table = self.make_table(capacity=100)
        for user in range(100):
            self.add(table, user)
        assert table.needs_eviction(0, DEFAULT_EVICTION_THRESHOLD)
        assert table.excess_replicas(0, DEFAULT_EVICTION_THRESHOLD) == 5

    def test_full_server_always_frees_one_slot(self):
        # Even when 95% of a small capacity rounds up to "full", a full
        # server frees at least one slot so the cluster can keep adapting.
        table = self.make_table(capacity=10)
        for user in range(10):
            self.add(table, user)
        assert table.needs_eviction(0, DEFAULT_EVICTION_THRESHOLD)
        assert table.excess_replicas(0, DEFAULT_EVICTION_THRESHOLD) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(StorageError):
            self.make_table(capacity=-1)


class TestMemoryBudget:
    def test_total_capacity(self):
        budget = MemoryBudget(views=100, extra_memory_pct=30.0, servers=4)
        assert budget.total_capacity == 130

    def test_per_server_split_is_exact(self):
        budget = MemoryBudget(views=100, extra_memory_pct=30.0, servers=7)
        capacities = budget.per_server_capacity()
        assert sum(capacities) == budget.total_capacity
        assert max(capacities) - min(capacities) <= 1

    def test_zero_extra_memory(self):
        budget = budget_for(views=50, extra_memory_pct=0.0, servers=5)
        assert budget.total_capacity == 50

    def test_rejects_insufficient_capacity(self):
        with pytest.raises(CapacityError):
            MemoryBudget(views=10, extra_memory_pct=-5.0, servers=2)

    def test_rejects_zero_servers(self):
        with pytest.raises(CapacityError):
            MemoryBudget(views=10, extra_memory_pct=0.0, servers=0)
