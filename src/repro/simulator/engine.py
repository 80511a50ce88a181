"""Trace-driven cluster simulator (paper section 4.3).

The simulator replays a workload against a placement strategy deployed on
a cluster topology.  It owns the traffic accountant (so every strategy is
measured identically), applies social-graph mutations, fires the periodic
maintenance ticks, and optionally samples the replica count of tracked views
(the flash-event experiment).

There is **one replay loop** (:meth:`ClusterSimulator._replay`) and it is
chunk-native: it iterates the typed-array columns of
:class:`~repro.workload.stream.EventStream` chunks directly, constructing
no per-event objects; this is how paper-scale runs (tens of millions of
events) stay within a constant workload memory budget.

Each chunk is segmented into **runs** of requests bounded by the next fault,
maintenance-tick and tracked-view sample timestamps and by edge-mutation
events (boundaries are found at C speed — a timestamp bisect plus byte
scans per run).  Every run, one event long or longer, is dispatched through
the strategy's ``execute_request_batch`` kernel.  Observation and durability
sit *beside* that dispatch, not in a fork of it:

* **tracked-view sampling** — the next sample instant of the tracked views
  (every :data:`TRACKING_PERIOD`) is one more run boundary, like a tick: the
  views are sampled where the first run at or after it starts, and each
  run's reads by their followers are counted once per run
  (:meth:`ClusterSimulator._count_tracked_reads`);
* **the durability mirror** — an attached persistent store does not reshape
  the runs: the writes of each run are logged into it in stream order just
  before the run is dispatched (:func:`_mirror_writes`), which leaves the
  identical store wherever anything can read it.

On top of the benign replay the simulator hosts the *scenario* layer
(:mod:`repro.scenarios`): an attached scenario may reshape the workload
(diurnal load — a chunk-level stream transform) and inject
infrastructure faults — server crashes, graceful drains, rejoins — which
the simulator applies at their simulated timestamps, interleaved with
maintenance ticks.  The simulator drives the strategy's evacuation hooks
(the strategy's down set is the one record of which servers are out;
``server_up`` reads it) and wires crashes into the persistence layer: writes are mirrored into a
:class:`~repro.persistence.backend.PersistentStore`, and
views whose only replica died are re-fetched from that store in simulated
time (WAL-driven recovery, paper sections 2.2 and 3.3).

A pre-tick hook (``add_pre_tick_hook``) lets tests and experiments observe
the run before every maintenance tick without subclassing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from itertools import compress
from typing import TYPE_CHECKING

from ..config import SimulationConfig
from ..constants import MINUTE
from ..exceptions import SimulationError
from ..baselines.base import PlacementStrategy
from ..persistence.backend import PersistentStore
from ..socialgraph.graph import SocialGraph
from ..store.memory import MemoryBudget
from ..store.tables import check_tables_enabled
from ..topology.base import ClusterTopology
from ..traffic.accounting import TrafficAccountant
from ..workload.stream import (
    EventStream,
    KIND_EDGE_ADD,
    KIND_EDGE_REMOVE,
    KIND_READ,
    KIND_WRITE,
    request_run_end,
)
from .clock import SimulationClock
from .results import FaultRecord, ReplicaTimeline, SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.base import Scenario
    from ..scenarios.events import FaultEvent

#: Sampling period of tracked views (the paper samples every 10 minutes).
TRACKING_PERIOD = 10 * MINUTE

#: Kind byte -> 1 for reads, 0 otherwise (a ``bytes.translate`` table).
_READ_MASK = bytes(1 if kind == KIND_READ else 0 for kind in range(256))


def _mirror_writes(
    store: PersistentStore,
    kinds: bytes,
    users,
    times,
    start: int,
    end: int,
) -> None:
    """Log the writes of the run ``[start, end)`` into the WAL-backed store.

    The durability mirror of the replay loop: writes are found with
    ``bytes.find`` on the kind column and logged in stream order *before*
    the run is dispatched (log first, the order
    :meth:`PersistentStore.process_write` documents).

    Mirroring ahead of the run is exact: the store is written only here and
    read only by crash recovery, by pre-tick hooks and after the run — and
    fault and tick timestamps end every run — while no strategy, accountant
    or result field reads it.  At every point where anything can look, the
    store holds the records per-event mirroring would have written.
    """
    process_write = store.process_write
    position = kinds.find(KIND_WRITE, start, end)
    while position != -1:
        process_write(users[position], times[position])
        position = kinds.find(KIND_WRITE, position + 1, end)


class ClusterSimulator:
    """Replays an event stream against one strategy."""

    def __init__(
        self,
        topology: ClusterTopology,
        graph: SocialGraph,
        strategy: PlacementStrategy,
        config: SimulationConfig | None = None,
        scenario: "Scenario | None" = None,
        persistent_store: PersistentStore | None = None,
    ) -> None:
        self.topology = topology
        self.graph = graph
        self.strategy = strategy
        self.config = config or SimulationConfig()
        self.scenario = scenario
        self.accountant = TrafficAccountant(
            topology,
            bucket_width=self.config.bucket_width,
            measure_from=self.config.measure_from,
        )
        self.budget = MemoryBudget(
            views=graph.num_users,
            extra_memory_pct=self.config.extra_memory_pct,
            servers=len(topology.servers),
        )
        self.persistent_store = persistent_store
        self._prepared = False
        #: Faults applied during the run, in order.
        self.fault_records: list[FaultRecord] = []
        self._fault_events: list["FaultEvent"] = []
        self._next_fault = 0
        self._pre_tick_hooks: list[Callable[[float], None]] = []
        #: Views whose replica count is sampled over time (flash events).
        self._tracked_views: dict[int, ReplicaTimeline] = {}
        #: Read counts of tracked views since the previous sample.
        self._tracked_reads: dict[int, int] = {}
        #: Follower sets of tracked views, maintained incrementally on edge
        #: events so counting a read is a set-membership check instead of an
        #: O(tracked x following) scan of the reader's adjacency.
        self._tracked_followers: dict[int, set[int]] = {}
        #: Time of the next tracked-view sample; every run restarts it from
        #: :data:`TRACKING_PERIOD`.
        self._next_sample: float = TRACKING_PERIOD
        self._reads_executed = 0
        self._writes_executed = 0
        #: Opt-in auditing mode: with ``REPRO_CHECK_TABLES=1`` in the
        #: environment, the strategy's placement table is integrity-checked
        #: after every maintenance tick and fault.
        self._check_tables = check_tables_enabled()

    # ------------------------------------------------------------------ setup
    def prepare(self) -> None:
        """Deploy the strategy: bind it to the cluster, which builds its
        initial placement (once; later calls do nothing)."""
        if self._prepared:
            return
        self.strategy.bind(self.topology, self.graph, self.accountant, self.budget)
        self._prepared = True

    def track_view(self, user: int) -> None:
        """Sample the replica count of ``user``'s view during the run."""
        self._tracked_views[user] = ReplicaTimeline(user=user)
        self._tracked_reads[user] = 0
        self._tracked_followers[user] = (
            set(self.graph.followers(user)) if self.graph.has_user(user) else set()
        )

    def reset_traffic(self) -> None:
        """Clear the traffic counters (e.g. after a warm-up phase)."""
        self.accountant.reset()

    # ------------------------------------------------------------------ hooks
    def add_pre_tick_hook(self, hook: Callable[[float], None]) -> None:
        """Run ``hook(tick_time)`` before every maintenance tick."""
        self._pre_tick_hooks.append(hook)

    # ----------------------------------------------------------------- faults
    @property
    def server_up(self) -> tuple[bool, ...]:
        """Per-position availability mask (True = in service), read off the
        strategy's down set — the one record of which servers are down."""
        available = self.strategy.position_available
        return tuple(available(p) for p in range(len(self.topology.servers)))

    def available_server_positions(self) -> tuple[int, ...]:
        """Positions of the storage servers currently in service."""
        return tuple(p for p, up in enumerate(self.server_up) if up)

    def crash_server(self, position: int, now: float, graceful: bool = False) -> FaultRecord:
        """Take a storage server out of service and recover its views.

        The strategy evacuates the server (views with surviving replicas
        keep serving; sole replicas are re-placed).  After an abrupt crash
        the re-placed views are additionally fetched from the persistent
        store — the in-memory copy is gone, so the write-ahead log is the
        only source of truth for them.  The strategy refuses an invalid
        position, a server already down and the last one in service.
        """
        plan = self.strategy.on_server_down(position, now, graceful=graceful)
        if plan.recoverable_from_disk:
            store = self._ensure_store()
            for user in plan.recoverable_from_disk:
                store.fetch_view(user)
        record = FaultRecord(
            timestamp=now,
            kind="drain" if graceful else "crash",
            position=position,
            views_from_memory=len(plan.recoverable_from_memory),
            views_from_disk=len(plan.recoverable_from_disk),
        )
        self.fault_records.append(record)
        if self._check_tables:
            self._audit_placement_tables()
        return record

    def drain_server(self, position: int, now: float) -> FaultRecord:
        """Gracefully remove a server: views are copied out, nothing is lost."""
        return self.crash_server(position, now, graceful=True)

    def restore_server(self, position: int, now: float) -> FaultRecord:
        """Bring a previously departed server back (with empty memory); the
        strategy refuses an invalid position and a server that is not down."""
        self.strategy.on_server_up(position, now)
        record = FaultRecord(timestamp=now, kind="restore", position=position)
        self.fault_records.append(record)
        if self._check_tables:
            self._audit_placement_tables()
        return record

    def _ensure_store(self) -> PersistentStore:
        """The persistent store, created on first need.

        A store created here starts empty: views recovered from it reflect
        only the writes mirrored since the run began.  Pass a pre-seeded
        store to the constructor to model older durable state.
        """
        if self.persistent_store is None:
            self.persistent_store = PersistentStore()
        return self.persistent_store

    # -------------------------------------------------------------------- run
    def run(self, workload: EventStream) -> SimulationResult:
        """Replay a workload and return the measured result.

        The workload must be sorted by timestamp.  Graph mutations are
        applied to the simulator's graph before the strategy is notified,
        and the strategy's periodic maintenance runs every ``tick_period``
        of simulated time.  An attached scenario first transforms the
        workload, then its fault events are applied at their timestamps,
        interleaved with the events and maintenance ticks.
        """
        self.prepare()
        self._next_sample = TRACKING_PERIOD
        clock = SimulationClock(tick_period=self.config.tick_period)
        stream = self._stage_scenario(workload)
        executed, first_time, last_time = self._replay(stream, clock)
        return self._finish(clock, executed, first_time, last_time)

    def _replay(
        self, stream: EventStream, clock: SimulationClock
    ) -> tuple[int, float, float]:
        """The replay loop: segment each chunk into runs and dispatch them.

        Before every run, faults and maintenance ticks due at its first
        timestamp are applied and, once a sample instant is reached, the
        tracked views are sampled.  A run is then the longest span of
        read/write events that reaches neither the next fault, tick or
        sample timestamp (one bisect on the timestamp column) nor an
        edge-mutation event (two C-speed byte scans).  While a persistent
        store is active the run's writes are mirrored into it first
        (:func:`_mirror_writes`); then the run, whatever its length, goes to
        the ``execute_request_batch`` kernel.  Edge mutations are applied
        per event — they re-shape the graph the next run executes against.

        **Tracked views** are sampled where each run starts — after the
        faults and ticks due at that event, so a view a pre-tick hook starts
        tracking mid-run is sampled from the very next run on.  The reads of a
        run are counted for the tracked views once, after its dispatch.
        """
        execute_request_batch = self.strategy.execute_request_batch
        tracked = self._tracked_views
        next_fault_time = self._next_fault_time()
        next_tick = clock.pending_tick()

        executed = 0
        reads = 0
        writes = 0
        first_time = 0.0
        last_time = 0.0
        for chunk in stream.chunks():
            times = chunk.timestamps
            n = len(times)
            if n == 0:
                continue
            if executed == 0:
                first_time = times[0]
            kinds = chunk.kinds.tobytes()
            users = chunk.users
            aux = chunk.aux
            index = 0
            while index < n:
                timestamp = times[index]
                if timestamp >= next_fault_time:
                    self._apply_due_faults(clock, timestamp)
                    next_fault_time = self._next_fault_time()
                    next_tick = clock.pending_tick()
                if timestamp >= next_tick:
                    self._advance_ticks(clock, timestamp)
                    next_tick = clock.pending_tick()
                if tracked and timestamp >= self._next_sample:
                    self._sample_tracked(timestamp)
                kind = kinds[index]
                if kind == KIND_READ or kind == KIND_WRITE:
                    boundary = (
                        next_fault_time if next_fault_time < next_tick else next_tick
                    )
                    if tracked and self._next_sample < boundary:
                        boundary = self._next_sample
                    end = (
                        bisect_left(times, boundary, index + 1, n)
                        if times[n - 1] >= boundary
                        else n
                    )
                    end = request_run_end(kinds, index, end)
                    # Faults, ticks and pre-tick hooks may have created the store.
                    store = self.persistent_store
                    if store is not None:
                        _mirror_writes(store, kinds, users, times, index, end)
                    run_kinds = kinds[index:end]
                    execute_request_batch(run_kinds, users[index:end], times[index:end])
                    run_reads = run_kinds.count(KIND_READ)
                    reads += run_reads
                    writes += end - index - run_reads
                    if tracked:
                        self._count_tracked_reads(kinds, users, index, end)
                else:
                    end = index + 1
                    if kind == KIND_EDGE_ADD:
                        self._edge_added(timestamp, users[index], aux[index])
                    elif kind == KIND_EDGE_REMOVE:
                        self._edge_removed(timestamp, users[index], aux[index])
                    else:  # pragma: no cover - defensive
                        raise SimulationError(f"unknown event kind {kind}")
                index = end
            executed += n
            last_time = times[n - 1]
        self._reads_executed = reads
        self._writes_executed = writes
        return executed, first_time, last_time

    def _finish(
        self,
        clock: SimulationClock,
        executed: int,
        first_time: float,
        last_time: float,
    ) -> SimulationResult:
        """Apply trailing faults, fire the final tick, assemble the result."""
        # Faults scheduled past the end of the workload still happen (e.g. a
        # recovery that closes a crash window after the last request).
        final_time = last_time
        if self._next_fault < len(self._fault_events):
            last_fault = self._fault_events[-1].timestamp
            self._apply_due_faults(clock, last_fault)
            final_time = max(final_time, last_fault)

        # Final maintenance tick and sample so end-of-run state is captured.
        self._fire_pre_tick(final_time)
        self.strategy.on_tick(final_time)
        if self._check_tables:
            self._audit_placement_tables()
        if self._tracked_views:
            self._sample_tracked(final_time)

        app_series, sys_series = self.accountant.top_switch_series()
        replication_factor = self.strategy.replication_factor()
        return SimulationResult(
            strategy_name=self.strategy.name,
            extra_memory_pct=self.config.extra_memory_pct,
            duration=last_time - first_time if executed else 0.0,
            requests_executed=executed,
            reads_executed=self._reads_executed,
            writes_executed=self._writes_executed,
            snapshot=self.accountant.snapshot(),
            top_series_application=app_series,
            top_series_system=sys_series,
            bucket_width=self.config.bucket_width,
            replication_factor=replication_factor,
            memory_in_use=self.strategy.memory_in_use(),
            tracked_views=dict(self._tracked_views),
            fault_records=list(self.fault_records),
            unavailable_views=self._count_unavailable_views(),
        )

    # --------------------------------------------------------- edge handlers
    def _edge_added(self, timestamp: float, follower: int, followee: int) -> None:
        self.graph.add_edge(follower, followee)
        self.strategy.on_edge_added(follower, followee, timestamp)
        followers = self._tracked_followers.get(followee)
        if followers is not None:
            followers.add(follower)

    def _edge_removed(self, timestamp: float, follower: int, followee: int) -> None:
        self.graph.remove_edge(follower, followee)
        self.strategy.on_edge_removed(follower, followee, timestamp)
        followers = self._tracked_followers.get(followee)
        if followers is not None:
            followers.discard(follower)

    # -------------------------------------------------------------- scenario
    def _stage_scenario(self, stream: EventStream) -> EventStream:
        """Apply the scenario's chunk-level transform and stage its faults."""
        if self.scenario is None:
            return stream
        from ..scenarios.base import ScenarioContext

        context = ScenarioContext(
            topology=self.topology, graph=self.graph, seed=self.config.seed
        )
        stream = self.scenario.transform_stream(stream, context)
        self._stage_fault_events(context)
        return stream

    def _stage_fault_events(self, context) -> None:
        events = sorted(
            self.scenario.fault_events(context), key=lambda event: event.timestamp
        )
        for event in events:
            if event.timestamp < 0:
                raise SimulationError("fault events cannot happen before time 0")
        self._fault_events = events
        self._next_fault = 0
        # Abrupt crashes recover sole replicas from the WAL-backed store, so
        # writes must be mirrored from t=0.  Pure load scenarios and
        # graceful-only drains never touch the store — don't pay for one.
        from ..scenarios.events import ServerCrash

        if self.persistent_store is None and any(
            isinstance(event, ServerCrash) for event in events
        ):
            self.persistent_store = PersistentStore()

    def _next_fault_time(self) -> float:
        """Timestamp of the next staged fault (infinity when none is left)."""
        if self._next_fault < len(self._fault_events):
            return self._fault_events[self._next_fault].timestamp
        return math.inf

    def _apply_due_faults(self, clock: SimulationClock, until: float) -> None:
        """Apply every staged fault event with ``timestamp <= until``.

        Maintenance ticks due before a fault fire first, so the ordering of
        ticks, faults and requests follows simulated time exactly.
        """
        while (
            self._next_fault < len(self._fault_events)
            and self._fault_events[self._next_fault].timestamp <= until
        ):
            event = self._fault_events[self._next_fault]
            self._next_fault += 1
            self._advance_ticks(clock, event.timestamp)
            event.apply(self)

    def _advance_ticks(self, clock: SimulationClock, until: float) -> None:
        ticked = False
        for tick_time in clock.advance_to(until):
            self._fire_pre_tick(tick_time)
            self.strategy.on_tick(tick_time)
            ticked = True
        if ticked and self._check_tables:
            self._audit_placement_tables()

    def _audit_placement_tables(self) -> None:
        """Integrity-check the strategy's placement tables (opt-in).

        Enabled by the ``REPRO_CHECK_TABLES`` environment flag; runs the
        :meth:`~repro.store.tables.ReplicaTable.check_integrity` auditor
        after maintenance ticks and after every crash, drain and restore —
        the moments bulk state transitions (counter sweeps, evictions,
        evacuations) could corrupt the chain indexes.
        """
        self.strategy.tables.check_integrity()

    def _fire_pre_tick(self, tick_time: float) -> None:
        for hook in self._pre_tick_hooks:
            hook(tick_time)

    def _count_unavailable_views(self) -> int:
        """Users with no replica anywhere (must be 0 after full recovery)."""
        has_any_replica = self.strategy.has_any_replica
        return sum(1 for user in self.graph.users if not has_any_replica(user))

    # ------------------------------------------------------------- tracking
    def _count_tracked_reads(self, kinds: bytes, users, start: int, end: int) -> None:
        """Count the reads of the run ``[start, end)`` that touch tracked
        views (the reader follows the view's owner).

        Once per run and at C speed: the read mask picks the readers out of
        the run, then one membership test per reader against each tracked
        view's follower set, which edge events keep current.
        """
        readers = list(compress(users[start:end], kinds[start:end].translate(_READ_MASK)))
        tracked_reads = self._tracked_reads
        for user, followers in self._tracked_followers.items():
            tracked_reads[user] += sum(map(followers.__contains__, readers))

    def _sample_tracked(self, now: float) -> None:
        """Sample every tracked view at ``now`` and schedule the next sample."""
        for user, timeline in self._tracked_views.items():
            count = self.strategy.replica_count(user)
            timeline.replica_counts.append((now, count))
            reads = self._tracked_reads.get(user, 0)
            per_replica = reads / count if count else 0.0
            timeline.reads_per_replica.append((now, per_replica))
            self._tracked_reads[user] = 0
        while self._next_sample <= now:
            self._next_sample += TRACKING_PERIOD


__all__ = ["ClusterSimulator", "TRACKING_PERIOD"]
