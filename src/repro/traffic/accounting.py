"""Traffic accounting: how much data crosses every switch of the cluster.

The simulator models switches as pure forwarders (paper section 2.1): a
message between two leaf machines adds its size to every switch on the path
between them.  The accountant keeps, per device:

* total traffic,
* the application / system split used by the convergence study (Figure 6),
* a time-bucketed series used by the time plots (Figures 4 and 6).

It also aggregates traffic per switch *level* (top, intermediate, rack) since
Tables 2 and 3 of the paper report average per-level traffic.

Two recording granularities coexist:

* the per-message entry points (:meth:`TrafficAccountant.record` /
  :meth:`~TrafficAccountant.record_roundtrip`) used by the per-event replay
  path and by protocol messages (replica control and copies, routing
  updates, proxy migrations).  DynaSoRe issues several of those per
  placement change, so :meth:`~TrafficAccountant.record` write-combines
  messages per ``(source, destination, kind)`` and time bucket
  and applies them lazily — before the bucket changes or a query reads;
* the batch entry points (:meth:`~TrafficAccountant.record_batch` /
  :meth:`~TrafficAccountant.record_roundtrip_batch`) used by the chunk-native
  execution kernels: a run accumulates ``(source, destination) -> count``
  aggregates and applies them with **one multiplied update per distinct
  path**.  All traffic amounts are integer-valued floats, so the multiplied
  updates are bit-for-bit identical to repeating the per-message additions.
  A kernel may hold its counts back and register a *settle* that applies
  them before anything reads (:meth:`~TrafficAccountant.on_settle`).

:class:`RoundtripRun` packages the aggregation discipline (bucket segments,
warm-up separation, flush) so every strategy kernel shares one correct
implementation.

The sharded replay runner sums its workers' traffic through a **delta**
protocol (:meth:`~TrafficAccountant.export_delta` /
:meth:`~TrafficAccountant.merge_delta`): a picklable column snapshot the
coordinator adds into a fresh accountant.  All volumes are integer-valued
floats, so summing per-shard deltas is bit-for-bit identical to recording
the same messages in one process, in any order or grouping.

Per-device totals live in flat ``array('d')`` columns indexed by device id.
The out-of-range contract is explicit: :meth:`~TrafficAccountant.device_traffic`
raises :class:`~repro.exceptions.SimulationError` for indices outside the
topology, negative ones included, while the level queries return 0.0 for
levels no switch belongs to (a level name is a label, not an index).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..exceptions import SimulationError
from ..topology.base import ClusterTopology
from .messages import MessageClass, MessageKind


@dataclass
class TrafficSnapshot:
    """Immutable summary of the traffic recorded so far."""

    total_by_device: dict[int, float]
    application_by_device: dict[int, float]
    system_by_device: dict[int, float]
    total_by_level: dict[str, float]
    application_by_level: dict[str, float]
    system_by_level: dict[str, float]
    messages: int

    def top_switch_traffic(self) -> float:
        """Traffic that crossed the top switch."""
        return self.total_by_level.get("top", 0.0)


@dataclass
class TrafficDelta:
    """Picklable column snapshot of one accountant's recorded traffic.

    ``total``/``application``/``system`` carry the raw bytes of the per-device
    ``array('d')`` columns (``stride`` doubles each); the top-switch series
    travel as plain bucket dicts.  Produced by
    :meth:`TrafficAccountant.export_delta` in shard workers and summed into
    the coordinator's accountant by :meth:`TrafficAccountant.merge_delta`.
    """

    stride: int
    total: bytes
    application: bytes
    system: bytes
    top_series_app: dict[int, float]
    top_series_sys: dict[int, float]
    messages: int


class TrafficAccountant:
    """Records message traffic against a cluster topology.

    Volumes are integer-valued floats: multiplied, deferred and merged
    updates equal per-message additions only while every column stays below
    ``2**53``; :meth:`record_roundtrip_batch` raises at that limit.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        bucket_width: float = 3600.0,
        measure_from: float = 0.0,
    ) -> None:
        if bucket_width <= 0:
            raise SimulationError("bucket_width must be positive")
        if measure_from < 0:
            raise SimulationError("measure_from cannot be negative")
        self.topology = topology
        self.bucket_width = float(bucket_width)
        #: Traffic earlier than this timestamp is ignored (warm-up phase);
        #: the messages themselves still count towards ``message_count``.
        self.measure_from = float(measure_from)
        device_count = len(topology.devices)
        self._total = array("d", bytes(8 * device_count))
        self._application = array("d", bytes(8 * device_count))
        self._system = array("d", bytes(8 * device_count))
        self._level = {d.index: topology.level_of(d.index) for d in topology.switches}
        # bucket index -> {"application": x, "system": y} aggregated over the
        # *top switch only* plus per-level dictionaries; the paper's time
        # series all report top-switch traffic.
        self._top_series_app: dict[int, float] = defaultdict(float)
        self._top_series_sys: dict[int, float] = defaultdict(float)
        self._messages = 0
        # Hot-path state: per-source rows of preresolved switch paths (shared
        # tuple-of-indices arrays served by the topology) and the top-switch
        # index, so ``record`` runs on plain list lookups.
        self._path_rows: list[list[tuple[int, ...] | None] | None] = [None] * device_count
        self._top_index = topology.top_switch.index
        # kind -> (default size, is application): the enum properties resolve
        # frozenset memberships, far too slow for once-per-message lookups.
        self._kind_info: dict[MessageKind, tuple[int, bool]] = {
            kind: (kind.default_size, kind.message_class is MessageClass.APPLICATION)
            for kind in MessageKind
        }
        # Write-combining buffer of :meth:`record`: (source, destination,
        # kind) -> messages offered in time bucket ``_pending_bucket`` and
        # not yet applied to the columns (see :meth:`_apply_pending`).
        self._pending: dict[tuple[int, int, MessageKind], int] = {}
        self._pending_bucket = 0
        # Settles of strategies that hold request tallies back (see
        # :meth:`on_settle`); run by :meth:`_apply_pending`.
        self._settles: list[Callable[[], None]] = []

    # ------------------------------------------------------------- recording
    def _resolve_path(self, source: int, destination: int) -> tuple[int, ...]:
        """Preresolved switch path between two leaves (validating lazily)."""
        rows = self._path_rows
        if not 0 <= source < len(rows) or not 0 <= destination < len(rows):
            # Out-of-range indices would raise (or negative ones silently
            # wrap) in the list lookups below; delegate to the topology for
            # the usual error.
            return self.topology.path_between(source, destination)
        row = rows[source]
        if row is None:
            row = self.topology.path_row(source)
            rows[source] = row
        path = row[destination]
        if path is None:
            # Destination is not a leaf machine: raise the topology's error.
            return self.topology.path_between(source, destination)
        return path

    def record(
        self,
        source: int,
        destination: int,
        kind: MessageKind,
        timestamp: float,
    ) -> int:
        """Record one message and return the number of switches it crossed.

        Every offered message counts towards :attr:`message_count` — both
        machine-local messages (empty path) and messages inside the warm-up
        window (``timestamp < measure_from``); only the *traffic* of warm-up
        messages is discarded.

        A message weighs its kind's default size.  Messages are
        write-combined: they only bump a per ``(source, destination, kind)``
        count for their time bucket, and the switch path is walked once per
        key — with the count multiplied in — when the bucket changes or a
        query needs the columns.  Volumes are
        integer-valued floats, so the sums are exact in any order.
        """
        self._messages += 1
        if timestamp < self.measure_from:
            return 0
        path = self._resolve_path(source, destination)
        if not path:
            return 0
        bucket = int(timestamp // self.bucket_width)
        if bucket != self._pending_bucket:
            self._apply_pending()
            self._pending_bucket = bucket
        pending = self._pending
        key = (source, destination, kind)
        count = pending.get(key)
        pending[key] = 1 if count is None else count + 1
        return len(path)

    def _add_volume(
        self, path: tuple[int, ...], kind: MessageKind, volume: float, bucket: int
    ) -> None:
        """Add ``volume`` of ``kind`` traffic to every switch of ``path``."""
        is_application = self._kind_info[kind][1]
        total = self._total
        split = self._application if is_application else self._system
        for switch in path:
            total[switch] += volume
            split[switch] += volume
        if self._top_index in path:
            series = self._top_series_app if is_application else self._top_series_sys
            series[bucket] += volume

    def _apply_pending(self) -> None:
        """Apply the write-combined messages: one multiplied update per key.

        Runs when the bucket changes and before anything reads the columns
        or the message count; registered settles run first.
        """
        for settle in self._settles:
            settle()
        pending = self._pending
        if not pending:
            return
        bucket = self._pending_bucket
        kind_info = self._kind_info
        for (source, destination, kind), count in pending.items():
            self._add_volume(
                self._resolve_path(source, destination), kind, kind_info[kind][0] * count, bucket
            )
        pending.clear()

    def record_roundtrip(
        self,
        source: int,
        destination: int,
        request_kind: MessageKind,
        response_kind: MessageKind,
        timestamp: float,
    ) -> int:
        """Record a request and its answer; returns switches crossed one-way.

        Both directions traverse the same switches, so the path is resolved
        once and both message sizes are applied in a single pass.
        """
        self._messages += 2
        if timestamp < self.measure_from:
            return 0
        # Inlined fast path of ``_resolve_path`` (this is the single hottest
        # accounting entry point: every read/write fans out one roundtrip
        # per replica touched).
        rows = self._path_rows
        if 0 <= source < len(rows) and 0 <= destination < len(rows):
            row = rows[source]
            if row is None:
                row = self.topology.path_row(source)
                rows[source] = row
            path = row[destination]
            if path is None:
                path = self._resolve_path(source, destination)
        else:
            path = self._resolve_path(source, destination)
        if not path:
            return 0
        kind_info = self._kind_info
        request_size, request_app = kind_info[request_kind]
        response_size, response_app = kind_info[response_kind]
        total = self._total
        application = self._application
        system = self._system
        combined = request_size + response_size
        if request_app is response_app:
            split = application if request_app else system
            for switch in path:
                total[switch] += combined
                split[switch] += combined
        else:
            request_split = application if request_app else system
            response_split = application if response_app else system
            for switch in path:
                total[switch] += combined
                request_split[switch] += request_size
                response_split[switch] += response_size
        if self._top_index in path:
            bucket = int(timestamp // self.bucket_width)
            if request_app:
                self._top_series_app[bucket] += request_size
            else:
                self._top_series_sys[bucket] += request_size
            if response_app:
                self._top_series_app[bucket] += response_size
            else:
                self._top_series_sys[bucket] += response_size
        return len(path)

    # ------------------------------------------------------- batch recording
    @property
    def device_count(self) -> int:
        """Number of devices in the bound topology (the batch-key stride)."""
        return len(self._total)

    def count_messages(self, count: int) -> None:
        """Add ``count`` messages to the counter without recording traffic.

        The batch path's warm-up flush: messages offered before
        ``measure_from`` count towards :attr:`message_count` but leave no
        traffic, exactly like the per-message entry points.
        """
        if count < 0:
            raise SimulationError("message count cannot be negative")
        self._messages += count

    def record_batch(
        self,
        source: int,
        destination: int,
        kind: MessageKind,
        count: int,
        bucket: int,
    ) -> int:
        """Record ``count`` identical messages with one multiplied update.

        All aggregated messages share the same time ``bucket``
        (``int(timestamp // bucket_width)``) and lie past ``measure_from`` —
        callers route warm-up messages through :meth:`count_messages`
        instead.  Returns the number of switches each message crossed.
        """
        if count <= 0:
            if count == 0:
                return 0
            raise SimulationError("message count cannot be negative")
        self._messages += count
        path = self._resolve_path(source, destination)
        if not path:
            return 0
        self._add_volume(path, kind, self._kind_info[kind][0] * count, bucket)
        return len(path)

    def record_roundtrip_batch(
        self,
        counts: dict[int, int],
        request_kind: MessageKind,
        response_kind: MessageKind,
        bucket: int | None,
    ) -> None:
        """Apply aggregated roundtrips: one multiplied update per path.

        ``counts`` maps ``source * device_count + destination`` (the
        flat-key encoding of a leaf pair) to the number of roundtrips that
        crossed it.  All aggregated roundtrips share the same time bucket
        and lie past ``measure_from``; strategy kernels maintain those
        invariants through :class:`RoundtripRun`.

        ``bucket=None`` is the settle of roundtrips tallied earlier, whose
        series :meth:`record_top_crossings` booked when they were tallied:
        only the columns and the message count are updated.
        Raises :class:`SimulationError` once a column reaches ``2**53``.
        """
        if not counts:
            return
        stride = len(self._total)
        kind_info = self._kind_info
        request_size, request_app = kind_info[request_kind]
        response_size, response_app = kind_info[response_kind]
        combined = request_size + response_size
        total = self._total
        application = self._application
        system = self._system
        top_index = self._top_index
        messages = crossings = 0
        for key, count in counts.items():
            messages += count
            source, destination = divmod(key, stride)
            path = self._resolve_path(source, destination)
            if not path:
                continue
            volume = combined * count
            if request_app is response_app:
                split = application if request_app else system
                for switch in path:
                    total[switch] += volume
                    split[switch] += volume
            else:
                request_volume = request_size * count
                response_volume = response_size * count
                for switch in path:
                    total[switch] += volume
                    application[switch] += (
                        request_volume if request_app else response_volume
                    )
                    system[switch] += (
                        response_volume if request_app else request_volume
                    )
            if top_index in path:
                crossings += count
        if bucket is not None:
            self.record_top_crossings(crossings, request_kind, response_kind, bucket)
        self._messages += 2 * messages
        if max(total) >= 2.0**53:  # sums of integer-valued floats are exact below
            raise SimulationError("a traffic column reached 2**53 and is no longer exact")

    def record_top_crossings(
        self, crossings: int, request_kind: MessageKind, response_kind: MessageKind, bucket: int
    ) -> None:
        """Add ``crossings`` top-switch roundtrips to the series of ``bucket``
        — the only per-bucket quantity, so a kernel that holds its per-path
        counts back books it when it tallies (past ``measure_from``)
        and settles the rest with ``record_roundtrip_batch(..., None)``."""
        if crossings:
            for kind in (request_kind, response_kind):
                size, is_application = self._kind_info[kind]
                series = self._top_series_app if is_application else self._top_series_sys
                series[bucket] += size * crossings

    def crosses_top(self, source: int, destination: int) -> bool:
        """Whether a message between two leaves crosses the top switch."""
        return self._top_index in self._resolve_path(source, destination)

    def on_settle(self, settle: Callable[[], None]) -> None:
        """Register a strategy's settle — it records what the strategy has
        tallied and held back — to run before anything reads the columns or
        :attr:`message_count` and before :meth:`reset`."""
        if settle not in self._settles:
            self._settles.append(settle)

    def roundtrip_run(
        self, request_kind: MessageKind, response_kind: MessageKind
    ) -> "RoundtripRun":
        """A reusable run-local aggregator for one roundtrip kind pair."""
        return RoundtripRun(self, request_kind, response_kind)

    # --------------------------------------------------------------- queries
    @property
    def message_count(self) -> int:
        """Number of messages offered to the accountant.

        The contract (regression-tested): *every* message counts — including
        machine-local messages whose path is empty and messages that fall in
        the warm-up window before ``measure_from``.  Only traffic volumes are
        filtered by ``measure_from``; counters restart on :meth:`reset`.
        """
        self._apply_pending()
        return self._messages

    def device_traffic(self, device: int) -> float:
        """Total traffic recorded at a device.

        The out-of-range contract is explicit: a device index outside the
        bound topology, negative or too large, raises
        :class:`~repro.exceptions.SimulationError`.  Level queries, by
        contrast, return 0.0 for levels no switch belongs to: a level is a
        label, not an index.
        """
        if not 0 <= device < len(self._total):
            raise SimulationError(
                f"unknown device index {device} (topology has "
                f"{len(self._total)} devices)"
            )
        self._apply_pending()
        return self._total[device]

    def top_switch_traffic(self) -> float:
        """Total traffic recorded at the top switch."""
        self._apply_pending()
        return self._total[self._top_index]

    def level_traffic(self, level: str) -> float:
        """Total traffic summed over all switches of a level.

        Levels with no switches (including unknown level names) sum to 0.0.
        """
        self._apply_pending()
        return sum(self._total[idx] for idx, lvl in self._level.items() if lvl == level)

    def snapshot(self) -> TrafficSnapshot:
        """Produce an immutable summary of everything recorded so far."""
        self._apply_pending()
        total_by_level: dict[str, float] = defaultdict(float)
        app_by_level: dict[str, float] = defaultdict(float)
        sys_by_level: dict[str, float] = defaultdict(float)
        for idx, lvl in self._level.items():
            total_by_level[lvl] += self._total[idx]
            app_by_level[lvl] += self._application[idx]
            sys_by_level[lvl] += self._system[idx]
        switch_indices = set(self._level)
        return TrafficSnapshot(
            total_by_device={i: self._total[i] for i in switch_indices},
            application_by_device={i: self._application[i] for i in switch_indices},
            system_by_device={i: self._system[i] for i in switch_indices},
            total_by_level=dict(total_by_level),
            application_by_level=dict(app_by_level),
            system_by_level=dict(sys_by_level),
            messages=self._messages,
        )

    def top_switch_series(self) -> tuple[dict[int, float], dict[int, float]]:
        """Time-bucketed (application, system) traffic series at the top switch.

        Buckets are emitted in ascending order.  Per-message recording
        already inserts them chronologically (timestamps are
        non-decreasing), but the batched path's per-kind aggregators may
        first *touch* buckets out of order when a single run spans a
        bucket boundary — sorting here keeps the exported series, and with
        it the byte-identity of :class:`SimulationResult`\\ s, independent
        of the recording granularity.
        """
        self._apply_pending()
        application = self._top_series_app
        system = self._top_series_sys
        return (
            {bucket: application[bucket] for bucket in sorted(application)},
            {bucket: system[bucket] for bucket in sorted(system)},
        )

    # ----------------------------------------------------------------- deltas
    def export_delta(self) -> TrafficDelta:
        """Snapshot everything recorded so far as a picklable column delta.

        Shard workers call this once at the end of their replay; the
        coordinator sums the deltas into a fresh accountant with
        :meth:`merge_delta`.  Exporting does not change what the accountant
        reports.
        """
        self._apply_pending()
        return TrafficDelta(
            stride=len(self._total),
            total=self._total.tobytes(),
            application=self._application.tobytes(),
            system=self._system.tobytes(),
            top_series_app=dict(self._top_series_app),
            top_series_sys=dict(self._top_series_sys),
            messages=self._messages,
        )

    def merge_delta(self, delta: TrafficDelta) -> None:
        """Add a worker's exported delta into this accountant.

        All traffic volumes are integer-valued floats, so element-wise
        addition is exact and independent of merge order.  A stride mismatch
        means the delta was recorded against a different topology and raises
        :class:`~repro.exceptions.SimulationError`.
        """
        if delta.stride != len(self._total):
            raise SimulationError(
                f"traffic delta stride {delta.stride} does not match topology "
                f"device count {len(self._total)}"
            )
        for column, payload in (
            (self._total, delta.total),
            (self._application, delta.application),
            (self._system, delta.system),
        ):
            incoming = array("d")
            incoming.frombytes(payload)
            if len(incoming) != delta.stride:
                raise SimulationError("traffic delta column length mismatch")
            for index, value in enumerate(incoming):
                if value:
                    column[index] += value
        for bucket, volume in delta.top_series_app.items():
            self._top_series_app[bucket] += volume
        for bucket, volume in delta.top_series_sys.items():
            self._top_series_sys[bucket] += volume
        self._messages += delta.messages

    def reset(self) -> None:
        """Clear every counter (used between warm-up and measurement phases);
        held-back work is applied first, so none of it is booked afterwards."""
        self._apply_pending()
        for i in range(len(self._total)):
            self._total[i] = 0.0
            self._application[i] = 0.0
            self._system[i] = 0.0
        self._top_series_app.clear()
        self._top_series_sys.clear()
        self._messages = 0


class RoundtripRun:
    """Run-local roundtrip aggregation for one ``(request, response)`` pair.

    The execution kernels drive it with two calls:

    * :meth:`counts_for` **once per event** returns the live aggregation
      dict; the kernel bumps ``counts[source * stride + destination]`` once
      per roundtrip.  The method transparently separates warm-up events
      (before ``measure_from`` — message counting only) from measured ones
      and flushes whenever the event's time bucket changes, so every dict
      it hands out only ever aggregates messages that share one bucket;
    * :meth:`flush` at the end of the run applies whatever is pending.

    Timestamps must be non-decreasing (event streams are time ordered).
    A run object is reusable across runs — :meth:`flush` leaves it empty.
    """

    __slots__ = (
        "stride",
        "_accountant",
        "_request_kind",
        "_response_kind",
        "_counts",
        "_warm",
        "_bucket",
        "_measure_from",
        "_bucket_width",
    )

    def __init__(
        self,
        accountant: TrafficAccountant,
        request_kind: MessageKind,
        response_kind: MessageKind,
    ) -> None:
        self._accountant = accountant
        self._request_kind = request_kind
        self._response_kind = response_kind
        #: Flat-key stride: keys encode ``source * stride + destination``.
        self.stride = accountant.device_count
        self._counts: dict[int, int] = {}
        self._warm: dict[int, int] = {}
        self._bucket: int | None = None
        self._measure_from = accountant.measure_from
        self._bucket_width = accountant.bucket_width

    def counts_for(self, timestamp: float) -> dict[int, int]:
        """The aggregation dict the event at ``timestamp`` must bump."""
        if timestamp < self._measure_from:
            return self._warm
        bucket = int(timestamp // self._bucket_width)
        if bucket != self._bucket:
            if self._counts:
                self._accountant.record_roundtrip_batch(
                    self._counts, self._request_kind, self._response_kind, self._bucket
                )
                self._counts.clear()
            self._bucket = bucket
        return self._counts

    def segment_end(self, timestamps: Sequence[float], start: int, end: int) -> int:
        """End of the accounting segment of ``timestamps[start:end]`` that
        begins at ``start``: the events :meth:`counts_for` would send to the
        same dict as ``timestamps[start]`` (same warm-up side, same bucket).

        A kernel that counts many events at once (the footprint kernel,
        which books its series with :meth:`TrafficAccountant.record_top_crossings`
        and never calls :meth:`counts_for`) cuts with this, so it and the
        per-event path split a run by one predicate.  Usually both
        ends of the span agree and nothing is searched; otherwise a bisect
        *proposes* the cut and :meth:`counts_for`'s own arithmetic, asked
        about both neighbours, decides it — ``(bucket + 1) * width`` and
        ``timestamp // width`` round independently and do disagree at
        boundaries (``3 * 0.7 // 0.7 == 2.0``).
        """
        measure_from = self._measure_from
        if timestamps[start] < measure_from:
            if timestamps[end - 1] < measure_from:
                return end
            return bisect_left(timestamps, measure_from, start + 1, end)
        width = self._bucket_width
        bucket = int(timestamps[start] // width)
        if int(timestamps[end - 1] // width) == bucket:
            return end
        cut = bisect_left(timestamps, (bucket + 1) * width, start + 1, end)
        while cut > start + 1 and int(timestamps[cut - 1] // width) != bucket:
            cut -= 1
        while cut < end and int(timestamps[cut] // width) == bucket:
            cut += 1
        return cut

    def flush(self) -> None:
        """Apply all pending aggregates to the accountant."""
        if self._warm:
            self._accountant.count_messages(2 * sum(self._warm.values()))
            self._warm.clear()
        if self._counts:
            self._accountant.record_roundtrip_batch(
                self._counts, self._request_kind, self._response_kind, self._bucket
            )
            self._counts.clear()
        self._bucket = None


__all__ = ["RoundtripRun", "TrafficAccountant", "TrafficDelta", "TrafficSnapshot"]
