"""Tests for message taxonomy and traffic accounting."""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterSpec
from repro.exceptions import SimulationError
from repro.topology.tree import TreeTopology
from repro.traffic.accounting import TrafficAccountant
from repro.traffic.messages import MessageClass, MessageKind


class TestMessageKind:
    def test_application_kinds(self):
        for kind in (
            MessageKind.READ_REQUEST,
            MessageKind.READ_RESPONSE,
            MessageKind.WRITE_UPDATE,
            MessageKind.WRITE_ACK,
        ):
            assert kind.message_class is MessageClass.APPLICATION
            assert kind.default_size == 10

    def test_protocol_kinds_are_system_and_small(self):
        for kind in (
            MessageKind.REPLICA_CONTROL,
            MessageKind.ROUTING_UPDATE,
            MessageKind.THRESHOLD_PIGGYBACK,
            MessageKind.PROXY_MIGRATION,
        ):
            assert kind.message_class is MessageClass.SYSTEM
            assert kind.default_size == 1

    def test_replica_copy_is_system_but_large(self):
        assert MessageKind.REPLICA_COPY.message_class is MessageClass.SYSTEM
        assert MessageKind.REPLICA_COPY.default_size == 10


class TestTrafficAccountant:
    def test_records_on_every_switch_on_path(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        crossed = accountant.record(a, b, MessageKind.READ_REQUEST, timestamp=0.0)
        assert crossed == 5
        snapshot = accountant.snapshot()
        assert snapshot.total_by_level["top"] == 10
        assert snapshot.total_by_level["intermediate"] == 20
        assert snapshot.total_by_level["rack"] == 20

    def test_same_rack_message_avoids_top(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        rack = tree_topology.rack_switches[0]
        servers = tree_topology.servers_in_rack(rack)
        accountant.record(servers[0], servers[1], MessageKind.WRITE_UPDATE, timestamp=0.0)
        assert accountant.top_switch_traffic() == 0
        assert accountant.level_traffic("rack") == 10

    def test_roundtrip_records_both_directions(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record_roundtrip(
            a, b, MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE, timestamp=0.0
        )
        assert accountant.top_switch_traffic() == 20

    def test_application_system_split(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record(a, b, MessageKind.READ_REQUEST, timestamp=0.0)
        accountant.record(a, b, MessageKind.REPLICA_COPY, timestamp=0.0)
        accountant.record(a, b, MessageKind.ROUTING_UPDATE, timestamp=0.0)
        snapshot = accountant.snapshot()
        assert snapshot.application_by_level["top"] == 10
        assert snapshot.system_by_level["top"] == 11

    def test_time_series_buckets(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology, bucket_width=3600.0)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record(a, b, MessageKind.READ_REQUEST, timestamp=100.0)
        accountant.record(a, b, MessageKind.READ_REQUEST, timestamp=4000.0)
        app, _sys = accountant.top_switch_series()
        assert app[0] == 10
        assert app[1] == 10

    def test_local_message_crosses_nothing(self, flat_topology):
        accountant = TrafficAccountant(flat_topology)
        machine = flat_topology.servers[0].index
        crossed = accountant.record(machine, machine, MessageKind.READ_REQUEST, timestamp=0.0)
        assert crossed == 0
        assert accountant.top_switch_traffic() == 0

    def test_measure_from_skips_warmup(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology, measure_from=1000.0)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record(a, b, MessageKind.READ_REQUEST, timestamp=10.0)
        assert accountant.top_switch_traffic() == 0
        accountant.record(a, b, MessageKind.READ_REQUEST, timestamp=2000.0)
        assert accountant.top_switch_traffic() == 10

    def test_reset_clears_everything(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record(a, b, MessageKind.READ_REQUEST, timestamp=0.0)
        accountant.reset()
        assert accountant.top_switch_traffic() == 0
        assert accountant.message_count == 0

    def test_rejects_bad_bucket_width(self, tree_topology: TreeTopology):
        with pytest.raises(SimulationError):
            TrafficAccountant(tree_topology, bucket_width=0.0)

    def test_rejects_negative_measure_from(self, tree_topology: TreeTopology):
        with pytest.raises(SimulationError):
            TrafficAccountant(tree_topology, measure_from=-5.0)

    def test_snapshot_counts_messages(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[1].index
        accountant.record(a, b, MessageKind.READ_REQUEST, timestamp=0.0)
        accountant.record(a, b, MessageKind.READ_RESPONSE, timestamp=0.0)
        assert accountant.snapshot().messages == 2

    def test_message_count_includes_warmup_and_local_messages(
        self, tree_topology: TreeTopology
    ):
        """Regression: the message-count contract counts *every* message.

        Messages inside the warm-up window (before ``measure_from``) used to
        be excluded from ``message_count`` while machine-local (empty-path)
        messages were included.  Both must count; only traffic volumes are
        filtered by the warm-up window.
        """
        accountant = TrafficAccountant(tree_topology, measure_from=1000.0)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        # Warm-up message: no traffic, but it happened — it counts.
        accountant.record(a, b, MessageKind.READ_REQUEST, timestamp=10.0)
        assert accountant.message_count == 1
        assert accountant.top_switch_traffic() == 0
        # Machine-local message (empty path) also counts.
        accountant.record(a, a, MessageKind.READ_REQUEST, timestamp=2000.0)
        assert accountant.message_count == 2
        # Measured cross-switch message counts too.
        accountant.record(a, b, MessageKind.READ_REQUEST, timestamp=2000.0)
        assert accountant.message_count == 3
        assert accountant.snapshot().messages == 3

    def test_roundtrip_counts_two_messages_in_warmup(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology, measure_from=1000.0)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record_roundtrip(
            a, b, MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE, timestamp=10.0
        )
        assert accountant.message_count == 2
        assert accountant.top_switch_traffic() == 0

    def test_mixed_class_roundtrip_splits_application_and_system(
        self, tree_topology: TreeTopology
    ):
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record_roundtrip(
            a, b, MessageKind.READ_REQUEST, MessageKind.REPLICA_CONTROL, timestamp=0.0
        )
        snapshot = accountant.snapshot()
        assert snapshot.application_by_level["top"] == 10
        assert snapshot.system_by_level["top"] == 1
        app, sys_ = accountant.top_switch_series()
        assert app[0] == 10 and sys_[0] == 1

    def test_record_rejects_non_leaf_devices(self, tree_topology: TreeTopology):
        from repro.exceptions import TopologyError

        accountant = TrafficAccountant(tree_topology)
        server = tree_topology.servers[0].index
        with pytest.raises(TopologyError):
            accountant.record(
                tree_topology.top_switch_index, server, MessageKind.READ_REQUEST, 0.0
            )
        with pytest.raises(TopologyError):
            accountant.record(server, 9999, MessageKind.READ_REQUEST, 0.0)
        with pytest.raises(TopologyError):
            accountant.record(-1, server, MessageKind.READ_REQUEST, 0.0)


class TestDeviceTrafficContract:
    """The explicit out-of-range contract of the flat-column rewrite."""

    def test_device_traffic_known_device(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record(a, b, MessageKind.READ_REQUEST, 0.0)
        assert accountant.device_traffic(tree_topology.top_switch.index) > 0
        assert accountant.device_traffic(a) == 0.0  # leaves record nothing

    def test_device_traffic_rejects_out_of_range(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        with pytest.raises(SimulationError):
            accountant.device_traffic(len(tree_topology.devices))
        with pytest.raises(SimulationError):
            accountant.device_traffic(9999)

    def test_device_traffic_rejects_negative_indices(self, tree_topology: TreeTopology):
        """Negative indices used to wrap around to a real device's counter."""
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record(a, b, MessageKind.READ_REQUEST, 0.0)
        with pytest.raises(SimulationError):
            accountant.device_traffic(-1)

    def test_level_traffic_unknown_level_is_zero(self, tree_topology: TreeTopology):
        """Levels are labels, not indices: unknown names sum to 0.0."""
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record(a, b, MessageKind.READ_REQUEST, 0.0)
        assert accountant.level_traffic("no-such-level") == 0.0
        assert accountant.level_traffic("top") > 0.0


class TestBatchRecording:
    """Batch entry points are byte-identical to repeated per-message calls."""

    def test_record_batch_matches_repeated_records(self, tree_topology: TreeTopology):
        batched = TrafficAccountant(tree_topology, bucket_width=3600.0)
        scalar = TrafficAccountant(tree_topology, bucket_width=3600.0)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        for _ in range(7):
            scalar.record(a, b, MessageKind.READ_REQUEST, 100.0)
        batched.record_batch(a, b, MessageKind.READ_REQUEST, 7, bucket=0)
        assert batched.snapshot() == scalar.snapshot()
        assert batched.top_switch_series() == scalar.top_switch_series()

    def test_record_roundtrip_batch_matches_repeated_roundtrips(
        self, tree_topology: TreeTopology
    ):
        import random

        batched = TrafficAccountant(tree_topology, bucket_width=3600.0)
        scalar = TrafficAccountant(tree_topology, bucket_width=3600.0)
        servers = [server.index for server in tree_topology.servers]
        rng = random.Random(3)
        stride = batched.device_count
        counts: dict[int, int] = {}
        for _ in range(200):
            source, destination = rng.choice(servers), rng.choice(servers)
            scalar.record_roundtrip(
                source,
                destination,
                MessageKind.READ_REQUEST,
                MessageKind.READ_RESPONSE,
                50.0,
            )
            key = source * stride + destination
            counts[key] = counts.get(key, 0) + 1
        batched.record_roundtrip_batch(
            counts, MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE, bucket=0
        )
        assert batched.snapshot() == scalar.snapshot()
        assert batched.top_switch_series() == scalar.top_switch_series()

    def test_mixed_class_roundtrip_batch_split(self, tree_topology: TreeTopology):
        """Application/system splits survive the multiplied update."""
        batched = TrafficAccountant(tree_topology)
        scalar = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        for _ in range(5):
            scalar.record_roundtrip(
                a, b, MessageKind.READ_REQUEST, MessageKind.REPLICA_CONTROL, 10.0
            )
        batched.record_roundtrip_batch(
            {a * batched.device_count + b: 5},
            MessageKind.READ_REQUEST,
            MessageKind.REPLICA_CONTROL,
            bucket=0,
        )
        assert batched.snapshot() == scalar.snapshot()

    def test_count_messages_only_counts(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        accountant.count_messages(6)
        assert accountant.message_count == 6
        snapshot = accountant.snapshot()
        assert all(value == 0.0 for value in snapshot.total_by_level.values())
        with pytest.raises(SimulationError):
            accountant.count_messages(-1)

    def test_record_batch_zero_count_is_noop(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        assert accountant.record_batch(a, b, MessageKind.READ_REQUEST, 0, bucket=0) == 0
        assert accountant.message_count == 0
        with pytest.raises(SimulationError):
            accountant.record_batch(a, b, MessageKind.READ_REQUEST, -2, bucket=0)


class TestRoundtripRun:
    """The run-local aggregator of the strategy kernels."""

    def test_bucket_segments_and_warmup(self, tree_topology: TreeTopology):
        batched = TrafficAccountant(tree_topology, bucket_width=100.0, measure_from=50.0)
        scalar = TrafficAccountant(tree_topology, bucket_width=100.0, measure_from=50.0)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        run = batched.roundtrip_run(MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE)
        key = a * run.stride + b
        # Warm-up (t < 50), then two distinct buckets (t=60, t=260).
        for timestamp in (10.0, 20.0, 60.0, 60.0, 260.0):
            counts = run.counts_for(timestamp)
            counts[key] = counts.get(key, 0) + 1
            scalar.record_roundtrip(
                a, b, MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE, timestamp
            )
        run.flush()
        assert batched.snapshot() == scalar.snapshot()
        assert batched.top_switch_series() == scalar.top_switch_series()
        assert batched.message_count == scalar.message_count == 10

    @pytest.mark.parametrize("bucket_width", [3600.0, 77.7, 0.7])
    @pytest.mark.parametrize("measure_from", [0.0, 5000.0, 12345.6])
    def test_segment_end_cuts_where_counts_for_switches_dicts(
        self, tree_topology: TreeTopology, bucket_width, measure_from
    ):
        """Whole-segment kernels and ``counts_for`` split a run alike — also
        where ``(bucket + 1) * width`` and ``timestamp // width`` round apart
        (multiples of 0.7 hit that within the first few hundred buckets)."""
        accountant = TrafficAccountant(
            tree_topology, bucket_width=bucket_width, measure_from=measure_from
        )
        run = accountant.roundtrip_run(MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE)
        rng = random.Random(5)
        timestamps = sorted(
            [rng.uniform(0.0, 20000.0) for _ in range(400)]
            + [measure_from + k * bucket_width for k in range(400)]
            + [k * bucket_width for k in range(400)]
        )

        def counts_dict(timestamp):  # which dict ``counts_for`` hands out
            if timestamp < measure_from:
                return None
            return int(timestamp // bucket_width)

        expected = [
            index
            for index in range(1, len(timestamps))
            if counts_dict(timestamps[index]) != counts_dict(timestamps[index - 1])
        ] + [len(timestamps)]
        cuts = []
        start = 0
        while start < len(timestamps):
            start = run.segment_end(timestamps, start, len(timestamps))
            cuts.append(start)
        assert cuts == expected

    def test_flush_resets_for_reuse(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology, bucket_width=100.0)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        run = accountant.roundtrip_run(MessageKind.WRITE_UPDATE, MessageKind.WRITE_ACK)
        key = a * run.stride + b
        for _ in range(2):
            counts = run.counts_for(0.0)
            counts[key] = counts.get(key, 0) + 1
            run.flush()
        assert accountant.message_count == 4
        run.flush()  # idempotent when empty
        assert accountant.message_count == 4


class TestTrafficDelta:
    """The export/merge protocol the shard coordinator sums workers with."""

    def test_export_is_non_mutating(self, tree_topology: TreeTopology):
        accountant = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        accountant.record(a, b, MessageKind.READ_REQUEST, 100.0)
        before = accountant.snapshot()
        delta = accountant.export_delta()
        assert accountant.snapshot() == before
        assert delta.messages == 1
        assert delta.stride == accountant.device_count

    def test_merge_reproduces_source(self, tree_topology: TreeTopology):
        source = TrafficAccountant(tree_topology)
        a = tree_topology.servers[0].index
        b = tree_topology.servers[-1].index
        source.record_roundtrip(
            a, b, MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE, 100.0
        )
        source.record(a, b, MessageKind.REPLICA_COPY, 4000.0)
        target = TrafficAccountant(tree_topology)
        target.merge_delta(source.export_delta())
        assert target.snapshot() == source.snapshot()
        assert target.top_switch_series() == source.top_switch_series()

    def test_merge_rejects_stride_mismatch(self, tree_topology: TreeTopology):
        from repro.config import ClusterSpec

        other = TreeTopology(
            ClusterSpec(
                intermediate_switches=1,
                racks_per_intermediate=1,
                machines_per_rack=2,
                brokers_per_rack=1,
            )
        )
        delta = TrafficAccountant(other).export_delta()
        accountant = TrafficAccountant(tree_topology)
        with pytest.raises(SimulationError):
            accountant.merge_delta(delta)


# ---------------------------------------------------------------------------
# Write-combined recording against a per-message reference
# ---------------------------------------------------------------------------
_TREE = TreeTopology(
    ClusterSpec(
        intermediate_switches=2,
        racks_per_intermediate=2,
        machines_per_rack=3,
        brokers_per_rack=1,
    )
)
#: Few leaves, so messages repeat a path: two servers of one rack, their
#: broker, and a server on the far side of the top switch.
_LEAVES = [
    _TREE.servers[0].index,
    _TREE.servers[1].index,
    _TREE.brokers[0].index,
    _TREE.servers[-1].index,
]
_BUCKET_WIDTH = 10.0
_MEASURE_FROM = 5.0


class _PerMessageAccountant:
    """What the accountant must report, kept one message at a time.

    Deliberately naive: every offered message walks its switch path on the
    spot, batches are loops of single messages, and nothing is buffered.
    """

    def __init__(self) -> None:
        devices = len(_TREE.devices)
        self.total = [0.0] * devices
        self.application = [0.0] * devices
        self.system = [0.0] * devices
        self.series = {True: {}, False: {}}
        self.messages = 0

    def offer(self, source, destination, kind, timestamp=None, bucket=None):
        """One message; ``bucket`` instead of ``timestamp`` for the batch API,
        whose callers vouch the message lies past the warm-up window."""
        self.messages += 1
        if bucket is None:
            if timestamp < _MEASURE_FROM:
                return
            bucket = int(timestamp // _BUCKET_WIDTH)
        size = kind.default_size
        application = kind.message_class is MessageClass.APPLICATION
        split = self.application if application else self.system
        for switch in _TREE.path_between(source, destination):
            self.total[switch] += size
            split[switch] += size
            if switch == _TREE.top_switch.index:
                series = self.series[application]
                series[bucket] = series.get(bucket, 0.0) + size

    def reset(self) -> None:
        self.__init__()

    def level_traffic(self, level: str) -> float:
        return sum(
            self.total[switch.index]
            for switch in _TREE.switches
            if _TREE.level_of(switch.index) == level
        )

    def series_sorted(self):
        return tuple(dict(sorted(self.series[flag].items())) for flag in (True, False))


def _check_snapshot(accountant: TrafficAccountant, reference: _PerMessageAccountant):
    switches = [switch.index for switch in _TREE.switches]
    snapshot = accountant.snapshot()
    assert snapshot.messages == accountant.message_count == reference.messages
    assert snapshot.total_by_device == {i: reference.total[i] for i in switches}
    assert snapshot.application_by_device == {i: reference.application[i] for i in switches}
    assert snapshot.system_by_device == {i: reference.system[i] for i in switches}
    for level, volume in snapshot.total_by_level.items():
        assert volume == reference.level_traffic(level)


def _check_series(accountant: TrafficAccountant, reference: _PerMessageAccountant):
    assert accountant.top_switch_series() == reference.series_sorted()


def _check_delta(accountant: TrafficAccountant, reference: _PerMessageAccountant):
    delta = accountant.export_delta()
    assert delta.messages == reference.messages
    assert delta.total == array("d", reference.total).tobytes()
    assert delta.application == array("d", reference.application).tobytes()
    assert delta.system == array("d", reference.system).tobytes()
    assert (delta.top_series_app, delta.top_series_sys) == (
        reference.series[True],
        reference.series[False],
    )


#: Query operations that compare a whole report; each flushes on its own.
_REPORT_CHECKS = {
    "snapshot": _check_snapshot,
    "top_switch_series": _check_series,
    "export_delta": _check_delta,
}


_leaf = st.sampled_from(_LEAVES)
_kind = st.sampled_from(list(MessageKind))
#: warm-up (< 5), three buckets, and their edges
_timestamp = st.sampled_from([0.0, 4.9, 5.0, 9.9, 10.0, 17.0, 20.0, 29.9, 31.0])
_bucket = st.integers(0, 3)
_count = st.integers(0, 4)
_record = st.tuples(st.just("record"), _leaf, _leaf, _kind, _timestamp)
_operation = st.one_of(
    # Records three times over: the write-combined path is the one under
    # test, the rest is what it must interleave with.
    _record,
    _record,
    _record,
    st.tuples(st.just("roundtrip"), _leaf, _leaf, _kind, _kind, _timestamp),
    st.one_of(
        st.tuples(st.just("record_batch"), _leaf, _leaf, _kind, _count, _bucket),
        st.tuples(
            st.just("roundtrip_batch"),
            st.dictionaries(st.tuples(_leaf, _leaf), st.integers(1, 3), max_size=3),
            _kind,
            _kind,
            _bucket,
        ),
        st.tuples(st.just("count_messages"), _count),
    ),
    st.tuples(st.sampled_from(["reset", "merge_own_delta"])),
    st.tuples(
        st.sampled_from(
            ["device_traffic", "top_switch_traffic", "level_traffic"]
        )
    ),
    st.tuples(st.sampled_from(sorted(_REPORT_CHECKS))),
)


@settings(max_examples=200, deadline=None)
@given(operations=st.lists(_operation, min_size=5, max_size=40))
def test_write_combined_recording_matches_per_message_reference(operations):
    """Any interleaving of the recording entry points, resets, bucket
    crossings and queries reports what per-message accounting reports."""
    accountant = TrafficAccountant(
        _TREE, bucket_width=_BUCKET_WIDTH, measure_from=_MEASURE_FROM
    )
    reference = _PerMessageAccountant()
    stride = accountant.device_count
    top = _TREE.top_switch.index
    for name, *arguments in operations:
        if name == "record":
            source, destination, kind, timestamp = arguments
            crossed = accountant.record(source, destination, kind, timestamp)
            offered = timestamp >= _MEASURE_FROM
            assert crossed == (len(_TREE.path_between(source, destination)) if offered else 0)
            reference.offer(source, destination, kind, timestamp)
        elif name == "roundtrip":
            source, destination, request, response, timestamp = arguments
            accountant.record_roundtrip(source, destination, request, response, timestamp)
            reference.offer(source, destination, request, timestamp)
            reference.offer(destination, source, response, timestamp)
        elif name == "record_batch":
            source, destination, kind, count, bucket = arguments
            accountant.record_batch(source, destination, kind, count, bucket)
            for _ in range(count):
                reference.offer(source, destination, kind, bucket=bucket)
        elif name == "roundtrip_batch":
            pairs, request, response, bucket = arguments
            counts = {source * stride + destination: n for (source, destination), n in pairs.items()}
            accountant.record_roundtrip_batch(counts, request, response, bucket)
            for (source, destination), count in pairs.items():
                for _ in range(count):
                    reference.offer(source, destination, request, bucket=bucket)
                    reference.offer(destination, source, response, bucket=bucket)
        elif name == "count_messages":
            accountant.count_messages(arguments[0])
            reference.messages += arguments[0]
        elif name == "reset":
            accountant.reset()
            reference.reset()
        elif name == "merge_own_delta":
            # Doubles everything recorded so far, pending messages included.
            accountant.merge_delta(accountant.export_delta())
            for column in (reference.total, reference.application, reference.system):
                column[:] = [2 * volume for volume in column]
            for series in reference.series.values():
                for bucket in series:
                    series[bucket] *= 2
            reference.messages *= 2
        elif name == "device_traffic":
            assert accountant.device_traffic(top) == reference.total[top]
        elif name == "top_switch_traffic":
            assert accountant.top_switch_traffic() == reference.total[top]
        elif name == "level_traffic":
            assert accountant.level_traffic("rack") == reference.level_traffic("rack")
        else:
            _REPORT_CHECKS[name](accountant, reference)
    for check in _REPORT_CHECKS.values():
        check(accountant, reference)


def test_reset_drops_pending_messages(tree_topology: TreeTopology):
    accountant = TrafficAccountant(tree_topology)
    a, b = tree_topology.servers[0].index, tree_topology.servers[-1].index
    accountant.record(a, b, MessageKind.ROUTING_UPDATE, timestamp=0.0)
    accountant.reset()
    accountant.record(a, b, MessageKind.ROUTING_UPDATE, timestamp=7200.0)
    assert accountant.message_count == 1
    assert accountant.top_switch_traffic() == 1
    assert accountant.top_switch_series() == ({}, {2: 1.0})


@pytest.mark.parametrize(
    "query",
    [
        lambda accountant, top: accountant.device_traffic(top),
        lambda accountant, top: accountant.top_switch_traffic(),
        lambda accountant, top: accountant.level_traffic("top"),
        lambda accountant, top: accountant.snapshot().system_by_device[top],
        lambda accountant, top: accountant.top_switch_series()[1][0],
        lambda accountant, top: accountant.export_delta().top_series_sys[0],
    ],
    ids=[
        "device_traffic",
        "top_switch_traffic",
        "level_traffic",
        "snapshot",
        "top_switch_series",
        "export_delta",
    ],
)
def test_every_query_sees_write_combined_messages(tree_topology: TreeTopology, query):
    """Each query, asked first, applies the buffered messages itself."""
    accountant = TrafficAccountant(tree_topology)
    a, b = tree_topology.servers[0].index, tree_topology.servers[-1].index
    accountant.record(a, b, MessageKind.ROUTING_UPDATE, timestamp=0.0)
    accountant.record(a, b, MessageKind.ROUTING_UPDATE, timestamp=1.0)
    assert query(accountant, tree_topology.top_switch.index) == 2


# ---------------------------------------------------------------------------
# Settles: work a strategy tallied and holds back until somebody reads
# ---------------------------------------------------------------------------
_READERS = {
    "device_traffic": lambda accountant, top: accountant.device_traffic(top),
    "top_switch_traffic": lambda accountant, top: accountant.top_switch_traffic(),
    "level_traffic": lambda accountant, top: accountant.level_traffic("top"),
    "snapshot": lambda accountant, top: accountant.snapshot().application_by_device[top],
    "export_delta": lambda accountant, top: array("d", accountant.export_delta().total)[top],
    "message_count": lambda accountant, top: accountant.message_count * 10,
}


def _held_back_roundtrips(tree_topology: TreeTopology):
    """An accountant with three cross-cluster read roundtrips registered as
    a settle (their series is not booked: that happens at tally time)."""
    accountant = TrafficAccountant(tree_topology)
    a, b = tree_topology.servers[0].index, tree_topology.servers[-1].index
    held = {a * accountant.device_count + b: 3}

    def settle():
        accountant.record_roundtrip_batch(
            dict(held), MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE, None
        )
        held.clear()

    accountant.on_settle(settle)
    accountant.on_settle(settle)  # registering twice does not settle twice
    return accountant, held


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_every_reader_runs_the_registered_settles_first(tree_topology: TreeTopology, reader):
    accountant, held = _held_back_roundtrips(tree_topology)
    assert _READERS[reader](accountant, tree_topology.top_switch.index) == 60
    assert not held
    assert accountant.top_switch_series() == ({}, {})


def test_reset_settles_before_it_clears(tree_topology: TreeTopology):
    """Held-back work offered before a reset must not be booked after it."""
    accountant, held = _held_back_roundtrips(tree_topology)
    accountant.reset()
    assert not held
    assert accountant.message_count == 0
    assert accountant.top_switch_traffic() == 0.0


def test_top_crossings_book_only_the_series(tree_topology: TreeTopology):
    accountant = TrafficAccountant(tree_topology, bucket_width=100.0)
    accountant.record_top_crossings(0, MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE, 1)
    assert accountant.top_switch_series() == ({}, {})
    accountant.record_top_crossings(4, MessageKind.READ_REQUEST, MessageKind.REPLICA_CONTROL, 2)
    assert accountant.top_switch_series() == ({2: 40.0}, {2: 4.0})
    assert accountant.message_count == 0 and accountant.top_switch_traffic() == 0.0
    a, b = tree_topology.servers[0].index, tree_topology.servers[-1].index
    assert accountant.crosses_top(a, b) and not accountant.crosses_top(a, a)


def test_batch_recording_fails_loudly_at_the_exactness_limit(tree_topology: TreeTopology):
    """Volumes are integer-valued floats; a multiplied update is exact only
    below ``2**53`` and the accountant refuses to go past it."""
    accountant = TrafficAccountant(tree_topology)
    a, b = tree_topology.servers[0].index, tree_topology.servers[-1].index
    kinds = (MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE)
    below = 2**53 // 20  # 12 units short of the limit
    accountant.record_roundtrip_batch({a * accountant.device_count + b: below}, *kinds, 0)
    assert accountant.top_switch_traffic() == 20.0 * below
    with pytest.raises(SimulationError, match="2\\*\\*53"):
        accountant.record_roundtrip_batch({a * accountant.device_count + b: 1}, *kinds, None)


def _placed_random_strategy(tree_topology, small_graph, budget):
    from repro.baselines.base import StaticPlacementStrategy

    accountant = TrafficAccountant(tree_topology, bucket_width=50.0)
    strategy = StaticPlacementStrategy("random", seed=5)
    strategy.bind(tree_topology, small_graph, accountant, budget)
    return strategy, accountant


def test_a_fault_settles_the_requests_tallied_before_it(tree_topology, small_graph, budget):
    """A fault moves views and drops every footprint; the requests tallied
    *before* it are settled first, on the paths they took then — exactly
    what per-event execution booked — and later requests take the new ones."""
    users = sorted(small_graph.users)[:40]
    events = [(index % 3 == 2, user, 7.0 * index) for index, user in enumerate(users * 3)]

    batched, batched_accountant = _placed_random_strategy(tree_topology, small_graph, budget)
    batched.execute_request_batch(
        bytes(kind for kind, _, _ in events),
        [user for _, user, _ in events],
        [now for _, _, now in events],
    )
    per_event, per_event_accountant = _placed_random_strategy(tree_topology, small_graph, budget)
    for is_write, user, now in events:
        (per_event.execute_write if is_write else per_event.execute_read)(user, now)

    for strategy in (batched, per_event):
        strategy.on_server_down(0, 1000.0)
    assert not batched._tally
    batched.execute_request_batch(bytes(5), users[:5], [1001.0] * 5)
    for user in users[:5]:
        per_event.execute_read(user, 1001.0)
    assert batched_accountant.snapshot() == per_event_accountant.snapshot()
    assert batched_accountant.top_switch_series() == per_event_accountant.top_switch_series()
    assert batched_accountant.message_count > 0
