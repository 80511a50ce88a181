"""Tests for the columnar event-stream pipeline.

Covers the chunk/stream substrate (hand-built streams and their time-order
check, merging, chunk-level queries), the seed-stability of the
stream-native generators across chunk boundaries, the workload spec's
kinds, and the constant-memory guarantee: consuming a 1M-event stream
never holds more than a few chunks.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.constants import DAY
from repro.exceptions import WorkloadError
from repro.runtime.spec import WorkloadSpec
from repro.socialgraph.generators import dataset_preset, facebook_like, generate_social_graph
from repro.workload.stream import (
    EventChunk,
    EventStream,
    KIND_EDGE_ADD,
    KIND_EDGE_REMOVE,
    KIND_READ,
    KIND_WRITE,
    NO_AUX,
    allocate_proportionally,
    events_per_day,
    merge_streams,
    pack_columns,
    pack_rows,
    time_ordered_columns,
)
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator
from repro.workload.trace import NewsActivityTraceConfig, NewsActivityTraceGenerator


class TestChunksAndAdapters:
    def test_rows_read_back_the_packed_rows(self):
        rows = [(KIND_READ, 1.0, 4, -1), (KIND_WRITE, 2.0, 5, -1), (KIND_EDGE_ADD, 3.0, 1, 2)]
        stream = EventStream.from_rows(rows)
        assert list(stream.rows()) == rows
        assert list(stream.rows()) == rows  # a second pass reads the same rows

    @pytest.mark.parametrize("chunk_size", [1, 2, 100])
    def test_from_rows_rejects_rows_going_back_in_time(self, chunk_size):
        """Disorder inside a chunk and across a chunk boundary both raise."""
        rows = [(KIND_READ, 1.0, 1, -1), (KIND_READ, 5.0, 2, -1), (KIND_WRITE, 3.0, 3, -1)]
        with pytest.raises(WorkloadError, match="not sorted"):
            EventStream.from_rows(rows, chunk_size=chunk_size)

    @pytest.mark.parametrize("chunk_size", [1, 100])
    def test_from_rows_keeps_equal_timestamps_in_input_order(self, chunk_size):
        rows = [(KIND_WRITE, 2.0, 9, -1), (KIND_READ, 2.0, 3, -1), (KIND_READ, 2.0, 7, -1)]
        assert list(EventStream.from_rows(rows, chunk_size=chunk_size).rows()) == rows

    @pytest.mark.parametrize("followee", [NO_AUX, -7])
    @pytest.mark.parametrize("kind", [KIND_EDGE_ADD, KIND_EDGE_REMOVE])
    def test_from_rows_rejects_an_edge_event_with_no_followee(self, kind, followee):
        """A negative followee would reach the graph as a phantom user."""
        rows = [(KIND_READ, 1.0, 2, NO_AUX), (KIND_EDGE_ADD, 1.5, 3, 4), (kind, 2.0, 3, followee)]
        with pytest.raises(WorkloadError, match="index 2 has no followee"):
            EventStream.from_rows(rows)

    def test_pack_rows_respects_chunk_size(self):
        rows = [(KIND_READ, float(i), i, -1) for i in range(10)]
        chunks = list(pack_rows(iter(rows), chunk_size=4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert list(EventStream.from_chunks(chunks).rows()) == rows

    def test_pack_rows_rejects_bad_chunk_size(self):
        with pytest.raises(WorkloadError):
            list(pack_rows(iter(()), chunk_size=0))

    @pytest.mark.parametrize("chunk_size", [1, 4, 100])
    def test_pack_columns_equals_pack_rows(self, chunk_size):
        """Windows of unsorted columns (with timestamp ties) pack into the
        chunks their stable-sorted rows pack into."""
        windows = [
            (bytes([KIND_WRITE, KIND_READ, KIND_READ]), [2.0, 1.0, 2.0], [7, 8, 9]),
            (b"", [], []),
            (bytes([KIND_READ] * 6), [5.0, 4.0, 5.0, 3.0, 4.0, 5.0], [1, 2, 3, 4, 5, 6]),
        ]
        rows = [
            row
            for kinds, timestamps, users in windows
            for row in sorted(zip(kinds, timestamps, users, [-1] * len(users)), key=lambda r: r[1])
        ]
        packed = list(
            pack_columns((time_ordered_columns(*window) for window in windows), chunk_size)
        )
        assert packed == list(pack_rows(iter(rows), chunk_size))

    def test_pack_columns_rejects_bad_chunk_size(self):
        with pytest.raises(WorkloadError):
            list(pack_columns(iter(()), chunk_size=0))

    def test_stats_count_all_four_kinds(self):
        kinds = [KIND_READ, KIND_EDGE_ADD, KIND_WRITE, KIND_READ, KIND_EDGE_REMOVE, KIND_READ]
        rows = [(kind, 10.0 + i, i, i + 1) for i, kind in enumerate(kinds)]
        stats = EventStream.from_rows(rows, chunk_size=4).stats()
        assert (stats.events, stats.reads, stats.writes, stats.mutations) == (6, 3, 1, 2)
        assert (stats.first_timestamp, stats.last_timestamp) == (10.0, 15.0)
        assert stats.duration == 5.0

    def test_chunk_validate_catches_disorder(self):
        chunk = EventChunk()
        chunk.append(KIND_READ, 5.0, 1)
        chunk.append(KIND_READ, 1.0, 2)
        with pytest.raises(WorkloadError):
            chunk.validate()

    def test_stats_of_an_empty_stream(self):
        stats = EventStream.empty().stats()
        assert (stats.events, stats.duration) == (0, 0.0)

    def test_events_per_day_buckets_reads_and_writes(self):
        rows = [
            (KIND_READ, 0.5 * DAY, 1, -1),
            (KIND_EDGE_ADD, 0.6 * DAY, 1, 2),
            (KIND_WRITE, 1.5 * DAY, 1, -1),
            (KIND_READ, 1.6 * DAY, 2, -1),
        ]
        assert events_per_day(EventStream.from_rows(rows)) == {
            0: {"reads": 1, "writes": 0},
            1: {"reads": 1, "writes": 1},
        }

    def test_events_per_day_totals_match_stream_stats(self):
        graph = facebook_like(users=100, seed=4)
        stream = NewsActivityTraceGenerator(
            graph, NewsActivityTraceConfig(days=2.0, writes_per_user=2.0, seed=4)
        ).stream()
        per_day = events_per_day(stream)
        stats = stream.stats()
        assert sum(day["reads"] for day in per_day.values()) == stats.reads
        assert sum(day["writes"] for day in per_day.values()) == stats.writes


class TestMerge:
    def test_merge_orders_and_keeps_all_events(self):
        a = EventStream.from_rows([(KIND_READ, t, 1, -1) for t in (1.0, 4.0, 9.0)])
        b = EventStream.from_rows([(KIND_WRITE, t, 2, -1) for t in (2.0, 4.0, 8.0)])
        merged = list(merge_streams(a, b).rows())
        timestamps = [row[1] for row in merged]
        assert timestamps == sorted(timestamps)
        assert len(merged) == 6

    def test_merge_is_stable_for_ties(self):
        a = EventStream.from_rows([(KIND_READ, 5.0, 1, -1)])
        b = EventStream.from_rows([(KIND_WRITE, 5.0, 2, -1)])
        merged = list(merge_streams(a, b).rows())
        assert [row[2] for row in merged] == [1, 2]

    def test_merge_is_reiterable(self):
        a = EventStream.from_rows([(KIND_READ, 1.0, 1, -1)])
        b = EventStream.from_rows([(KIND_WRITE, 2.0, 2, -1)])
        merged = merge_streams(a, b)
        assert list(merged.rows()) == list(merged.rows())


class TestGeneratorSeedStability:
    """Chunk boundaries must never perturb the generated events."""

    @pytest.fixture
    def graph(self):
        return facebook_like(users=150, seed=9)

    @pytest.mark.parametrize("chunk_size", [64, 257, 100_000])
    def test_synthetic_stable_across_chunk_sizes(self, graph, chunk_size):
        generator = SyntheticWorkloadGenerator(graph, SyntheticWorkloadConfig(days=0.5, seed=5))
        reference = list(generator.stream().rows())
        assert list(generator.stream(chunk_size=chunk_size).rows()) == reference

    @pytest.mark.parametrize("chunk_size", [64, 257])
    def test_trace_stable_across_chunk_sizes(self, graph, chunk_size):
        generator = NewsActivityTraceGenerator(
            graph, NewsActivityTraceConfig(days=1.0, writes_per_user=2.0, seed=5)
        )
        reference = list(generator.stream().rows())
        assert list(generator.stream(chunk_size=chunk_size).rows()) == reference

    def test_streams_are_reiterable(self, graph):
        stream = SyntheticWorkloadGenerator(
            graph, SyntheticWorkloadConfig(days=0.25, seed=7)
        ).stream()
        assert list(stream.rows()) == list(stream.rows())

    def test_allocate_proportionally_is_exact(self):
        shares = allocate_proportionally(10, [1.0, 1.0, 1.0])
        assert sum(shares) == 10
        assert allocate_proportionally(7, [0.0, 0.0]) == [7, 0]
        assert allocate_proportionally(0, [1.0]) == [0]

    def test_partial_final_window_keeps_event_rate_even(self, graph):
        """A fractional-day span must not concentrate events at the end.

        0.3 days splits into a 6h window and a 1.2h tail; the tail must
        carry roughly width-proportional traffic (~17%), not half of it.
        """
        generator = SyntheticWorkloadGenerator(
            graph, SyntheticWorkloadConfig(days=0.3, seed=5)
        )
        cutoff = 6 * 3600.0
        times = [row[1] for row in generator.stream().rows()]
        tail = sum(1 for t in times if t >= cutoff)
        tail_fraction = tail / len(times)
        expected = (0.3 * 86400.0 - cutoff) / (0.3 * 86400.0)
        assert tail_fraction == pytest.approx(expected, abs=0.03)


@pytest.mark.parametrize("kind", ["nope", "pareto_burst", "celebrity_storm"])
def test_workload_spec_rejects_unknown_kind(kind):
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        WorkloadSpec(kind=kind, days=1.0, seed=1)


def test_synthetic_stream_peak_memory_stays_under_8_mb():
    """A 1M-event workload consumed chunk by chunk stays in constant memory.

    3.48 MB measured; a generator or transform that starts holding the whole
    workload (17 bytes per event in columns, ~100 as objects) breaks 8 MB.
    """
    graph = generate_social_graph(dataset_preset("twitter", users=2000), seed=7)
    generator = SyntheticWorkloadGenerator(
        graph, SyntheticWorkloadConfig(days=100.0, seed=7)  # 2000 * 5 * 100 = 1M
    )
    gc.collect()
    tracemalloc.start()
    try:
        events = sum(len(chunk) for chunk in generator.stream().chunks())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert events == 1_000_000
    assert peak <= 8e6, f"stream peak {peak / 1e6:.2f} MB"
