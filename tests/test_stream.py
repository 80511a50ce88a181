"""Tests for the columnar event-stream pipeline.

Covers the chunk/stream substrate (adapters, merging, chunk-level queries),
the seed-stability of the stream-native generators across chunk boundaries,
and the headline guarantee of the refactor: streaming and materialised
replay produce byte-identical :class:`SimulationResult`s for every
registered placement strategy, with and without load scenarios.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.config import SimulationConfig
from repro.constants import DAY, HOUR
from repro.exceptions import WorkloadError
from repro.runtime.spec import STRATEGY_KEYS, WorkloadSpec, build_strategy
from repro.scenarios import (
    CompositeScenario,
    CrashRecoverScenario,
    DiurnalLoadScenario,
    RegionalFlashCrowdScenario,
    Scenario,
    ScenarioContext,
)
from repro.simulator.engine import ClusterSimulator
from repro.socialgraph.generators import facebook_like
from repro.topology.tree import TreeTopology
from repro.workload.flash import inject_flash_event, inject_flash_stream, plan_flash_event
from repro.workload.models import (
    CelebrityReadStormGenerator,
    CelebrityStormConfig,
    ParetoBurstConfig,
    ParetoBurstWorkloadGenerator,
)
from repro.workload.requests import EdgeAdded, ReadRequest, RequestLog, WriteRequest
from repro.workload.stream import (
    EventChunk,
    EventStream,
    KIND_EDGE_ADD,
    KIND_EDGE_REMOVE,
    KIND_READ,
    KIND_WRITE,
    allocate_proportionally,
    as_stream,
    events_per_day,
    merge_streams,
    pack_columns,
    pack_rows,
    time_ordered_columns,
)
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator
from repro.workload.trace import NewsActivityTraceConfig, NewsActivityTraceGenerator


class TestChunksAndAdapters:
    def test_chunk_round_trips_request_objects(self):
        log = RequestLog()
        log.append(ReadRequest(1.0, 4))
        log.append(WriteRequest(2.0, 5))
        log.append(EdgeAdded(3.0, 1, 2))
        stream = as_stream(log)
        assert [type(r).__name__ for r in stream] == [
            "ReadRequest",
            "WriteRequest",
            "EdgeAdded",
        ]
        assert stream.materialise().requests == log.requests

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

    def test_chunk_validate_catches_disorder(self):
        chunk = EventChunk()
        chunk.append(KIND_READ, 5.0, 1)
        chunk.append(KIND_READ, 1.0, 2)
        with pytest.raises(WorkloadError):
            chunk.validate()

    def test_stats_match_request_log_counts(self):
        graph = facebook_like(users=100, seed=3)
        generator = SyntheticWorkloadGenerator(graph, SyntheticWorkloadConfig(days=0.5, seed=3))
        stream = generator.stream()
        log = generator.generate()
        stats = stream.stats()
        assert stats.events == len(log)
        assert stats.reads == log.read_count
        assert stats.writes == log.write_count
        assert stats.mutations == log.mutation_count
        assert stats.duration == pytest.approx(log.duration)

    def test_events_per_day_matches_object_histogram(self):
        graph = facebook_like(users=100, seed=4)
        generator = NewsActivityTraceGenerator(
            graph, NewsActivityTraceConfig(days=2.0, writes_per_user=2.0, seed=4)
        )
        assert events_per_day(generator.stream()) == generator.generate().requests_per_day()


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

    @pytest.mark.parametrize("chunk_size", [64, 257])
    def test_pareto_stable_across_chunk_sizes(self, graph, chunk_size):
        generator = ParetoBurstWorkloadGenerator(graph, ParetoBurstConfig(days=0.5, seed=5))
        reference = list(generator.stream().rows())
        assert list(generator.stream(chunk_size=chunk_size).rows()) == reference

    @pytest.mark.parametrize("chunk_size", [64, 257])
    def test_celebrity_stable_across_chunk_sizes(self, graph, chunk_size):
        generator = CelebrityReadStormGenerator(
            graph, CelebrityStormConfig(days=0.5, celebrities=2, seed=5)
        )
        reference = list(generator.stream().rows())
        assert list(generator.stream(chunk_size=chunk_size).rows()) == reference

    def test_generate_equals_materialised_stream(self, graph):
        generator = SyntheticWorkloadGenerator(graph, SyntheticWorkloadConfig(days=0.5, seed=6))
        assert generator.generate().requests == generator.stream().materialise().requests

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


class TestFlashInjection:
    def test_stream_injection_matches_object_injection(self):
        graph = facebook_like(users=120, seed=7)
        base = SyntheticWorkloadGenerator(graph, SyntheticWorkloadConfig(days=3.0, seed=7))
        spec = plan_flash_event(
            graph, random.Random(2), followers=10, start_day=1.0, end_day=2.0
        )
        via_log = inject_flash_event(base.generate(), spec, 2.0, seed=4)
        via_stream = inject_flash_stream(base.stream(), spec, 2.0, seed=4).materialise()
        assert via_log.requests == via_stream.requests
        via_log.validate()


def _equivalence_setup(seed: int = 21):
    graph = facebook_like(users=90, seed=seed)
    generator = SyntheticWorkloadGenerator(
        graph, SyntheticWorkloadConfig(days=0.5, seed=seed)
    )
    from repro.config import ClusterSpec

    spec = ClusterSpec(intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=3)
    return graph, generator, spec


def _run(workload, graph, cluster_spec, strategy_key, scenario=None, tracked=()):
    simulator = ClusterSimulator(
        TreeTopology(cluster_spec),
        graph.copy(),
        build_strategy(strategy_key, seed=21),
        SimulationConfig(extra_memory_pct=50.0, seed=21),
        scenario=scenario,
    )
    for user in tracked:
        simulator.track_view(user)
    return simulator.run(workload)


class TestStreamingMaterialisedEquivalence:
    """Streaming and materialised replay must be byte-identical."""

    @pytest.mark.parametrize("strategy_key", STRATEGY_KEYS)
    def test_equivalent_for_every_strategy(self, strategy_key):
        graph, generator, cluster = _equivalence_setup()
        from_stream = _run(generator.stream(), graph, cluster, strategy_key)
        from_log = _run(generator.generate(), graph, cluster, strategy_key)
        assert pickle.dumps(from_stream) == pickle.dumps(from_log)

    @pytest.mark.parametrize(
        "scenario_factory",
        [
            lambda: DiurnalLoadScenario(trough_fraction=0.3),
            lambda: RegionalFlashCrowdScenario(
                start_time=HOUR, end_time=6 * HOUR, targets=2, followers=8
            ),
            lambda: CompositeScenario(
                DiurnalLoadScenario(trough_fraction=0.5),
                RegionalFlashCrowdScenario(
                    start_time=HOUR, end_time=4 * HOUR, targets=1, followers=5
                ),
            ),
            # Fault path: exercises the inlined fault guard and the
            # persistent-store local refresh of the columnar loop.
            lambda: CrashRecoverScenario(
                crash_time=2 * HOUR, recover_time=6 * HOUR, count=1
            ),
            lambda: CompositeScenario(
                DiurnalLoadScenario(trough_fraction=0.5),
                CrashRecoverScenario(crash_time=3 * HOUR, recover_time=8 * HOUR),
            ),
        ],
    )
    def test_equivalent_under_load_scenarios(self, scenario_factory):
        graph, generator, cluster = _equivalence_setup()
        from_stream = _run(
            generator.stream(), graph, cluster, "dynasore_random", scenario_factory()
        )
        from_log = _run(
            generator.generate(), graph, cluster, "dynasore_random", scenario_factory()
        )
        assert pickle.dumps(from_stream) == pickle.dumps(from_log)

    def test_equivalent_with_tracked_views(self):
        graph, generator, cluster = _equivalence_setup()
        tracked = (graph.users[0],)
        from_stream = _run(generator.stream(), graph, cluster, "dynasore_random", tracked=tracked)
        from_log = _run(generator.generate(), graph, cluster, "dynasore_random", tracked=tracked)
        assert pickle.dumps(from_stream) == pickle.dumps(from_log)

    def test_workload_spec_build_paths_agree(self):
        graph = facebook_like(users=80, seed=5)
        spec = WorkloadSpec(kind="synthetic", days=0.5, seed=5)
        stream, tracked_s = spec.build_stream(graph)
        log, tracked_l = spec.build(graph)
        assert tracked_s == tracked_l
        assert stream.materialise().requests == log.requests

    def test_post_request_hooks_see_identical_objects(self):
        graph, generator, cluster = _equivalence_setup()

        def run_with_hook(workload):
            simulator = ClusterSimulator(
                TreeTopology(cluster),
                graph.copy(),
                build_strategy("random", seed=21),
                SimulationConfig(extra_memory_pct=0.0, seed=21),
            )
            seen = []
            simulator.add_post_request_hook(seen.append)
            simulator.run(workload)
            return seen

        assert run_with_hook(generator.stream()) == run_with_hook(generator.generate())


class TestLegacyScenarioAdapter:
    def test_legacy_override_may_delegate_to_super(self, tree_topology, small_graph, small_log):
        """A transform_log override ending in super() must not recurse."""

        class Throttle(Scenario):
            name = "throttle"

            def transform_log(self, log, context):
                kept = RequestLog()
                kept.requests = list(log)[: len(log) // 2]
                return super().transform_log(kept, context)

        context = ScenarioContext(topology=tree_topology, graph=small_graph, seed=3)
        out = Throttle().transform_log(small_log, context)
        assert len(out) == len(small_log) // 2
        via_stream = Throttle().transform_stream(as_stream(small_log), context)
        assert via_stream.stats().events == len(out)

    def test_log_only_scenario_still_transforms_streams(self, tree_topology, small_graph):
        class DropWrites(Scenario):
            name = "drop-writes"

            def transform_log(self, log, context):
                kept = RequestLog()
                kept.requests = [r for r in log if not isinstance(r, WriteRequest)]
                return kept

        context = ScenarioContext(topology=tree_topology, graph=small_graph, seed=3)
        stream = SyntheticWorkloadGenerator(
            small_graph, SyntheticWorkloadConfig(days=0.25, seed=3)
        ).stream()
        transformed = DropWrites().transform_stream(stream, context)
        assert transformed.stats().writes == 0
        assert transformed.stats().reads == stream.stats().reads


class TestNewWorkloadModels:
    @pytest.fixture
    def graph(self):
        return facebook_like(users=150, seed=11)

    def test_pareto_burst_is_ordered_and_sized(self, graph):
        generator = ParetoBurstWorkloadGenerator(
            graph, ParetoBurstConfig(days=0.5, events_per_user_per_day=4.0, seed=3)
        )
        log = generator.generate()
        log.validate()
        assert len(log) == generator.total_events()
        assert log.read_count > log.write_count  # read_fraction defaults to 0.8

    def test_pareto_burst_is_bursty(self, graph):
        """Heavy-tailed gaps: the largest interarrival dwarfs the median."""
        generator = ParetoBurstWorkloadGenerator(
            graph, ParetoBurstConfig(days=0.5, shape=1.2, seed=3)
        )
        times = [row[1] for row in generator.stream().rows()]
        gaps = sorted(b - a for a, b in zip(times, times[1:]))
        median = gaps[len(gaps) // 2]
        assert gaps[-1] > 20 * max(median, 1e-9)

    def test_pareto_rejects_bad_config(self):
        with pytest.raises(WorkloadError):
            ParetoBurstConfig(shape=1.0)
        with pytest.raises(WorkloadError):
            ParetoBurstConfig(read_fraction=1.5)

    def test_celebrity_storm_concentrates_reads_on_followers(self, graph):
        config = CelebrityStormConfig(
            days=0.5,
            celebrities=1,
            storms_per_celebrity=1,
            storm_duration=HOUR,
            reads_per_follower=4.0,
            seed=3,
        )
        generator = CelebrityReadStormGenerator(graph, config)
        (celebrity,) = generator.celebrity_users()
        followers = set(graph.followers(celebrity))
        (start,) = generator.storm_windows(celebrity)
        in_window = [
            row
            for row in generator.stream().rows()
            if start <= row[1] <= start + config.storm_duration and row[0] == KIND_READ
        ]
        follower_reads = sum(1 for row in in_window if row[2] in followers)
        assert follower_reads >= len(followers) * 3
        stream = generator.stream()
        stream.materialise().validate()

    def test_celebrity_storm_rejects_bad_config(self):
        with pytest.raises(WorkloadError):
            CelebrityStormConfig(celebrities=0)
        with pytest.raises(WorkloadError):
            CelebrityStormConfig(background_read_fraction=1.0)

    def test_models_run_through_the_simulator(self, graph):
        from repro.config import ClusterSpec

        cluster = ClusterSpec(
            intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=3
        )
        stream = ParetoBurstWorkloadGenerator(
            graph, ParetoBurstConfig(days=0.25, seed=3)
        ).stream()
        result = _run(stream, graph, cluster, "random")
        assert result.requests_executed == stream.stats().events
        assert result.top_switch_traffic > 0

    def test_workload_spec_builds_new_kinds(self, graph):
        pareto = WorkloadSpec.of("pareto_burst", days=0.25, seed=3, shape=1.4)
        stream, tracked = pareto.build_stream(graph)
        assert tracked == ()
        assert stream.stats().events > 0
        storm = WorkloadSpec.of("celebrity_storm", days=0.25, seed=3, celebrities=2)
        stream, _ = storm.build_stream(graph)
        assert stream.stats().events > 0

    def test_workload_spec_rejects_unknown_kind(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            WorkloadSpec(kind="nope", days=1.0, seed=1)


class TestDayHistogramStream:
    def test_requests_per_day_still_works_on_logs(self):
        log = RequestLog()
        log.append(ReadRequest(0.5 * DAY, 1))
        log.append(WriteRequest(1.5 * DAY, 1))
        assert events_per_day(as_stream(log)) == log.requests_per_day()
