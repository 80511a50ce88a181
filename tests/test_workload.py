"""Tests for the synthetic / trace / flash workload generators."""

from __future__ import annotations

import random

import pytest

from repro.constants import DAY
from repro.exceptions import WorkloadError
from repro.socialgraph.generators import facebook_like
from repro.workload.flash import inject_flash_stream, plan_flash_event
from repro.workload.stream import KIND_EDGE_ADD, KIND_EDGE_REMOVE
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator
from repro.workload.trace import NewsActivityTraceConfig, NewsActivityTraceGenerator


class TestSyntheticWorkload:
    @pytest.fixture
    def graph(self):
        return facebook_like(users=200, seed=2)

    def test_read_write_ratio(self, graph):
        generator = SyntheticWorkloadGenerator(
            graph, SyntheticWorkloadConfig(days=1.0, seed=3)
        )
        stats = generator.stream().stats()
        assert stats.writes == pytest.approx(graph.num_users, rel=0.05)
        assert stats.reads == pytest.approx(4 * stats.writes, rel=0.05)

    def test_log_is_time_ordered_and_bounded(self, graph, assert_time_ordered):
        stream = SyntheticWorkloadGenerator(
            graph, SyntheticWorkloadConfig(days=2.0, seed=3)
        ).stream()
        assert_time_ordered(stream)
        stats = stream.stats()
        assert 0.0 <= stats.first_timestamp <= stats.last_timestamp <= 2.0 * DAY

    def test_deterministic(self, graph):
        config = SyntheticWorkloadConfig(days=0.5, seed=8)
        a = SyntheticWorkloadGenerator(graph, config).stream()
        b = SyntheticWorkloadGenerator(graph, config).stream()
        assert list(a.rows()) == list(b.rows())

    def test_active_users_read_more(self, graph):
        generator = SyntheticWorkloadGenerator(graph, SyntheticWorkloadConfig(days=1.0, seed=3))
        weights = generator.read_weights()
        most_social = max(graph.users, key=graph.out_degree)
        least_social = min(graph.users, key=graph.out_degree)
        assert weights[most_social] >= weights[least_social]

    def test_empty_graph(self):
        from repro.socialgraph.graph import SocialGraph

        stream = SyntheticWorkloadGenerator(SocialGraph()).stream()
        assert stream.stats().events == 0

    def test_rejects_bad_config(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkloadConfig(days=0.0)


class TestNewsActivityTrace:
    @pytest.fixture
    def graph(self):
        return facebook_like(users=200, seed=4)

    def test_trace_is_write_heavy(self, graph):
        stats = NewsActivityTraceGenerator(
            graph, NewsActivityTraceConfig(days=3.0, writes_per_user=2.0, seed=5)
        ).stream().stats()
        assert stats.writes > stats.reads

    def test_trace_spans_requested_days(self, graph, assert_time_ordered):
        config = NewsActivityTraceConfig(days=3.0, writes_per_user=2.0, seed=5)
        stream = NewsActivityTraceGenerator(graph, config).stream()
        assert_time_ordered(stream)
        days_touched = {int(timestamp // DAY) for _, timestamp, _, _ in stream.rows()}
        assert max(days_touched) <= 2
        assert len(days_touched) >= 2

    def test_rank_mapping_gives_heaviest_activity_to_best_connected(self, graph):
        generator = NewsActivityTraceGenerator(
            graph, NewsActivityTraceConfig(days=2.0, seed=6)
        )
        profile = generator.activity_profile(random.Random(1))
        ranked = generator.ranked_users()
        assert profile[ranked[0]] >= profile[ranked[-1]]

    def test_deterministic(self, graph):
        config = NewsActivityTraceConfig(days=1.0, writes_per_user=1.0, seed=9)
        a = NewsActivityTraceGenerator(graph, config).stream()
        b = NewsActivityTraceGenerator(graph, config).stream()
        assert list(a.rows()) == list(b.rows())

    def test_rejects_bad_config(self):
        with pytest.raises(WorkloadError):
            NewsActivityTraceConfig(days=-1.0)
        with pytest.raises(WorkloadError):
            NewsActivityTraceConfig(active_fraction=0.0)


class TestFlashEvents:
    @pytest.fixture
    def graph(self):
        return facebook_like(users=150, seed=7)

    def test_plan_picks_new_followers(self, graph):
        rng = random.Random(2)
        spec = plan_flash_event(graph, rng, followers=20, start_day=1.0, end_day=2.0)
        assert len(spec.new_followers) == 20
        existing = graph.followers(spec.target_user)
        assert existing.isdisjoint(spec.new_followers)

    def test_injected_log_contains_mutations_and_reads(self, graph, assert_time_ordered):
        rng = random.Random(3)
        base = SyntheticWorkloadGenerator(
            graph, SyntheticWorkloadConfig(days=3.0, seed=3)
        ).stream()
        spec = plan_flash_event(graph, rng, followers=10, start_day=1.0, end_day=2.0)
        log = inject_flash_stream(base, spec, reads_per_follower_per_day=2.0, seed=4)
        assert_time_ordered(log)
        additions = [row for row in log.rows() if row[0] == KIND_EDGE_ADD]
        removals = [row for row in log.rows() if row[0] == KIND_EDGE_REMOVE]
        assert len(additions) == 10
        assert len(removals) == 10
        assert {timestamp for _, timestamp, _, _ in additions} == {spec.start_time}
        assert {timestamp for _, timestamp, _, _ in removals} == {spec.end_time}
        assert all(followee == spec.target_user for *_, followee in additions + removals)
        assert log.stats().reads > base.stats().reads

    def test_flash_event_times(self, graph):
        rng = random.Random(5)
        spec = plan_flash_event(graph, rng, followers=5, start_day=2.0, end_day=7.0)
        assert spec.start_time == 2.0 * DAY
        assert spec.end_time == 7.0 * DAY

    def test_invalid_window_rejected(self, graph):
        rng = random.Random(6)
        with pytest.raises(WorkloadError):
            plan_flash_event(graph, rng, followers=5, start_day=3.0, end_day=3.0)
