"""Tests for the simulation clock, cluster simulator and runner helpers."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines.base import StaticPlacementStrategy
from repro.config import SimulationConfig
from repro.constants import DAY, HOUR
from repro.core.engine import DynaSoRe
from repro.exceptions import SimulationError
from repro.experiments.common import (
    graph_spec,
    simulation_config,
    synthetic_workload_spec,
    topology_spec,
)
from repro.runtime.executor import execute_spec
from repro.runtime.spec import RunSpec, WorkloadSpec
from repro.simulator.clock import SimulationClock
from repro.simulator.engine import ClusterSimulator
from repro.simulator.runner import normalise_results
from repro.socialgraph.generators import facebook_like
from repro.topology.tree import TreeTopology
from repro.workload.stream import (
    EventStream,
    KIND_EDGE_ADD,
    KIND_EDGE_REMOVE,
    KIND_READ,
    KIND_WRITE,
    NO_AUX,
)


class TestSimulationClock:
    def test_advance_returns_due_ticks(self):
        clock = SimulationClock(tick_period=HOUR)
        due = clock.advance_to(2.5 * HOUR)
        assert due == [HOUR, 2 * HOUR]
        assert clock.now == 2.5 * HOUR

    def test_no_tick_when_advancing_within_period(self):
        clock = SimulationClock(tick_period=HOUR)
        assert clock.advance_to(0.5 * HOUR) == []
        assert clock.advance_to(0.9 * HOUR) == []

    def test_time_never_goes_backwards(self):
        clock = SimulationClock(tick_period=HOUR)
        clock.advance_to(HOUR * 3)
        assert clock.advance_to(HOUR) == []
        assert clock.now == HOUR * 3

    def test_invalid_tick_period(self):
        with pytest.raises(SimulationError):
            SimulationClock(tick_period=0.0)


def small_scenario():
    graph = facebook_like(users=80, seed=5)
    topology = TreeTopology.__call__ if False else None  # placeholder, unused
    return graph


class TestClusterSimulator:
    @pytest.fixture
    def scenario(self, cluster_spec):
        graph = facebook_like(users=80, seed=5)
        topology = TreeTopology(cluster_spec)
        users = list(graph.users)
        log = EventStream.from_rows(
            (KIND_WRITE if i % 5 == 0 else KIND_READ, 30.0 * (i + 1), users[i % len(users)], NO_AUX)
            for i in range(200)
        )
        return topology, graph, log

    def test_run_counts_requests(self, scenario):
        topology, graph, log = scenario
        simulator = ClusterSimulator(
            topology,
            graph,
            StaticPlacementStrategy("random", seed=1),
            SimulationConfig(extra_memory_pct=0.0),
        )
        result = simulator.run(log)
        stats = log.stats()
        assert result.requests_executed == stats.events == 200
        assert result.reads_executed == stats.reads
        assert result.writes_executed == stats.writes
        assert result.top_switch_traffic > 0

    def test_graph_mutations_are_applied(self, scenario):
        topology, graph, _ = scenario
        users = list(graph.users)
        log = EventStream.from_rows(
            [
                (KIND_EDGE_ADD, 10.0, users[0], users[5]),
                (KIND_READ, 20.0, users[0], NO_AUX),
                (KIND_EDGE_REMOVE, 30.0, users[0], users[5]),
            ]
        )
        simulator = ClusterSimulator(
            topology,
            graph,
            StaticPlacementStrategy("random", seed=1),
            SimulationConfig(extra_memory_pct=0.0),
        )
        simulator.run(log)
        assert not graph.has_edge(users[0], users[5])

    def test_tracked_view_timeline(self, scenario):
        topology, graph, log = scenario
        simulator = ClusterSimulator(
            topology, graph, DynaSoRe(initializer="random", seed=1),
            SimulationConfig(extra_memory_pct=50.0),
        )
        tracked_user = list(graph.users)[0]
        simulator.track_view(tracked_user)
        result = simulator.run(log)
        timeline = result.tracked_views[tracked_user]
        assert timeline.replica_counts
        assert all(count >= 1 for _, count in timeline.replica_counts)

    def test_tracked_reads_follow_edge_events(self, scenario):
        """The tracked-read counters honour edge churn around the hot view.

        The follower sets of tracked views are maintained incrementally on
        edge events (instead of scanning the reader's following list per
        read), so reads must count exactly while the follow edge exists.
        """
        topology, graph, _ = scenario
        users = list(graph.users)
        target, reader = users[0], users[1]
        # Start from a clean slate: the reader does not follow the target.
        graph.remove_edge(reader, target)

        log = EventStream.from_rows(
            [
                (KIND_READ, 10.0, reader, NO_AUX),  # not following yet: no count
                (KIND_EDGE_ADD, 20.0, reader, target),
                (KIND_READ, 30.0, reader, NO_AUX),  # following: counts
                (KIND_READ, 40.0, reader, NO_AUX),  # following: counts
                (KIND_EDGE_REMOVE, 50.0, reader, target),
                (KIND_READ, 60.0, reader, NO_AUX),  # unfollowed again: no count
            ]
        )

        simulator = ClusterSimulator(
            topology, graph, DynaSoRe(initializer="random", seed=1),
            SimulationConfig(extra_memory_pct=50.0),
        )
        simulator.track_view(target)
        result = simulator.run(log)
        timeline = result.tracked_views[target]
        # All reads land in the single forced end-of-run sample.
        total_reads = sum(
            reads * count
            for (_, reads), (_, count) in zip(
                timeline.reads_per_replica, timeline.replica_counts
            )
        )
        assert total_reads == pytest.approx(2.0)

    def test_dynasore_run_produces_system_traffic(self, scenario):
        topology, graph, log = scenario
        simulator = ClusterSimulator(
            topology, graph, DynaSoRe(initializer="random", seed=1),
            SimulationConfig(extra_memory_pct=100.0),
        )
        result = simulator.run(log)
        assert result.snapshot.system_by_level.get("top", 0.0) >= 0.0
        assert result.replication_factor >= 1.0

    def test_measure_from_reduces_traffic(self, scenario):
        topology, graph, log = scenario
        full = ClusterSimulator(
            topology,
            graph.copy(),
            StaticPlacementStrategy("random", seed=1),
            SimulationConfig(extra_memory_pct=0.0),
        ).run(log)
        half = ClusterSimulator(
            topology,
            graph.copy(),
            StaticPlacementStrategy("random", seed=1),
            SimulationConfig(extra_memory_pct=0.0, measure_from=log.stats().duration / 2),
        ).run(log)
        assert half.top_switch_traffic < full.top_switch_traffic

    def test_result_summary_and_series(self, scenario):
        topology, graph, log = scenario
        result = ClusterSimulator(
            topology,
            graph,
            StaticPlacementStrategy("random", seed=1),
            SimulationConfig(extra_memory_pct=0.0),
        ).run(log)
        summary = result.summary()
        assert summary["reads"] == log.stats().reads
        series = result.top_switch_series()
        assert sum(series.values()) == pytest.approx(result.top_switch_traffic)
        split = result.top_switch_series(split=True)
        assert all(len(pair) == 2 for pair in split.values())


class TestRunner:
    def test_run_comparison_and_normalise(self, ci_profile):
        spec = RunSpec(
            topology_spec(ci_profile),
            graph_spec(ci_profile, "twitter"),
            WorkloadSpec(kind="synthetic", days=0.2, seed=ci_profile.seed),
            "random",
            simulation_config(ci_profile, 0.0),
        )
        results = {
            key: execute_spec(replace(spec, strategy=key)) for key in ("random", "hmetis")
        }
        normalised = normalise_results(results)
        assert normalised["random"] == pytest.approx(1.0)
        assert normalised["hmetis"] <= 1.0

    def test_scenario_run_is_byte_identical_across_runs(self, ci_profile, time_prefix):
        """Same seed + same scenario => byte-identical traffic series.

        Regression guard for the scenario subsystem: all scenario
        randomness must derive from the simulation seed, so repeating a
        crash-and-recover run reproduces every number exactly.
        """
        import json

        from repro.scenarios import CompositeScenario, CrashRecoverScenario, DiurnalLoadScenario

        graphs = graph_spec(ci_profile, "twitter")
        stream, _ = synthetic_workload_spec(ci_profile).build_stream(graphs.build())
        log = time_prefix(stream, 0.3 * DAY)
        scenario = CompositeScenario(
            DiurnalLoadScenario(trough_fraction=0.5),
            CrashRecoverScenario(
                crash_time=0.1 * DAY, recover_time=0.2 * DAY, count=2
            ),
        )

        def run():
            # Fresh topology and graph per run: strategies mutate the graph.
            return ClusterSimulator(
                topology_spec(ci_profile).build(),
                graphs.build(),
                DynaSoRe(initializer="random", seed=ci_profile.seed),
                simulation_config(ci_profile, 50.0),
                scenario=scenario,
            ).run(log)

        def serialise(result):
            return json.dumps(
                {
                    "app": sorted(result.top_series_application.items()),
                    "sys": sorted(result.top_series_system.items()),
                    "top": result.top_switch_traffic,
                    "levels": sorted(result.snapshot.total_by_level.items()),
                    "faults": [
                        (r.timestamp, r.kind, r.position, r.views_from_memory, r.views_from_disk)
                        for r in result.fault_records
                    ],
                    "requests": result.requests_executed,
                },
                sort_keys=True,
            )

        runs = [run() for _ in range(2)]
        assert serialise(runs[0]) == serialise(runs[1])
        assert runs[0].fault_records  # the scenario actually fired

    def test_run_simulation_with_tracked_views(self, ci_profile):
        graphs = graph_spec(ci_profile, "twitter")
        tracked = graphs.build().users[0]
        result = execute_spec(
            RunSpec(
                topology_spec(ci_profile),
                graphs,
                WorkloadSpec(kind="synthetic", days=0.1, seed=ci_profile.seed),
                "dynasore_random",
                simulation_config(ci_profile, 50.0),
                strategy_seed=1,
                tracked_views=(tracked,),
            )
        )
        assert tracked in result.tracked_views
