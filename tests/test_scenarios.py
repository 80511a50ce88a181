"""Tests for the failure & churn scenario subsystem.

Covers the scenario event model, the simulator's fault application (mask,
pre-tick hooks, WAL-driven recovery), the per-strategy evacuation logic, and the
crash → recovery round-trip acceptance property: a seeded run with a
mid-run server crash ends with every view available and memory within
budget.
"""

from __future__ import annotations

import pytest

from repro.baselines.base import StaticPlacementStrategy
from repro.baselines.spar import SparPlacement
from repro.config import ClusterSpec, SimulationConfig
from repro.constants import DAY, HOUR
from repro.core.engine import DynaSoRe
from repro.exceptions import SimulationError
from repro.persistence.backend import PersistentStore
from repro.runtime import (
    STRATEGY_KEYS,
    GraphSpec,
    RunSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_strategy,
    execute_spec,
)
from repro.scenarios import (
    CompositeScenario,
    CrashRecoverScenario,
    DiurnalLoadScenario,
    ScenarioContext,
)
from repro.scenarios.events import ServerCrash, ServerRecovery
from repro.simulator.engine import ClusterSimulator
from repro.simulator.runner import normalise_results
from repro.workload.io import write_trace
from repro.workload.stream import KIND_READ, KIND_WRITE, EventStream


@pytest.fixture
def context(tree_topology, small_graph) -> ScenarioContext:
    return ScenarioContext(topology=tree_topology, graph=small_graph, seed=7)


def crash_scenario(log, count=2, graceful=False):
    """Crash ``count`` servers a third of the way in, recover at two thirds."""
    duration = log.stats().last_timestamp
    return CrashRecoverScenario(
        crash_time=duration / 3.0,
        recover_time=2.0 * duration / 3.0,
        count=count,
        graceful=graceful,
    )


class TestScenarioGenerators:
    def test_crash_recover_emits_paired_events(self, context):
        scenario = CrashRecoverScenario(crash_time=HOUR, recover_time=3 * HOUR, count=2)
        events = scenario.fault_events(context)
        crashes = [e for e in events if isinstance(e, ServerCrash)]
        recoveries = [e for e in events if isinstance(e, ServerRecovery)]
        assert len(crashes) == 2 and len(recoveries) == 2
        assert {e.position for e in crashes} == {e.position for e in recoveries}
        assert all(e.timestamp == HOUR for e in crashes)
        assert all(e.timestamp == 3 * HOUR for e in recoveries)

    def test_crash_recover_is_deterministic(self, context):
        scenario = CrashRecoverScenario(crash_time=HOUR, recover_time=2 * HOUR, count=3)
        assert scenario.fault_events(context) == scenario.fault_events(context)

    def test_crash_recover_rejects_bad_windows(self):
        with pytest.raises(SimulationError):
            CrashRecoverScenario(crash_time=2 * HOUR, recover_time=HOUR)
        with pytest.raises(SimulationError):
            CrashRecoverScenario(crash_time=HOUR, count=0)

    def test_diurnal_keeps_mutations_and_thins_requests(
        self, context, small_log, assert_time_ordered
    ):
        scenario = DiurnalLoadScenario(trough_fraction=0.2)
        thinned = scenario.transform_stream(small_log, context)
        assert thinned.stats().events < small_log.stats().events
        assert thinned.stats().mutations == small_log.stats().mutations
        assert_time_ordered(thinned)
        # Same seed, same thinning.
        again = scenario.transform_stream(small_log, context)
        assert list(again.rows()) == list(thinned.rows())

    def test_diurnal_keep_probability_bounds(self):
        scenario = DiurnalLoadScenario(trough_fraction=0.3)
        for t in (0.0, 0.25 * DAY, 0.5 * DAY, 0.9 * DAY):
            assert 0.3 <= scenario.keep_probability(t) <= 1.0

    def test_composite_merges_events_in_time_order(self, context, small_log):
        composite = CompositeScenario(
            CrashRecoverScenario(crash_time=2 * HOUR, recover_time=4 * HOUR),
            DiurnalLoadScenario(trough_fraction=0.5),
        )
        events = composite.fault_events(context)
        assert events == sorted(events, key=lambda e: e.timestamp)
        thinned = composite.transform_stream(small_log, context)
        assert thinned.stats().events < small_log.stats().events


class TestSimulatorFaultCore:
    @pytest.fixture
    def simulator(self, tree_topology, small_graph):
        return ClusterSimulator(
            tree_topology,
            small_graph.copy(),
            DynaSoRe(initializer="random", seed=5),
            SimulationConfig(extra_memory_pct=100.0, seed=5),
        )

    def test_crash_updates_mask_and_records(self, simulator):
        simulator.prepare()
        record = simulator.crash_server(3, now=HOUR)
        assert simulator.server_up[3] is False
        assert record.kind == "crash" and record.position == 3
        assert 3 not in simulator.available_server_positions()

    def test_double_crash_is_rejected(self, simulator):
        simulator.prepare()
        simulator.crash_server(3, now=HOUR)
        with pytest.raises(SimulationError):
            simulator.crash_server(3, now=2 * HOUR)

    def test_restore_requires_a_down_server(self, simulator):
        simulator.prepare()
        with pytest.raises(SimulationError):
            simulator.restore_server(3, now=HOUR)
        simulator.crash_server(3, now=HOUR)
        simulator.restore_server(3, now=2 * HOUR)
        assert simulator.server_up[3] is True

    def test_last_server_cannot_go_down(self, simulator):
        simulator.prepare()
        positions = list(range(len(simulator.server_up)))
        for position in positions[:-1]:
            simulator.crash_server(position, now=HOUR)
        with pytest.raises(SimulationError):
            simulator.crash_server(positions[-1], now=HOUR)

    def test_invalid_position_is_rejected(self, simulator):
        simulator.prepare()
        with pytest.raises(SimulationError):
            simulator.crash_server(999, now=HOUR)
        with pytest.raises(SimulationError, match="invalid server position"):
            simulator.restore_server(-1, now=HOUR)

    def test_server_up_reads_the_strategy_down_set(self, simulator):
        """The strategy's down set is the one record of availability: a
        fault applied to the strategy directly shows in the simulator."""
        simulator.prepare()
        simulator.strategy.on_server_down(2, now=HOUR)
        assert simulator.server_up[2] is False
        assert 2 not in simulator.available_server_positions()
        simulator.strategy.on_server_up(2, now=2 * HOUR)
        assert all(simulator.server_up)

    def test_crash_creates_store_and_fetches_lost_views(self, simulator):
        simulator.prepare()
        assert simulator.persistent_store is None
        record = simulator.crash_server(0, now=HOUR)
        if record.views_from_disk:
            assert simulator.persistent_store is not None

    def test_hooks_fire(self, tree_topology, small_graph, small_log):
        simulator = ClusterSimulator(
            tree_topology,
            small_graph.copy(),
            StaticPlacementStrategy("random", seed=1),
            SimulationConfig(extra_memory_pct=0.0, seed=1),
        )
        ticks: list[float] = []
        simulator.add_pre_tick_hook(ticks.append)
        simulator.run(small_log)
        assert ticks, "pre-tick hooks must fire"

    def test_writes_are_mirrored_into_the_store(self, tree_topology, small_graph, small_log):
        store = PersistentStore()
        simulator = ClusterSimulator(
            tree_topology,
            small_graph.copy(),
            StaticPlacementStrategy("random", seed=1),
            SimulationConfig(extra_memory_pct=0.0, seed=1),
            persistent_store=store,
        )
        result = simulator.run(small_log)
        writers = {user for kind, _, user, _ in small_log.rows() if kind == KIND_WRITE}
        assert result.writes_executed == small_log.stats().writes
        assert all(store.current_version(user) > 0 for user in writers)
        store.verify_integrity()


class TestCrashRecoveryRoundTrip:
    """The acceptance property: mid-run crash, full recovery, budget kept."""

    @pytest.mark.parametrize(
        "strategy_factory, count, graceful",
        [
            pytest.param(factory, count, graceful, id=name + suffix)
            for count, graceful, suffix in (
                (2, False, ""),
                # One rack's worth of the small tree (3 servers) down at once.
                (3, False, "-count3"),
                (2, True, "-graceful"),
            )
            for name, factory in (
                ("dynasore", lambda: DynaSoRe(initializer="hmetis", seed=11)),
                ("random", lambda: StaticPlacementStrategy("random", seed=11)),
                ("spar", lambda: SparPlacement(seed=11)),
            )
        ],
    )
    def test_crash_recovery_round_trip(
        self, tree_topology, small_graph, small_log, strategy_factory, count, graceful
    ):
        graph = small_graph.copy()
        simulator = ClusterSimulator(
            tree_topology,
            graph,
            strategy_factory(),
            SimulationConfig(extra_memory_pct=100.0, seed=11),
            scenario=crash_scenario(small_log, count=count, graceful=graceful),
        )
        result = simulator.run(small_log)

        downs = [r for r in result.fault_records if r.kind == ("drain" if graceful else "crash")]
        restores = [r for r in result.fault_records if r.kind == "restore"]
        assert len(downs) == count and len(restores) == count
        # Every view survived: nothing permanently lost ...
        assert result.unavailable_views == 0
        locations = simulator.strategy.replica_locations()
        assert all(devices for devices in locations.values())
        # ... every server is back in service ...
        assert all(simulator.server_up)
        # ... and memory ended within budget.
        assert result.memory_in_use <= simulator.budget.total_capacity
        # The WAL store is consistent with what was written during the run
        # (drains alone never create one).
        if not graceful:
            simulator.persistent_store.verify_integrity()

    def test_graceful_drain_never_touches_the_disk(
        self, tree_topology, small_graph, small_log
    ):
        simulator = ClusterSimulator(
            tree_topology,
            small_graph.copy(),
            DynaSoRe(initializer="random", seed=11),
            SimulationConfig(extra_memory_pct=100.0, seed=11),
            scenario=crash_scenario(small_log, count=2, graceful=True),
        )
        result = simulator.run(small_log)
        drains = [r for r in result.fault_records if r.kind == "drain"]
        assert len(drains) == 2
        assert all(r.views_from_disk == 0 for r in drains)
        assert result.unavailable_views == 0

    def test_dynasore_recovers_replicated_views_from_memory(
        self, tree_topology, small_graph, small_log
    ):
        """With generous memory DynaSoRe replicates, so part of a crashed
        server's content recovers without the persistent store."""
        simulator = ClusterSimulator(
            tree_topology,
            small_graph.copy(),
            DynaSoRe(initializer="hmetis", seed=11),
            SimulationConfig(extra_memory_pct=100.0, seed=11),
            scenario=crash_scenario(small_log, count=1),
        )
        result = simulator.run(small_log)
        (crash,) = [r for r in result.fault_records if r.kind == "crash"]
        assert crash.views_from_memory > 0
        assert result.unavailable_views == 0

class TestStrategyEvacuation:
    """Direct unit coverage of the per-strategy fault handlers."""

    def _bound(self, strategy, tree_topology, small_graph):
        from repro.store.memory import MemoryBudget
        from repro.traffic.accounting import TrafficAccountant

        accountant = TrafficAccountant(tree_topology)
        budget = MemoryBudget(
            views=small_graph.num_users,
            extra_memory_pct=100.0,
            servers=len(tree_topology.servers),
        )
        strategy.bind(tree_topology, small_graph, accountant, budget)
        return strategy

    def test_static_reassigns_off_the_crashed_server(self, tree_topology, small_graph):
        strategy = self._bound(
            StaticPlacementStrategy("random", seed=5), tree_topology, small_graph
        )
        plan = strategy.on_server_down(0, now=HOUR)
        assert plan.total_views > 0
        assert not plan.recoverable_from_memory  # single replica -> disk only
        assignment = strategy.assignment()
        assert 0 not in assignment.values()
        # Lazy placement for new users also avoids the down server.
        strategy.on_server_up(0, now=2 * HOUR)
        with pytest.raises(SimulationError):
            strategy.on_server_up(0, now=3 * HOUR)

    def test_spar_promotes_surviving_replicas(self, tree_topology, small_graph):
        strategy = self._bound(SparPlacement(seed=5), tree_topology, small_graph)
        plan = strategy.on_server_down(1, now=HOUR)
        locations = strategy.replica_locations()
        crashed_device = strategy.device_of_position(1)
        assert all(crashed_device not in devices for devices in locations.values())
        assert all(devices for devices in locations.values())
        # SPAR co-locates aggressively, so some masters had survivors.
        assert plan.recoverable_from_memory

    def test_dynasore_down_then_up_restores_capacity(self, tree_topology, small_graph):
        strategy = self._bound(
            DynaSoRe(initializer="random", seed=5), tree_topology, small_graph
        )
        capacity_before = strategy.memory_capacity()
        strategy.on_server_down(2, now=HOUR)
        assert strategy.tables.capacity_of(2) == 0
        assert strategy.memory_capacity() < capacity_before
        assert not strategy.position_available(2)
        locations = strategy.replica_locations()
        crashed_device = strategy.device_of_position(2)
        assert all(crashed_device not in devices for devices in locations.values())
        strategy.on_server_up(2, now=2 * HOUR)
        assert strategy.memory_capacity() == capacity_before
        assert strategy.position_available(2)

    @pytest.mark.parametrize("key", STRATEGY_KEYS)
    def test_faults_are_refused_before_deployment(self, key):
        """A strategy that was never bound refuses a crash and a restore
        (and DynaSoRe both of its ticks) instead of indexing an empty table."""
        strategy = build_strategy(key, 5)
        with pytest.raises(SimulationError, match="not been deployed"):
            strategy.on_server_down(0, now=HOUR)
        with pytest.raises(SimulationError, match="not been deployed"):
            strategy.on_server_up(0, now=HOUR)
        if isinstance(strategy, DynaSoRe):
            for tick in (strategy.on_tick, strategy._on_tick_reference):
                with pytest.raises(SimulationError, match="not been deployed"):
                    tick(HOUR)

    @pytest.mark.parametrize("key", STRATEGY_KEYS)
    def test_requests_are_refused_before_deployment(self, key):
        """A strategy that was never bound refuses every request entry
        point with the deployment guard's error, not a placement failure."""
        strategy = build_strategy(key, 5)
        kinds = bytes([KIND_READ, KIND_WRITE])
        calls = (
            lambda: strategy.execute_read(1, HOUR),
            lambda: strategy.execute_write(1, HOUR),
            lambda: strategy.execute_request_batch(kinds, [1, 2], [HOUR, HOUR]),
            lambda: strategy.execute_read_batch([1], [HOUR]),
        )
        for call in calls:
            with pytest.raises(SimulationError, match="not been deployed"):
                call()
        assert strategy.total_replicas() == 0

    @pytest.mark.parametrize("key", STRATEGY_KEYS)
    def test_restoring_a_position_outside_the_cluster_is_refused(
        self, key, tree_topology, small_graph
    ):
        strategy = self._bound(build_strategy(key, 5), tree_topology, small_graph)
        with pytest.raises(SimulationError, match="invalid server position"):
            strategy.on_server_up(-1, now=HOUR)

    @pytest.mark.parametrize("position", [-1, 12])
    def test_dynasore_rejects_positions_outside_the_table(
        self, tree_topology, small_graph, position
    ):
        strategy = self._bound(
            DynaSoRe(initializer="random", seed=5), tree_topology, small_graph
        )
        assert strategy.tables.num_positions == len(tree_topology.servers) == 12
        with pytest.raises(SimulationError, match="invalid server position"):
            strategy.on_server_down(position, now=HOUR)
        assert strategy.counters.servers_lost == 0

    def test_base_strategy_refuses_faults(self, tree_topology, small_graph):
        from repro.baselines.base import PlacementStrategy

        class Stub(PlacementStrategy):
            def build_initial_placement(self):  # pragma: no cover - unused
                pass

            def execute_read(self, user, now, targets=None):  # pragma: no cover
                pass

            def execute_write(self, user, now):  # pragma: no cover - unused
                pass

        stub = Stub()
        with pytest.raises(SimulationError):
            stub.on_server_down(0, now=0.0)
        with pytest.raises(SimulationError):
            stub.on_server_up(0, now=0.0)


class TestNormalisationGuard:
    def test_zero_traffic_baseline_raises(self, tree_topology, small_graph):
        """A Random baseline that recorded nothing must fail loudly, not
        silently normalise everything to zero."""
        results = {
            label: ClusterSimulator(
                tree_topology,
                small_graph.copy(),
                strategy,
                SimulationConfig(extra_memory_pct=0.0, seed=1),
            ).run(EventStream.empty())
            for label, strategy in (
                ("random", StaticPlacementStrategy("random", seed=1)),
                ("spar", SparPlacement(seed=1)),
            )
        }
        with pytest.raises(SimulationError, match="no top-switch traffic"):
            normalise_results(results)

    def test_missing_baseline_raises(self):
        with pytest.raises(SimulationError, match="not among the results"):
            normalise_results({}, baseline_label="random")


SINGLE_SERVER = TopologySpec.tree(ClusterSpec(1, 1, 2, 1))
TWITTER_100 = GraphSpec(dataset="twitter", users=100, seed=3)


class TestDegenerateRuns:
    """A cluster of one server, and a workload of no events, run through
    every strategy like any other."""

    @pytest.mark.parametrize("strategy", STRATEGY_KEYS)
    def test_single_server_replays_a_day(self, strategy):
        spec = RunSpec(
            topology=SINGLE_SERVER,
            graph=TWITTER_100,
            workload=WorkloadSpec(kind="synthetic", days=1.0, seed=11),
            strategy=strategy,
            config=SimulationConfig(extra_memory_pct=50.0, seed=5),
        )
        assert len(SINGLE_SERVER.build().servers) == 1
        result = execute_spec(spec)
        assert result.requests_executed > 0
        assert result.unavailable_views == 0

    @pytest.mark.parametrize("strategy", STRATEGY_KEYS)
    def test_single_server_crash_is_refused_before_any_request(self, strategy):
        topology = SINGLE_SERVER.build()
        graph = TWITTER_100.build()
        stream, _ = WorkloadSpec(kind="synthetic", days=1.0, seed=11).build_stream(graph)
        placement = build_strategy(strategy, 5)
        batches = []
        placement.execute_request_batch = lambda *args: batches.append(args)
        simulator = ClusterSimulator(
            topology,
            graph,
            placement,
            SimulationConfig(extra_memory_pct=50.0, seed=5),
            scenario=CrashRecoverScenario(crash_time=HOUR, count=1),
        )
        with pytest.raises(SimulationError, match="at least one must survive"):
            simulator.run(stream)
        assert batches == []

    @pytest.mark.parametrize("scenario", [None, "crash_recover", "diurnal_load"])
    @pytest.mark.parametrize("strategy", STRATEGY_KEYS)
    def test_empty_trace_file_runs_to_an_empty_result(self, tmp_path, strategy, scenario):
        path = tmp_path / "empty.trace"
        assert write_trace(path, EventStream.empty()) == 0
        scenarios = {
            None: None,
            "crash_recover": ScenarioSpec.of(
                "crash_recover", crash_time=HOUR, recover_time=2 * HOUR, count=1
            ),
            "diurnal_load": ScenarioSpec.of("diurnal_load"),
        }
        result = execute_spec(
            RunSpec(
                topology=TopologySpec.tree(ClusterSpec(2, 2, 4, 1)),
                graph=GraphSpec(dataset="facebook", users=120, seed=3),
                workload=WorkloadSpec.from_file(path),
                strategy=strategy,
                config=SimulationConfig(extra_memory_pct=50.0, seed=5),
                scenario=scenarios[scenario],
            )
        )
        assert result.requests_executed == 0
        assert result.duration == 0.0
        assert result.unavailable_views == 0
        # Faults past the end of the workload still happen (``_finish``).
        expected = ["crash", "restore"] if scenario == "crash_recover" else []
        assert [record.kind for record in result.fault_records] == expected
