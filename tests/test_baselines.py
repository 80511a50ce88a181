"""Tests for the baseline placement strategies (Random, METIS, hMETIS, SPAR)."""

from __future__ import annotations

from functools import cache

import pytest

import repro.core.engine
from repro.baselines import fit_assignment_to_capacity
from repro.baselines.base import StaticPlacementStrategy
from repro.baselines.placements import INITIAL_PLACEMENTS, random_assignment
from repro.baselines.spar import SparPlacement
from repro.config import ClusterSpec, ExperimentProfile, SimulationConfig
from repro.core.engine import DynaSoRe
from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments.common import (
    DATASETS,
    graph_spec,
    simulation_config,
    synthetic_workload_spec,
    topology_spec,
)
from repro.partitioning.quality import edge_cut
from repro.runtime.spec import STRATEGY_KEYS, build_strategy
from repro.simulator.engine import ClusterSimulator
from repro.socialgraph.generators import facebook_like, livejournal_like, twitter_like
from repro.store.memory import MemoryBudget
from repro.topology.tree import TreeTopology
from repro.traffic.accounting import TrafficAccountant
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator


def bind_strategy(strategy, topology, graph, extra_memory_pct=30.0):
    accountant = TrafficAccountant(topology)
    budget = MemoryBudget(
        views=graph.num_users, extra_memory_pct=extra_memory_pct, servers=len(topology.servers)
    )
    strategy.bind(topology, graph, accountant, budget)
    return accountant


class TestStaticBaselines:
    @pytest.mark.parametrize("initializer", ["random", "metis", "hmetis"])
    def test_every_user_gets_exactly_one_replica(
        self, initializer, tree_topology, small_graph
    ):
        strategy = StaticPlacementStrategy(initializer, seed=2)
        bind_strategy(strategy, tree_topology, small_graph)
        locations = strategy.replica_locations()
        assert set(locations) == set(small_graph.users)
        assert all(len(devices) == 1 for devices in locations.values())

    @pytest.mark.parametrize("initializer", ["random", "metis", "hmetis"])
    def test_placement_is_roughly_balanced(self, initializer, tree_topology, small_graph):
        strategy = StaticPlacementStrategy(initializer, seed=2)
        bind_strategy(strategy, tree_topology, small_graph)
        counts: dict[int, int] = {}
        for devices in strategy.replica_locations().values():
            for device in devices:
                counts[device] = counts.get(device, 0) + 1
        average = small_graph.num_users / len(tree_topology.servers)
        assert max(counts.values()) <= average * 1.6

    def test_metis_cut_beats_random(self, tree_topology, small_graph):
        random_strategy = StaticPlacementStrategy("random", seed=2)
        metis_strategy = StaticPlacementStrategy("metis", seed=2)
        bind_strategy(random_strategy, tree_topology, small_graph)
        bind_strategy(metis_strategy, tree_topology, small_graph)
        adjacency = small_graph.undirected_adjacency()
        assert edge_cut(adjacency, metis_strategy.assignment()) < edge_cut(
            adjacency, random_strategy.assignment()
        )

    def test_read_routes_to_target_views(self, tree_topology, tiny_graph):
        strategy = StaticPlacementStrategy("random", seed=2)
        accountant = bind_strategy(strategy, tree_topology, tiny_graph, extra_memory_pct=0.0)
        strategy.execute_read(0, now=0.0)
        # user 0 follows two users → 2 requests + 2 responses, each at most 5 switches.
        assert accountant.message_count == 4

    def test_write_touches_single_replica(self, tree_topology, tiny_graph):
        strategy = StaticPlacementStrategy("random", seed=2)
        accountant = bind_strategy(strategy, tree_topology, tiny_graph, extra_memory_pct=0.0)
        strategy.execute_write(0, now=0.0)
        assert accountant.message_count == 2  # update + ack

    def test_explicit_targets_override_graph(self, tree_topology, tiny_graph):
        strategy = StaticPlacementStrategy("random", seed=2)
        accountant = bind_strategy(strategy, tree_topology, tiny_graph, extra_memory_pct=0.0)
        strategy.execute_read(0, now=0.0, targets=(1,))
        assert accountant.message_count == 2

    def test_unknown_reader_is_ignored(self, tree_topology, tiny_graph):
        strategy = StaticPlacementStrategy("random", seed=2)
        accountant = bind_strategy(strategy, tree_topology, tiny_graph, extra_memory_pct=0.0)
        strategy.execute_read(999, now=0.0)
        assert accountant.message_count == 0

    def test_lazy_assignment_for_new_user(self, tree_topology, tiny_graph):
        strategy = StaticPlacementStrategy("random", seed=2)
        bind_strategy(strategy, tree_topology, tiny_graph, extra_memory_pct=0.0)
        tiny_graph.add_edge(42, 0)
        strategy.execute_write(42, now=0.0)
        assert strategy.replica_count(42) == 1

    def test_unbound_strategy_raises(self, tree_topology):
        strategy = StaticPlacementStrategy()
        with pytest.raises(SimulationError, match="not been deployed"):
            strategy.execute_write(0, now=0.0)

    @pytest.mark.parametrize("family", [StaticPlacementStrategy, DynaSoRe])
    @pytest.mark.parametrize("stray", [-1, "servers"])
    def test_assignment_outside_the_cluster_is_refused(
        self, tree_topology, tiny_graph, stray, family
    ):
        """A position outside ``0..servers-1`` is refused at build time by
        both families, not accepted until the first footprint indexes
        past the cluster."""
        position = len(tree_topology.servers) if stray == "servers" else stray

        def stray(graph, topology, seed):
            assignment = random_assignment(graph, topology, seed)
            assignment[next(iter(assignment))] = position
            return assignment

        last = len(tree_topology.servers) - 1
        with pytest.raises(
            SimulationError, match=rf"assignment uses position {position} outside 0\.\.{last}"
        ):
            bind_strategy(family(stray, seed=2), tree_topology, tiny_graph)

    @pytest.mark.parametrize("family", [StaticPlacementStrategy, DynaSoRe])
    def test_assignment_missing_a_user_is_refused(self, tree_topology, tiny_graph, family):
        """Every graph user must be placed: neither family fills a gap in
        the initializer's assignment on its own."""

        def partial(graph, topology, seed):
            assignment = random_assignment(graph, topology, seed)
            del assignment[next(iter(assignment))]
            return assignment

        with pytest.raises(SimulationError, match="assignment misses 1 users"):
            bind_strategy(family(partial, seed=2), tree_topology, tiny_graph)

    def test_proxy_broker_in_same_rack_as_view(self, tree_topology, small_graph):
        strategy = StaticPlacementStrategy("hmetis", seed=2)
        bind_strategy(strategy, tree_topology, small_graph)
        for user in list(small_graph.users)[:20]:
            view_device = next(iter(strategy.replica_locations()[user]))
            broker = strategy.proxy_broker(user)
            assert tree_topology.rack_of(broker) == tree_topology.rack_of(view_device)


def deployed(strategy) -> dict[int, tuple[int, ...]]:
    """``user -> positions`` of every replica in the strategy's table."""
    return {user: strategy.tables.user_positions(user) for user in strategy.tables.users()}


class TestInitialPlacementRegistry:
    """One name → partitioner map serves the static baselines and DynaSoRe."""

    @pytest.mark.parametrize("name", sorted(INITIAL_PLACEMENTS))
    def test_static_and_dynasore_deploy_the_registry_assignment(
        self, name, tree_topology, small_graph
    ):
        expected = {
            user: (position,)
            for user, position in INITIAL_PLACEMENTS[name](small_graph, tree_topology, 4).items()
        }
        static = build_strategy(name, 4)
        bind_strategy(static, tree_topology, small_graph)
        assert static.name == name
        assert deployed(static) == expected
        # With 30 % extra memory or more no server overflows, so both
        # families keep the partitioner's assignment as is.
        dynasore = build_strategy(f"dynasore_{name}", 4)
        bind_strategy(dynasore, tree_topology, small_graph, extra_memory_pct=100.0)
        assert dynasore.name == f"dynasore[{name}]"
        assert deployed(dynasore) == expected

    def test_strategy_keys_follow_the_registry(self):
        names = set(INITIAL_PLACEMENTS)
        assert set(STRATEGY_KEYS) == names | {"spar"} | {f"dynasore_{n}" for n in names}

    @pytest.mark.parametrize("key", ["random", "dynasore_random"])
    def test_the_name_is_resolved_at_construction(
        self, key, monkeypatch, tree_topology, small_graph
    ):
        """The registry entry in place when the strategy is built is the
        one it deploys, whatever the registry holds later."""
        seeds = []

        def traced(graph, topology, seed):
            seeds.append(seed)
            return random_assignment(graph, topology, seed)

        with monkeypatch.context() as patch:
            patch.setitem(INITIAL_PLACEMENTS, "random", traced)
            strategy = build_strategy(key, 4)
        bind_strategy(strategy, tree_topology, small_graph, extra_memory_pct=100.0)
        assert seeds == [4]

    def test_unknown_name_is_refused(self):
        with pytest.raises(ConfigurationError, match="unknown initial placement"):
            StaticPlacementStrategy("sorting-hat")
        with pytest.raises(ConfigurationError, match="unknown strategy key"):
            build_strategy("sorting-hat", 4)


class TestFitAssignment:
    def test_respects_capacity(self):
        assignment = {user: 0 for user in range(10)}
        fitted = fit_assignment_to_capacity(assignment, [4, 4, 4])
        counts = [list(fitted.values()).count(i) for i in range(3)]
        assert all(count <= 4 for count in counts)
        assert set(fitted) == set(assignment)

    def test_noop_when_already_fitting(self):
        """A fitting assignment comes back as it is, not as a copy."""
        assignment = {0: 0, 1: 1, 2: 2}
        assert fit_assignment_to_capacity(assignment, [1, 1, 1]) is assignment

    def test_raises_when_impossible(self):
        with pytest.raises(SimulationError):
            fit_assignment_to_capacity({0: 0, 1: 0, 2: 0}, [1, 1])

    def test_rejects_invalid_position(self):
        """A negative position is refused too, not charged to the last server."""
        for position in (5, -1):
            with pytest.raises(SimulationError, match=rf"position {position} outside 0\.\.1"):
                fit_assignment_to_capacity({0: position}, [1, 1])


@cache
def ci_cluster(dataset: str):
    """The ``ci`` profile's tree topology and one of its three graphs."""
    profile = ExperimentProfile.ci()
    return topology_spec(profile).build(), graph_spec(profile, dataset).build()


class TestOneCapacityRule:
    """Every strategy deploys a placement that fits the paper's budget
    (section 2.3): at 0 % extra memory the partitioners' imbalance must be
    fitted away, for the static baselines as for DynaSoRe."""

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("key", STRATEGY_KEYS)
    def test_no_server_exceeds_its_capacity(self, key, dataset):
        topology, graph = ci_cluster(dataset)
        for extra_memory_pct in (0.0, 30.0, 60.0, 150.0):
            strategy = build_strategy(key, 7)
            bind_strategy(strategy, topology, graph, extra_memory_pct)
            table = strategy.tables
            assert all(
                used <= capacity for used, capacity in zip(table.used, table.capacities)
            ), (key, dataset, extra_memory_pct)
            assert strategy.memory_in_use() >= graph.num_users

    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("initializer", sorted(INITIAL_PLACEMENTS))
    def test_dynasore_without_proxy_moves_records_the_static_traffic(
        self, initializer, dataset, monkeypatch
    ):
        """A relation, not a golden: at 0 % extra memory DynaSoRe has no
        free slot to replicate into, so with read-proxy moves shadowed it
        keeps the initial placement, and its request kernel must record
        exactly what the static kernel records on the same placement."""
        monkeypatch.setattr(
            repro.core.engine,
            "optimal_proxy_broker",
            lambda topology, transfers, default: default,
        )
        profile = ExperimentProfile.ci()
        topology, graph = ci_cluster(dataset)
        stream, _ = synthetic_workload_spec(profile).build_stream(graph)
        results = []
        for key in (initializer, f"dynasore_{initializer}"):
            strategy = build_strategy(key, profile.seed)
            simulator = ClusterSimulator(
                topology, graph.copy(), strategy, simulation_config(profile, 0.0)
            )
            result = simulator.run(stream)
            results.append((result.top_switch_traffic, result.snapshot.messages))
        assert results[0] == results[1]
        counters = strategy.counters
        assert (
            counters.replicas_created,
            counters.replicas_removed,
            counters.replicas_migrated,
            counters.read_proxy_migrations,
            counters.write_proxy_migrations,
        ) == (0, 0, 0, 0, 0)


class TestPaperPartitioningClaim:
    """Paper section 4.1: on the tree topology the hierarchical partitioning
    keeps friends that could not share a server under one sub-tree, so
    top-switch traffic orders hMETIS < METIS < Random.  This checks the
    partitioner's *quality* against the paper, not against an earlier
    commit (``tests/golden_partitions.json`` does that)."""

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("generator", [twitter_like, facebook_like, livejournal_like])
    def test_top_switch_traffic_orders_hmetis_metis_random(self, generator, seed):
        spec = ClusterSpec(
            intermediate_switches=4, racks_per_intermediate=2, machines_per_rack=4
        )
        graph = generator(users=800, seed=seed)
        log = SyntheticWorkloadGenerator(
            graph, SyntheticWorkloadConfig(days=0.5, seed=seed)
        ).stream()
        traffic = []
        for initializer in ("hmetis", "metis", "random"):
            simulator = ClusterSimulator(
                TreeTopology(spec),
                graph.copy(),
                StaticPlacementStrategy(initializer, seed=seed),
                SimulationConfig(extra_memory_pct=0.0, seed=seed),
            )
            traffic.append(simulator.run(log).top_switch_traffic)
        hmetis, metis, random_placement = traffic
        assert hmetis < metis < random_placement


class TestSpar:
    def test_every_user_has_a_master(self, tree_topology, small_graph):
        strategy = SparPlacement(seed=2)
        bind_strategy(strategy, tree_topology, small_graph, extra_memory_pct=50.0)
        locations = strategy.replica_locations()
        assert set(locations) == set(small_graph.users)
        assert all(devices for devices in locations.values())

    def test_respects_memory_budget(self, tree_topology, small_graph):
        strategy = SparPlacement(seed=2)
        bind_strategy(strategy, tree_topology, small_graph, extra_memory_pct=30.0)
        budget = MemoryBudget(
            views=small_graph.num_users,
            extra_memory_pct=30.0,
            servers=len(tree_topology.servers),
        )
        assert strategy.total_replicas() <= budget.total_capacity
        assert strategy.replication_factor() <= 1.3 + 1e-9

    def test_uses_extra_memory_for_replication(self, tree_topology, small_graph):
        strategy = SparPlacement(seed=2)
        bind_strategy(strategy, tree_topology, small_graph, extra_memory_pct=100.0)
        assert strategy.replication_factor() > 1.5

    def test_no_replication_without_extra_memory(self, tree_topology, small_graph):
        strategy = SparPlacement(seed=2)
        bind_strategy(strategy, tree_topology, small_graph, extra_memory_pct=0.0)
        assert strategy.replication_factor() == pytest.approx(1.0, abs=0.01)

    def test_constructor_seed_drives_the_edge_shuffle(self, tree_topology, small_graph):
        """SPAR's only seed is its constructor's: two seeds on one cluster
        and graph co-locate different copies under the same budget."""
        placements = []
        for seed in (2, 3):
            strategy = SparPlacement(seed=seed)
            bind_strategy(strategy, tree_topology, small_graph, extra_memory_pct=30.0)
            placements.append(strategy.replica_locations())
        assert placements[0] != placements[1]

    def test_writes_update_every_replica(self, tree_topology, small_graph):
        strategy = SparPlacement(seed=2)
        accountant = bind_strategy(strategy, tree_topology, small_graph, extra_memory_pct=100.0)
        # Find a user with several replicas.
        user = max(small_graph.users, key=strategy.replica_count)
        replicas = strategy.replica_count(user)
        assert replicas >= 2
        before = accountant.message_count
        strategy.execute_write(user, now=0.0)
        assert accountant.message_count - before == 2 * replicas

    def test_reads_prefer_local_replica(self, tree_topology, small_graph):
        """With abundant memory, most reads should be served from the reader's
        own rack, keeping top-switch traffic below the random baseline."""
        spar = SparPlacement(seed=2)
        random_strategy = StaticPlacementStrategy("random", seed=2)
        spar_accountant = bind_strategy(spar, tree_topology, small_graph, extra_memory_pct=200.0)
        random_accountant = bind_strategy(
            random_strategy, tree_topology, small_graph, extra_memory_pct=200.0
        )
        for user in list(small_graph.users)[:50]:
            spar.execute_read(user, now=0.0)
            random_strategy.execute_read(user, now=0.0)
        assert spar_accountant.top_switch_traffic() < random_accountant.top_switch_traffic()

    def test_new_edge_triggers_co_location(self, tree_topology, small_graph):
        strategy = SparPlacement(seed=2)
        bind_strategy(strategy, tree_topology, small_graph, extra_memory_pct=100.0)
        users = list(small_graph.users)
        follower, followee = users[0], users[-1]
        before = strategy.replica_count(followee)
        strategy.on_edge_added(follower, followee, now=0.0)
        master_device = next(iter(strategy.replica_locations()[follower]))
        assert master_device in strategy.replica_locations()[followee] or (
            strategy.replica_count(followee) == before
        )
