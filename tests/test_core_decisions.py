"""Tests for Algorithm 2 (replica creation), Algorithm 3 (migration) and the
proxy-placement optimisation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterSpec
from repro.core.migration import MigrationAction, evaluate_replica_migration
from repro.core.proxies import ProxyDirectory, optimal_proxy_broker
from repro.core.replication import evaluate_replica_creation
from repro.store.stats import AccessStatistics
from repro.topology.flat import FlatTopology
from repro.topology.tree import TreeTopology


@pytest.fixture
def layout(tree_topology: TreeTopology):
    inter_a, inter_b = tree_topology.intermediate_switches[:2]
    rack_a = tree_topology.racks_under_intermediate(inter_a)[0]
    rack_b = tree_topology.racks_under_intermediate(inter_b)[0]
    return {
        "inter_a": inter_a,
        "inter_b": inter_b,
        "rack_a": rack_a,
        "rack_b": rack_b,
        "server_a": tree_topology.servers_in_rack(rack_a)[0],
        "server_b": tree_topology.servers_in_rack(rack_b)[0],
        "broker_a": tree_topology.broker_for_rack(rack_a),
        "broker_b": tree_topology.broker_for_rack(rack_b),
    }


def make_helpers(tree_topology: TreeTopology, target_server: int, threshold: float = 0.0):
    """Bundle of the callables the decision functions expect."""
    position_by_device = {s.index: i for i, s in enumerate(tree_topology.servers)}
    device_by_position = {i: s.index for i, s in enumerate(tree_topology.servers)}

    def least_loaded(origin: int, user: int):
        servers = [s for s in tree_topology.servers_under(origin)]
        if not servers:
            return None
        # Prefer the designated target server when it sits under the origin.
        if target_server in servers:
            return position_by_device[target_server]
        return position_by_device[servers[0]]

    def admission_threshold(origin: int) -> float:
        return threshold

    def device_of(position: int) -> int:
        return device_by_position[position]

    return least_loaded, admission_threshold, device_of, position_by_device


class TestReplicaCreation:
    def test_remote_readers_trigger_replication(self, tree_topology, layout):
        stats = AccessStatistics()
        for i in range(20):
            stats.record_read(layout["inter_b"], float(i))
        least_loaded, threshold, device_of, positions = make_helpers(
            tree_topology, layout["server_b"]
        )
        decision = evaluate_replica_creation(
            tree_topology,
            1,
            stats.reads_by_origin(),
            stats.total_writes(),
            layout["server_a"],
            layout["broker_a"],
            least_loaded,
            threshold,
            device_of,
        )
        assert decision.should_replicate
        assert device_of(decision.target_position) == layout["server_b"]
        assert decision.profit > 0

    def test_local_readers_do_not_trigger_replication(self, tree_topology, layout):
        stats = AccessStatistics()
        for i in range(20):
            stats.record_read(layout["rack_a"], float(i))
        least_loaded, threshold, device_of, _ = make_helpers(tree_topology, layout["server_b"])
        decision = evaluate_replica_creation(
            tree_topology,
            1,
            stats.reads_by_origin(),
            stats.total_writes(),
            layout["server_a"],
            layout["broker_a"],
            least_loaded,
            threshold,
            device_of,
        )
        assert not decision.should_replicate

    def test_admission_threshold_blocks_marginal_replica(self, tree_topology, layout):
        stats = AccessStatistics()
        for i in range(3):
            stats.record_read(layout["inter_b"], float(i))
        least_loaded, threshold, device_of, _ = make_helpers(
            tree_topology, layout["server_b"], threshold=100.0
        )
        decision = evaluate_replica_creation(
            tree_topology,
            1,
            stats.reads_by_origin(),
            stats.total_writes(),
            layout["server_a"],
            layout["broker_a"],
            least_loaded,
            threshold,
            device_of,
        )
        assert not decision.should_replicate

    def test_heavy_writes_block_replication(self, tree_topology, layout):
        stats = AccessStatistics()
        for i in range(4):
            stats.record_read(layout["inter_b"], float(i))
        for i in range(10):
            stats.record_write(float(i))
        least_loaded, threshold, device_of, _ = make_helpers(tree_topology, layout["server_b"])
        decision = evaluate_replica_creation(
            tree_topology,
            1,
            stats.reads_by_origin(),
            stats.total_writes(),
            layout["server_a"],
            layout["broker_a"],
            least_loaded,
            threshold,
            device_of,
        )
        assert not decision.should_replicate

    def test_no_candidate_when_no_free_server(self, tree_topology, layout):
        stats = AccessStatistics()
        for i in range(20):
            stats.record_read(layout["inter_b"], float(i))

        def no_server(origin: int, user: int):
            return None

        decision = evaluate_replica_creation(
            tree_topology,
            1,
            stats.reads_by_origin(),
            stats.total_writes(),
            layout["server_a"],
            layout["broker_a"],
            no_server,
            lambda origin: 0.0,
            lambda position: layout["server_a"],
        )
        assert not decision.should_replicate


class TestReplicaMigration:
    def test_migrates_toward_dominant_readers(self, tree_topology, layout):
        stats = AccessStatistics()
        for i in range(30):
            stats.record_read(layout["inter_b"], float(i))
        least_loaded, threshold, device_of, _ = make_helpers(tree_topology, layout["server_b"])
        decision = evaluate_replica_migration(
            tree_topology,
            1,
            stats.reads_by_origin(),
            stats.total_writes(),
            layout["server_a"],
            None,  # sole replica
            layout["broker_a"],
            least_loaded,
            threshold,
            device_of,
        )
        assert decision.action is MigrationAction.MOVE
        assert device_of(decision.target_position) == layout["server_b"]

    def test_stays_when_readers_are_local(self, tree_topology, layout):
        stats = AccessStatistics()
        for i in range(30):
            stats.record_read(layout["rack_a"], float(i))
        least_loaded, threshold, device_of, _ = make_helpers(tree_topology, layout["server_b"])
        decision = evaluate_replica_migration(
            tree_topology,
            1,
            stats.reads_by_origin(),
            stats.total_writes(),
            layout["server_a"],
            None,
            layout["broker_a"],
            least_loaded,
            threshold,
            device_of,
        )
        assert decision.action is MigrationAction.STAY

    def test_useless_secondary_replica_is_removed(self, tree_topology, layout):
        stats = AccessStatistics()
        for i in range(5):
            stats.record_write(float(i))  # only writes, no reads
        least_loaded, threshold, device_of, _ = make_helpers(tree_topology, layout["server_b"])
        decision = evaluate_replica_migration(
            tree_topology,
            1,
            stats.reads_by_origin(),
            stats.total_writes(),
            layout["server_a"],
            layout["server_b"],
            layout["broker_a"],
            least_loaded,
            threshold,
            device_of,
        )
        assert decision.action is MigrationAction.REMOVE

    def test_sole_replica_is_never_removed(self, tree_topology, layout):
        stats = AccessStatistics()
        for i in range(5):
            stats.record_write(float(i))
        least_loaded, threshold, device_of, _ = make_helpers(tree_topology, layout["server_b"])
        decision = evaluate_replica_migration(
            tree_topology,
            1,
            stats.reads_by_origin(),
            stats.total_writes(),
            layout["server_a"],
            None,
            layout["broker_a"],
            least_loaded,
            threshold,
            device_of,
        )
        assert decision.action is not MigrationAction.REMOVE


_ELISION_TOPOLOGY = TreeTopology(
    ClusterSpec(
        intermediate_switches=2,
        racks_per_intermediate=2,
        machines_per_rack=4,
        brokers_per_rack=1,
    )
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_declined_creation_on_a_sole_replica_implies_stay(data):
    """The fused batch kernel returns right after a declined Algorithm 2 on
    a sole replica; this is the reference-path statement of why it may:
    with thresholds >= 0, Algorithm 3 can only answer "stay" there."""
    topology = _ELISION_TOPOLOGY
    servers = [server.index for server in topology.servers]
    replica_device = data.draw(st.sampled_from(servers), label="replica device")
    others = [device for device in servers if device != replica_device]
    stats = AccessStatistics()
    reads = data.draw(
        st.dictionaries(
            st.sampled_from(topology.origin_regions(replica_device)),
            st.integers(1, 40),
            min_size=1,
        ),
        label="reads by origin",
    )
    for origin, count in reads.items():
        stats.record_read(origin, 1.0, amount=float(count))
    writes = data.draw(st.integers(0, 40), label="writes")
    if writes:
        stats.record_write(1.0, amount=float(writes))
    write_broker = data.draw(
        st.sampled_from([broker.index for broker in topology.brokers]),
        label="write broker",
    )
    candidates = [
        (origin, servers.index(device), device)
        for origin in reads
        for device in data.draw(
            st.lists(st.sampled_from(others), max_size=2), label=f"targets {origin}"
        )
    ]
    thresholds = {
        origin: data.draw(
            st.one_of(st.just(0.0), st.floats(0.0, 60.0), st.just(float("inf"))),
            label=f"threshold {origin}",
        )
        for origin in reads
    }
    helpers = (None, thresholds.__getitem__, servers.__getitem__)

    origins = stats.reads_by_origin()
    creation = evaluate_replica_creation(
        topology, 1, origins, stats.total_writes(), replica_device, write_broker,
        *helpers, candidates=candidates,
    )
    if creation.should_replicate:
        return
    migration = evaluate_replica_migration(
        topology, 1, origins, stats.total_writes(), replica_device, None, write_broker,
        *helpers, candidates=candidates,
    )
    assert migration.action is MigrationAction.STAY


class TestProxyPlacement:
    def test_tree_proxy_moves_to_heaviest_branch(self, tree_topology, layout):
        transfers = {layout["server_b"]: 10.0, layout["server_a"]: 2.0}
        best = optimal_proxy_broker(tree_topology, transfers, default=layout["broker_a"])
        assert best == layout["broker_b"]

    def test_tree_proxy_stays_with_local_majority(self, tree_topology, layout):
        transfers = {layout["server_a"]: 10.0, layout["server_b"]: 2.0}
        best = optimal_proxy_broker(tree_topology, transfers, default=layout["broker_b"])
        assert best == layout["broker_a"]

    def test_empty_transfers_keep_default(self, tree_topology, layout):
        assert (
            optimal_proxy_broker(tree_topology, {}, default=layout["broker_a"])
            == layout["broker_a"]
        )

    def test_flat_proxy_is_heaviest_machine(self):
        topology = FlatTopology()
        machines = [m.index for m in topology.servers[:3]]
        transfers = {machines[0]: 1.0, machines[1]: 5.0, machines[2]: 2.0}
        assert optimal_proxy_broker(topology, transfers, default=machines[0]) == machines[1]

    def test_proxy_directory(self):
        directory = ProxyDirectory()
        directory.place_both(7, broker=3)
        assert directory.read_broker(7) == 3
        assert directory.write_broker(7) == 3
        assert directory.read_broker(8) is None
        assert directory.users() == (7,)
