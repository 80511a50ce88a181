"""Tests for Algorithm 1 (utility / profit estimation) and the routing layer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_dynasore_engine import bind_dynasore

from repro.config import ClusterSpec, FlatClusterSpec
from repro.core.routing import RoutingService
from repro.core.utility import estimate_profit
from repro.exceptions import RoutingError
from repro.socialgraph.graph import SocialGraph
from repro.store.stats import AccessStatistics
from repro.store.tables import NO_SLOT
from repro.topology.flat import FlatTopology
from repro.topology.tree import TreeTopology
from repro.traffic.messages import MessageKind


@pytest.fixture
def layout(tree_topology: TreeTopology):
    """Convenient handles on two racks in different intermediate sub-trees."""
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


class TestEstimateProfit:
    def test_replicating_near_remote_readers_is_profitable(self, tree_topology, layout):
        stats = AccessStatistics()
        # 10 reads from intermediate B recorded at the replica in sub-tree A.
        for i in range(10):
            stats.record_read(layout["inter_b"], float(i))
        profit = estimate_profit(
            tree_topology,
            stats.reads_by_origin().items(),
            stats.total_writes(),
            candidate_server=layout["server_b"],
            reference_server=layout["server_a"],
            write_broker=layout["broker_a"],
        )
        # Reads drop from cost 5 to cost 3 → 10 * 2 = 20 saved, no writes.
        assert profit == pytest.approx(20.0)

    def test_write_cost_reduces_profit(self, tree_topology, layout):
        stats = AccessStatistics()
        for i in range(10):
            stats.record_read(layout["inter_b"], float(i))
        for i in range(2):
            stats.record_write(float(i))
        profit = estimate_profit(
            tree_topology,
            stats.reads_by_origin().items(),
            stats.total_writes(),
            candidate_server=layout["server_b"],
            reference_server=layout["server_a"],
            write_broker=layout["broker_a"],
        )
        # 20 read gain minus 2 writes * distance 5.
        assert profit == pytest.approx(10.0)

    def test_reads_never_become_more_expensive(self, tree_topology, layout):
        """Reads from origins closer to the reference replica are unaffected
        by a new replica (the routing policy keeps serving them locally)."""
        stats = AccessStatistics()
        for i in range(10):
            stats.record_read(layout["rack_a"], float(i))  # local reads in A
        profit = estimate_profit(
            tree_topology,
            stats.reads_by_origin().items(),
            stats.total_writes(),
            candidate_server=layout["server_b"],
            reference_server=layout["server_a"],
            write_broker=None,
        )
        assert profit == pytest.approx(0.0)

    def test_profit_of_useless_replica_is_write_cost(self, tree_topology, layout):
        stats = AccessStatistics()
        stats.record_write(0.0)
        profit = estimate_profit(
            tree_topology,
            stats.reads_by_origin().items(),
            stats.total_writes(),
            candidate_server=layout["server_b"],
            reference_server=layout["server_a"],
            write_broker=layout["broker_a"],
        )
        assert profit == pytest.approx(-5.0)

    def test_no_write_broker_means_no_write_cost(self, tree_topology, layout):
        stats = AccessStatistics()
        stats.record_write(0.0)
        profit = estimate_profit(
            tree_topology,
            stats.reads_by_origin().items(),
            stats.total_writes(),
            candidate_server=layout["server_b"],
            reference_server=layout["server_a"],
            write_broker=None,
        )
        assert profit == pytest.approx(0.0)

    def test_utility_of_existing_replica(self, tree_topology, layout):
        """An existing replica is priced against its next-closest sibling."""
        stats = AccessStatistics()
        for i in range(4):
            stats.record_read(layout["rack_a"], float(i))
        utility = estimate_profit(
            tree_topology,
            stats.reads_by_origin().items(),
            stats.total_writes(),
            candidate_server=layout["server_a"],
            reference_server=layout["server_b"],
            write_broker=layout["broker_a"],
        )
        # Losing the local replica would push 4 reads from cost 1 to cost 5.
        assert utility == pytest.approx(16.0)

    def test_pricing_a_server_against_itself_saves_nothing(self, tree_topology, layout):
        stats = AccessStatistics()
        stats.record_read(layout["rack_a"], 0.0)
        utility = estimate_profit(
            tree_topology,
            stats.reads_by_origin().items(),
            stats.total_writes(),
            candidate_server=layout["server_a"],
            reference_server=layout["server_a"],
            write_broker=layout["broker_a"],
        )
        assert utility <= 0.0  # no alternative replica → no measurable gain


class TestRoutingService:
    def test_closest_replica_prefers_same_rack(self, tree_topology, layout):
        routing = RoutingService(tree_topology)
        same_rack_server = tree_topology.servers_in_rack(layout["rack_a"])[1]
        chosen = routing.closest_replica(
            layout["broker_a"], {layout["server_b"], same_rack_server}
        )
        assert chosen == same_rack_server

    def test_closest_replica_breaks_ties_by_index(self, tree_topology, layout):
        routing = RoutingService(tree_topology)
        servers = tree_topology.servers_in_rack(layout["rack_a"])[:2]
        chosen = routing.closest_replica(layout["broker_a"], set(servers))
        assert chosen == min(servers)

    def test_empty_replica_set_raises(self, tree_topology):
        routing = RoutingService(tree_topology)
        with pytest.raises(RoutingError):
            routing.closest_replica(tree_topology.brokers[0].index, set())

    def test_affected_brokers_on_new_replica(self, tree_topology, layout):
        routing = RoutingService(tree_topology)
        before = {layout["server_a"]}
        after = {layout["server_a"], layout["server_b"]}
        affected = routing.affected_brokers(before, after)
        # Brokers in sub-tree B now route to the new local replica.
        assert layout["broker_b"] in affected
        assert layout["broker_a"] not in affected

    def test_next_closest(self, tree_topology, layout):
        routing = RoutingService(tree_topology)
        devices = {layout["server_a"], layout["server_b"]}
        assert routing.next_closest(layout["server_a"], devices) == layout["server_b"]
        assert routing.next_closest(layout["server_a"], {layout["server_a"]}) is None

    def test_preferring_brokers_needs_a_sibling(self, tree_topology, layout):
        """The mask fold starts from "every broker": with no other replica it
        must fail loudly, never notify the whole cluster."""
        routing = RoutingService(tree_topology)
        with pytest.raises(RoutingError, match="no replica to route to"):
            routing.preferring_brokers(layout["server_a"], [])

    def test_non_leaf_devices_are_never_preferred(self, tree_topology, layout):
        routing = RoutingService(tree_topology)
        switch = layout["rack_a"]
        assert routing.preferring_brokers(switch, [layout["server_a"]]) == ()
        assert routing.preferring_brokers(layout["server_a"], [switch]) == ()


# ---------------------------------------------------------------------------
# One-walk placement changes against the routing reference
# ---------------------------------------------------------------------------
_PROPERTY_TOPOLOGIES = {
    "tree": TreeTopology(
        ClusterSpec(
            intermediate_switches=2,
            racks_per_intermediate=2,
            machines_per_rack=4,
            brokers_per_rack=1,
        )
    ),
    "flat": FlatTopology(FlatClusterSpec(machines=10)),
}
_VIEW = 0


def _deploy_single_view(topology):
    """A DynaSoRe deployment storing one view, with room for a replica of it
    on every server, and a log of the messages it records."""
    strategy, accountant = bind_dynasore(
        topology,
        SocialGraph([_VIEW]),
        extra_memory_pct=100.0 * len(topology.servers),
        initializer="random",
    )
    messages = []
    record = accountant.record

    def logging_record(source, destination, kind, timestamp):
        messages.append((source, destination, kind))
        return record(source, destination, kind, timestamp)

    accountant.record = logging_record
    return strategy, messages


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(_PROPERTY_TOPOLOGIES)), data=st.data())
def test_placement_changes_match_the_routing_reference(kind, data):
    """Random replica creations and removals of one view: the mask-derived
    routing fan-out, the copy source and the next-closest pointers the
    engine derives from its one chain walk equal the set-based reference
    resolutions of :class:`RoutingService`."""
    topology = _PROPERTY_TOPOLOGIES[kind]
    reference = RoutingService(topology)
    strategy, messages = _deploy_single_view(topology)
    table = strategy.tables
    write_broker = strategy.proxies.write_broker(_VIEW)
    positions = range(len(topology.servers))
    for _ in range(data.draw(st.integers(1, 8))):
        before = strategy.replica_locations()[_VIEW]
        position = data.draw(st.sampled_from(positions))
        device = strategy.device_of_position(position)
        messages.clear()
        if device in before:
            removed = strategy._remove_replica(_VIEW, position, now=0.0)
            assert removed == (len(before) > 1)
            if not removed:
                assert messages == []
                continue
        else:
            assert strategy._create_replica(_VIEW, position, now=0.0)
            (copy,) = [m for m in messages if m[2] is MessageKind.REPLICA_COPY]
            assert copy[:2] == (reference.closest_replica(device, before), device)
        after = strategy.replica_locations()[_VIEW]
        assert after == before ^ {device}
        affected = reference.affected_brokers(before, after)
        assert strategy.routing.preferring_brokers(device, sorted(before & after)) == affected
        assert [m[1] for m in messages if m[2] is MessageKind.ROUTING_UPDATE] == [
            broker for broker in affected if broker != write_broker
        ]
        for slot in table.user_slots(_VIEW):
            own = strategy.device_of_position(table.position_of(slot))
            next_closest = table._next_closest[slot]
            assert (None if next_closest == NO_SLOT else next_closest) == (
                reference.next_closest(own, after)
            )


def test_create_replica_of_a_view_without_replicas_fails_loudly(tree_topology):
    strategy, messages = _deploy_single_view(tree_topology)
    with pytest.raises(RoutingError, match="no replica to route to"):
        strategy._create_replica(user=99, target_position=0, now=0.0)
    assert not [m for m in messages if m[2] is MessageKind.ROUTING_UPDATE]
