"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import estimate_profit
from repro.exceptions import WorkloadError
from repro.partitioning.kway import partition_kway
from repro.partitioning.quality import part_weights, validate_partition
from repro.socialgraph.graph import SocialGraph
from repro.store.counters import RotatingCounter
from repro.store.memory import MemoryBudget
from repro.store.stats import AccessStatistics
from repro.topology.flat import FlatTopology
from repro.topology.tree import TreeTopology
from repro.traffic.accounting import TrafficAccountant
from repro.traffic.messages import MessageKind
from repro.config import ClusterSpec, FlatClusterSpec
from repro.workload.stream import EventStream, KIND_READ, KIND_WRITE, NO_AUX, events_per_day


# --------------------------------------------------------------------------- counters
@given(
    events=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e6), st.integers(1, 5)), max_size=60
    )
)
@settings(max_examples=60, deadline=None)
def test_rotating_counter_total_never_exceeds_recorded(events):
    """The sliding-window total never exceeds the total amount recorded."""
    counter = RotatingCounter(slots=6, period=100.0)
    recorded = 0.0
    for timestamp, amount in sorted(events):
        counter.record(timestamp, amount)
        recorded += amount
        assert counter.total() <= recorded + 1e-9
        assert counter.total() >= 0.0


@given(
    timestamps=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=40)
)
@settings(max_examples=60, deadline=None)
def test_counter_window_only_keeps_recent_periods(timestamps):
    """After a long silence the window drains completely."""
    counter = RotatingCounter(slots=4, period=10.0)
    for timestamp in sorted(timestamps):
        counter.record(timestamp)
    counter.advance(max(timestamps) + 10.0 * 4 + 1.0)
    assert counter.is_empty()


# --------------------------------------------------------------------------- stats
@given(
    reads=st.lists(st.tuples(st.integers(0, 5), st.floats(0.0, 1000.0)), max_size=50),
    writes=st.lists(st.floats(0.0, 1000.0), max_size=20),
)
@settings(max_examples=50, deadline=None)
def test_access_statistics_totals_are_consistent(reads, writes):
    stats = AccessStatistics(slots=8, period=500.0)
    for origin, timestamp in sorted(reads, key=lambda item: item[1]):
        stats.record_read(origin, timestamp)
    for timestamp in sorted(writes):
        stats.record_write(timestamp)
    by_origin = stats.reads_by_origin()
    assert sum(by_origin.values()) == stats.total_reads()
    assert all(count > 0 for count in by_origin.values())
    assert stats.total_writes() <= len(writes)


# --------------------------------------------------------------------------- memory
@given(
    views=st.integers(1, 5000),
    extra=st.floats(0.0, 300.0),
    servers=st.integers(1, 64),
)
@settings(max_examples=80, deadline=None)
def test_memory_budget_split_is_exact_and_even(views, extra, servers):
    budget = MemoryBudget(views=views, extra_memory_pct=extra, servers=servers)
    capacities = budget.per_server_capacity()
    assert sum(capacities) == budget.total_capacity
    assert max(capacities) - min(capacities) <= 1
    assert budget.total_capacity >= views


# --------------------------------------------------------------------------- graph
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda e: e[0] != e[1]),
        max_size=150,
    )
)
@settings(max_examples=50, deadline=None)
def test_social_graph_degree_invariants(edges):
    graph = SocialGraph()
    for follower, followee in edges:
        graph.add_edge(follower, followee)
    assert graph.num_edges == sum(graph.out_degree(u) for u in graph.users)
    assert graph.num_edges == sum(graph.in_degree(u) for u in graph.users)
    for follower, followee in set(edges):
        assert graph.has_edge(follower, followee)


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 25), st.integers(0, 25)).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=120,
    ),
    parts=st.integers(2, 8),
    seed=st.integers(0, 100),
)
@settings(max_examples=30, deadline=None)
def test_partition_covers_every_node_and_respects_part_range(edges, parts, seed):
    graph = SocialGraph()
    for follower, followee in edges:
        graph.add_edge(follower, followee)
    adjacency = graph.undirected_adjacency()
    result = partition_kway(adjacency, parts=parts, seed=seed)
    validate_partition(result.assignment, set(adjacency), parts)
    weights = part_weights(result.assignment, parts)
    assert sum(weights) == len(adjacency)


# --------------------------------------------------------------------------- event stream
@given(
    items=st.lists(
        st.tuples(st.floats(0.0, 1e6), st.booleans(), st.integers(0, 50)), max_size=80
    )
)
@settings(max_examples=50, deadline=None)
def test_stream_counts_match_contents(items):
    rows = [
        (KIND_READ if is_read else KIND_WRITE, timestamp, user, NO_AUX)
        for timestamp, is_read, user in items
    ]
    ordered = sorted(rows, key=lambda row: row[1])
    if ordered != rows:
        with pytest.raises(WorkloadError):
            EventStream.from_rows(rows, chunk_size=16)
    stream = EventStream.from_rows(ordered, chunk_size=16)
    assert list(stream.rows()) == ordered
    stats = stream.stats()
    assert stats.reads + stats.writes == stats.events == len(items)
    assert stats.reads == sum(is_read for _, is_read, _ in items)
    per_day = events_per_day(stream)
    assert sum(d["reads"] for d in per_day.values()) == stats.reads
    assert sum(d["writes"] for d in per_day.values()) == stats.writes


# --------------------------------------------------------------------------- utility
_topology = TreeTopology(
    ClusterSpec(intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=4)
)


@given(
    read_counts=st.lists(st.integers(0, 20), min_size=1, max_size=5),
    writes=st.integers(0, 10),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_estimate_profit_bounded_by_read_volume(read_counts, writes, data):
    """Profit can never exceed the maximum possible read saving (4 switches
    per read) and is never below the negated write cost (5 per write)."""
    rng = random.Random(data.draw(st.integers(0, 1000)))
    server_a = _topology.servers[0].index
    server_b = _topology.servers[-1].index
    origins = _topology.origin_regions(server_a)
    stats = AccessStatistics()
    total_reads = 0
    for count in read_counts:
        origin = origins[rng.randrange(len(origins))]
        if count:
            stats.record_read(origin, 0.0, count)
            total_reads += count
    if writes:
        stats.record_write(0.0, writes)
    broker = _topology.brokers[0].index
    profit = estimate_profit(
        _topology, stats.reads_by_origin().items(), stats.total_writes(), server_b, server_a, broker
    )
    assert profit <= 4 * total_reads + 1e-9
    assert profit >= -5 * writes - 1e-9


_PRICING_TOPOLOGIES = {
    "tree": _topology,
    "flat": FlatTopology(FlatClusterSpec(machines=8)),
}


@given(kind=st.sampled_from(sorted(_PRICING_TOPOLOGIES)), data=st.data())
@settings(max_examples=150, deadline=None)
def test_estimate_profit_prices_pairs_and_items_alike(kind, data):
    """``estimate_profit`` returns the same float, bit for bit, whether its
    ``pairs`` come as a list of ``(origin, reads)`` (the tick's scratch
    list) or as a ``reads_by_origin()`` dict's items view (Algorithms 2
    and 3): zero writes, no write proxy and a candidate priced against
    itself included."""
    topology = _PRICING_TOPOLOGIES[kind]
    origins = topology.origin_labels()
    servers = [server.index for server in topology.servers]
    chosen = data.draw(st.lists(st.sampled_from(origins), unique=True, max_size=len(origins)))
    reads = st.one_of(
        st.integers(1, 10_000).map(float),
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    )
    pairs = [(origin, data.draw(reads)) for origin in chosen]
    writes = data.draw(st.sampled_from([0.0, 1.0, 7.0, 2.5e3]))
    write_broker = data.draw(
        st.one_of(st.none(), st.sampled_from([broker.index for broker in topology.brokers]))
    )
    reference = data.draw(st.sampled_from(servers))
    candidate = data.draw(st.one_of(st.just(reference), st.sampled_from(servers)))

    from_list = estimate_profit(topology, pairs, writes, candidate, reference, write_broker)
    assert estimate_profit(
        topology, dict(pairs).items(), writes, candidate, reference, write_broker
    ) == from_list


# ------------------------------------------------------------------ churn
# Invariants of partitioning/replication under node churn: across random
# join/leave sequences, every user keeps at least one master replica, no
# replica ever sits on a departed server, and the memory budget is never
# exceeded.

_churn_graph = None


def _get_churn_graph():
    global _churn_graph
    if _churn_graph is None:
        from repro.socialgraph.generators import dataset_preset, generate_social_graph

        spec = dataset_preset("facebook", users=90)
        _churn_graph = generate_social_graph(spec, seed=13)
    return _churn_graph


def _churn_engine(seed: int):
    from repro.core.engine import DynaSoRe

    graph = _get_churn_graph()
    strategy = DynaSoRe(initializer="random", seed=seed)
    budget = MemoryBudget(
        views=graph.num_users,
        extra_memory_pct=100.0,
        servers=len(_topology.servers),
    )
    strategy.bind(_topology, graph, TrafficAccountant(_topology), budget)
    return strategy, graph, budget


def _assert_churn_invariants(strategy, graph, budget, down):
    locations = strategy.replica_locations()
    down_devices = {strategy.device_of_position(p) for p in down}
    for user in graph.users:
        devices = locations.get(user)
        assert devices, f"user {user} lost every replica"
        assert not devices & down_devices, f"user {user} has a replica on a down server"
    assert strategy.memory_in_use() <= budget.total_capacity


@given(
    seed=st.integers(0, 10_000),
    steps=st.integers(4, 10),
)
@settings(max_examples=50, deadline=None)
def test_churn_preserves_replication_and_budget_invariants(seed, steps):
    """50 random join/leave sequences never lose a view or bust the budget."""
    strategy, graph, budget = _churn_engine(seed)
    rng = random.Random(seed)
    servers = len(_topology.servers)
    down: set[int] = set()
    now = 0.0
    users = list(graph.users)
    for _ in range(steps):
        rejoin = down and (len(down) >= 3 or rng.random() < 0.5)
        if rejoin:
            position = rng.choice(sorted(down))
            down.discard(position)
            strategy.on_server_up(position, now)
        else:
            candidates = [p for p in range(servers) if p not in down]
            position = rng.choice(candidates)
            down.add(position)
            strategy.on_server_down(position, now, graceful=rng.random() < 0.5)
        # Interleave traffic so replication keeps running during churn.
        for user in rng.sample(users, 5):
            strategy.execute_read(user, now)
        strategy.execute_write(rng.choice(users), now)
        strategy.on_tick(now)
        now += 3600.0
        _assert_churn_invariants(strategy, graph, budget, down)
    # Bring everyone back: the cluster ends at full strength and healthy.
    for position in sorted(down):
        strategy.on_server_up(position, now)
    strategy.on_tick(now)
    _assert_churn_invariants(strategy, graph, budget, set())


# ------------------------------------------------------------------- traffic deltas

_DELTA_TOPOLOGY = TreeTopology(
    ClusterSpec(
        intermediate_switches=2,
        racks_per_intermediate=2,
        machines_per_rack=2,
        brokers_per_rack=1,
    )
)
_DELTA_LEAVES = [device.index for device in _DELTA_TOPOLOGY.servers] + [
    device.index for device in _DELTA_TOPOLOGY.brokers
]


@given(
    events=st.lists(
        st.tuples(
            st.integers(0, len(_DELTA_LEAVES) - 1),  # source leaf slot
            st.integers(0, len(_DELTA_LEAVES) - 1),  # destination leaf slot
            st.floats(min_value=0.0, max_value=20000.0, allow_nan=False),
            st.integers(0, 7),  # owning shard (mod k)
            st.booleans(),  # roundtrip vs one-way system message
        ),
        max_size=60,
    ),
    shards=st.integers(1, 4),
    measure_from=st.sampled_from([0.0, 3600.0]),
)
@settings(max_examples=60, deadline=None)
def test_traffic_delta_merge_equals_unsplit(events, shards, measure_from):
    """merge(split(workload, k)) == unsplit, for any split of the events.

    The sharded replay engine's exactness hinges on this: distributing a
    workload's messages across k accountants (in any grouping) and summing
    their deltas must reproduce the single accountant bit-for-bit —
    snapshot, top-switch series and message count — including events inside
    the warm-up window (counted, never measured).
    """
    events = sorted(events, key=lambda event: event[2])

    def build() -> TrafficAccountant:
        return TrafficAccountant(
            _DELTA_TOPOLOGY, bucket_width=3600.0, measure_from=measure_from
        )

    def apply(accountant, source_slot, destination_slot, timestamp, roundtrip):
        source = _DELTA_LEAVES[source_slot]
        destination = _DELTA_LEAVES[destination_slot]
        if roundtrip:
            accountant.record_roundtrip(
                source,
                destination,
                MessageKind.READ_REQUEST,
                MessageKind.READ_RESPONSE,
                timestamp,
            )
        else:
            accountant.record(
                source, destination, MessageKind.REPLICA_CONTROL, timestamp
            )

    whole = build()
    parts = [build() for _ in range(shards)]
    for source_slot, destination_slot, timestamp, owner, roundtrip in events:
        apply(whole, source_slot, destination_slot, timestamp, roundtrip)
        apply(parts[owner % shards], source_slot, destination_slot, timestamp, roundtrip)

    merged = build()
    for part in parts:
        merged.merge_delta(part.export_delta())

    assert merged.snapshot() == whole.snapshot()
    assert merged.top_switch_series() == whole.top_switch_series()
    assert merged.message_count == whole.message_count
