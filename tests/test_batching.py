"""Batch-kernel vs per-event-kernel replay parity (the run dispatch layer).

The simulator's replay loop segments event streams into request runs and
hands every run, one event long or longer, to the strategy's
``execute_request_batch``.  Tracked views only add their sample instants to
the run boundaries.  The reference half of each comparison shadows that
method with the base-class loop over the per-event
``execute_read``/``execute_write`` methods
(:func:`parity.observe_per_event`).  The contract is that the fused kernels
and that loop are **byte-identical** — same :class:`SimulationResult`, same
:class:`TrafficSnapshot` — for every strategy, scenario and observation
mode.  This suite pins:

* the full strategy × scenario matrix, both halves also checked against
  committed golden digests and spied on, so they provably exercise
  different kernels;
* property tests over random interleavings of faults, maintenance ticks,
  tracked-view sampling and pre-tick hooks;
* the single loop's edges: views tracked mid-run, one-event runs, empty
  workloads, the partitioned-shard observer guard;
* unit coverage of the run segmentation helpers and of the batch kernels'
  fallback paths;
* the durability mirror: with a persistent store attached, the WAL holds the
  stream's write subsequence (per shard: the owned writes), every crash sees
  exactly the earlier writes, and writes do not fragment the runs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from parity import (
    SCENARIOS,
    canonical_result_bytes,
    golden_digest,
    observe_per_event,
    parity_cluster,
    parity_graph,
    parity_stream,
    spy_batch_calls,
    spy_scalar_calls,
)
from repro.baselines.base import PlacementStrategy
from repro.config import ClusterSpec, DynaSoReConfig, FlatClusterSpec, SimulationConfig
from repro.constants import HOUR, MINUTE
from repro.exceptions import SimulationError
from repro.persistence.backend import PersistentStore
from repro.runtime.spec import STRATEGY_KEYS, build_strategy
from repro.scenarios import CrashRecoverScenario
from repro.scenarios.base import CompositeScenario, Scenario
from repro.scenarios.events import NodeLeave, ServerCrash, ServerRecovery
from repro.simulator.engine import TRACKING_PERIOD, ClusterSimulator
from repro.simulator.shard import ShardFilter, _build_owner_map
from repro.topology.flat import FlatTopology
from repro.topology.tree import TreeTopology
from repro.workload.stream import (
    EventChunk,
    EventStream,
    KIND_EDGE_ADD,
    KIND_EDGE_REMOVE,
    KIND_READ,
    KIND_WRITE,
    request_run_end,
)


def _run_matrix(strategy_key: str, scenario_key: str, batch: bool):
    """One matrix cell; returns the result, the ``execute_request_batch``
    call sizes, the scalar calls and the calls that reached the strategy
    class's own kernel."""
    topology, _ = parity_cluster()
    graph = parity_graph(users=120)
    stream = parity_stream(graph, days=0.25)
    strategy = build_strategy(strategy_key, 7, DynaSoReConfig())
    config = SimulationConfig(extra_memory_pct=60.0, seed=7)
    simulator = ClusterSimulator(
        topology, graph, strategy, config=config, scenario=SCENARIOS[scenario_key]()
    )
    own_kernel_calls: list[int] = []
    own_kernel = type(strategy).execute_request_batch

    def spy_own_kernel(self, kinds, users, timestamps):
        own_kernel_calls.append(len(users))
        return own_kernel(self, kinds, users, timestamps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(strategy), "execute_request_batch", spy_own_kernel)
        scalar_calls = spy_scalar_calls(strategy)
        if not batch:
            observe_per_event(simulator)
        batch_calls = spy_batch_calls(strategy)
        result = simulator.run(stream)
    return result, batch_calls, scalar_calls, own_kernel_calls


#: Committed result digests of the matrix below (``golden_digest`` of each
#: cell, generated at the commit before the churn-first DynaSoRe kernel):
#: exactness is pinned to a value in the tree, not only to the twin path.
GOLDEN_DIGESTS = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text()
)


@pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
@pytest.mark.parametrize("strategy_key", STRATEGY_KEYS)
def test_batched_replay_byte_identical(strategy_key, scenario_key):
    """Batched dispatch must not change a single byte of the result — and
    neither half may drift from the committed golden digest.  The spies
    prove the halves differ in the kernels they drive: the batched half
    reaches the strategy's own kernel with multi-event runs and never a
    scalar method; the per-event half reaches ``execute_read`` /
    ``execute_write`` once per request and never the strategy's own
    kernel."""
    batched, batched_calls, batched_scalars, batched_own = _run_matrix(
        strategy_key, scenario_key, batch=True
    )
    per_event, per_event_calls, per_event_scalars, per_event_own = _run_matrix(
        strategy_key, scenario_key, batch=False
    )
    assert batched_calls and max(batched_calls) > 10
    assert batched_own == batched_calls
    assert not batched_scalars
    requests = per_event.reads_executed + per_event.writes_executed
    assert not per_event_own
    assert sum(per_event_calls) == len(per_event_scalars) == requests
    assert per_event_scalars.count("read") == per_event.reads_executed
    assert canonical_result_bytes(batched) == canonical_result_bytes(per_event)
    expected = GOLDEN_DIGESTS[f"{strategy_key}/{scenario_key}"]
    assert golden_digest(batched) == expected
    assert golden_digest(per_event) == expected


def test_batched_replay_actually_batches():
    """The matrix runs above exercise the batch kernels, not the fallback."""
    topology, _ = parity_cluster()
    graph = parity_graph(users=120)
    stream = parity_stream(graph, days=0.25)
    strategy = build_strategy("dynasore_hmetis", 7, DynaSoReConfig())
    simulator = ClusterSimulator(
        topology, graph, strategy, config=SimulationConfig(seed=7)
    )
    calls = spy_batch_calls(strategy)
    simulator.run(stream)
    # Ticks, samples and faults bound the runs; what matters is that
    # multi-event runs reach the kernel at all.
    assert calls and max(calls) > 10


# ---------------------------------------------------------------------------
# Edge churn: the parity stream has no edge events, this one interleaves them
# ---------------------------------------------------------------------------
#: Extra memory of the edge-churn runs: enough free slots that SPAR
#: co-locates on added edges.  At 60 % and at 300 % its initial placement
#: fills every slot; at 1,000 % it places 836 replicas and the stream's
#: added edges bring that to 859.
EDGE_CHURN_MEMORY_PCT = 1000.0


def _edge_churn_rows(graph) -> list[tuple[int, float, int, int]]:
    """Six hours of reads and writes (one every 10 s) with a follow edge
    added every 3 minutes and every other one removed 40 minutes later."""
    rng = random.Random(11)
    users = sorted(graph.users)
    rows = [
        (KIND_READ if rng.random() < 0.8 else KIND_WRITE, 10.0 * step, rng.choice(users), -1)
        for step in range(6 * 360)
    ]
    added: set[tuple[int, int]] = set()
    for index in range(120):
        while True:
            follower, followee = rng.sample(users, 2)
            if not graph.has_edge(follower, followee) and (follower, followee) not in added:
                break
        added.add((follower, followee))
        at = 180.0 * index + 2.5
        rows.append((KIND_EDGE_ADD, at, follower, followee))
        if index % 2 == 0:
            rows.append((KIND_EDGE_REMOVE, at + 2_400.0, follower, followee))
    rows.sort(key=lambda row: row[1])
    return rows


def _run_edge_churn(strategy_key: str, scenario_key: str, batch: bool):
    """One edge-churn run; returns the result, the ``(kind, follower,
    followee)`` edge calls the strategy saw and its replica count at each."""
    topology, _ = parity_cluster()
    graph = parity_graph(users=120)
    stream = EventStream.from_rows(_edge_churn_rows(graph), chunk_size=1000)
    strategy = build_strategy(strategy_key, 7, DynaSoReConfig())
    simulator = ClusterSimulator(
        topology,
        graph,
        strategy,
        config=SimulationConfig(extra_memory_pct=EDGE_CHURN_MEMORY_PCT, seed=7),
        scenario=SCENARIOS[scenario_key](),
    )
    edges: list[tuple[int, int, int]] = []
    replicas: list[int] = []
    added, removed = strategy.on_edge_added, strategy.on_edge_removed

    def spy_added(follower, followee, now):
        edges.append((KIND_EDGE_ADD, follower, followee))
        replicas.append(strategy.memory_in_use())
        return added(follower, followee, now)

    def spy_removed(follower, followee, now):
        edges.append((KIND_EDGE_REMOVE, follower, followee))
        replicas.append(strategy.memory_in_use())
        return removed(follower, followee, now)

    strategy.on_edge_added, strategy.on_edge_removed = spy_added, spy_removed
    if not batch:
        observe_per_event(simulator)
    calls = spy_batch_calls(strategy)
    result = simulator.run(stream)
    replicas.append(strategy.memory_in_use())
    expected_edges = [
        (kind, follower, followee)
        for kind, _, follower, followee in stream.rows()
        if kind in (KIND_EDGE_ADD, KIND_EDGE_REMOVE)
    ]
    assert edges == expected_edges
    assert {kind for kind, _, _ in edges} == {KIND_EDGE_ADD, KIND_EDGE_REMOVE}
    return result, calls, replicas


@pytest.mark.parametrize("scenario_key", ["plain", "crash"])
@pytest.mark.parametrize("strategy_key", STRATEGY_KEYS)
def test_edge_churn_batch_and_per_event_byte_identical(strategy_key, scenario_key):
    """A stream interleaving follow-edge adds and removes with requests:
    every strategy's batch kernel and the per-event reference give the same
    result, and both deliver every edge event to the strategy, in order."""
    batched, batched_calls, batched_replicas = _run_edge_churn(
        strategy_key, scenario_key, batch=True
    )
    per_event, _, per_event_replicas = _run_edge_churn(
        strategy_key, scenario_key, batch=False
    )
    assert max(batched_calls) > 10
    assert golden_digest(batched) == golden_digest(per_event)
    assert canonical_result_bytes(batched) == canonical_result_bytes(per_event)
    assert batched_replicas == per_event_replicas
    if strategy_key == "spar":
        # SPAR moves replicas on edges alone: at this memory setting the
        # added edges find free slots on their followers' servers.
        assert len(set(batched_replicas)) > 1


# ---------------------------------------------------------------------------
# Random interleavings: faults x ticks x sampling x pre-tick hooks
# ---------------------------------------------------------------------------
class _RandomFaultScenario(Scenario):
    """Random crash/drain/restore schedule over a fixed horizon."""

    name = "random-faults"

    def __init__(self, seed: int, horizon: float, servers: int) -> None:
        self.seed = seed
        self.horizon = horizon
        self.servers = servers

    def fault_events(self, context):
        rng = random.Random(self.seed)
        events = []
        down: list[int] = []
        up = list(range(self.servers))
        for _ in range(rng.randint(1, 4)):
            timestamp = rng.uniform(0.0, self.horizon)
            if down and rng.random() < 0.4:
                position = down.pop(rng.randrange(len(down)))
                events.append(ServerRecovery(timestamp=timestamp, position=position))
                up.append(position)
            elif len(up) > 2:
                position = up.pop(rng.randrange(len(up)))
                maker = ServerCrash if rng.random() < 0.5 else NodeLeave
                events.append(maker(timestamp=timestamp, position=position))
                down.append(position)
        # Events are applied in timestamp order, but a random draw may
        # schedule a recovery before its outage; sort first, then drop
        # recoveries that would precede the outage.
        events.sort(key=lambda event: event.timestamp)
        seen_down: set[int] = set()
        valid = []
        for event in events:
            if isinstance(event, ServerRecovery):
                if event.position not in seen_down:
                    continue
                seen_down.discard(event.position)
            else:
                if event.position in seen_down:
                    continue
                seen_down.add(event.position)
            valid.append(event)
        return valid


def _random_stream(rng: random.Random, users: int, horizon: float) -> EventStream:
    """Random read/write/edge interleaving, timestamps sorted."""
    rows = []
    for _ in range(rng.randint(200, 600)):
        timestamp = rng.uniform(0.0, horizon)
        draw = rng.random()
        user = rng.randrange(users)
        if draw < 0.6:
            rows.append((KIND_READ, timestamp, user, -1))
        elif draw < 0.85:
            rows.append((KIND_WRITE, timestamp, user, -1))
        else:
            other = rng.randrange(users)
            if other != user:
                kind = KIND_EDGE_ADD if rng.random() < 0.8 else KIND_EDGE_REMOVE
                rows.append((kind, timestamp, user, other))
    rows.sort(key=lambda row: row[1])
    chunk = EventChunk()
    for row in rows:
        chunk.append(*row)
    return EventStream.from_chunks([chunk])


def _interleaving_run(seed: int, batch: bool):
    rng = random.Random(seed)
    spec = ClusterSpec(
        intermediate_switches=2,
        racks_per_intermediate=2,
        machines_per_rack=3,
        brokers_per_rack=1,
    )
    topology = TreeTopology(spec)
    graph = parity_graph(users=80, seed=seed)
    horizon = rng.uniform(4 * HOUR, 14 * HOUR)
    stream = _random_stream(rng, users=80, horizon=horizon)
    strategy_key = rng.choice(STRATEGY_KEYS)
    strategy = build_strategy(strategy_key, 7, DynaSoReConfig())
    config = SimulationConfig(
        extra_memory_pct=rng.choice([40.0, 60.0, 100.0]),
        tick_period=rng.choice([HOUR / 2, HOUR, 2 * HOUR]),
        bucket_width=rng.choice([HOUR / 2, HOUR]),
        measure_from=rng.choice([0.0, HOUR]),
        seed=7,
    )
    scenario = _RandomFaultScenario(
        seed=seed, horizon=horizon, servers=len(topology.servers)
    )
    simulator = ClusterSimulator(
        topology, graph, strategy, config=config, scenario=scenario
    )
    if not batch:
        observe_per_event(simulator)
    hook_log: list[tuple] = []
    if rng.random() < 0.4:
        for user in list(graph.users)[: rng.randint(1, 3)]:
            simulator.track_view(user)
    if rng.random() < 0.4:
        simulator.add_pre_tick_hook(lambda now: hook_log.append(("tick", now)))
    result = simulator.run(stream)
    snapshot = simulator.accountant.snapshot()
    return result, snapshot, hook_log


@pytest.mark.parametrize("seed", range(8))
def test_random_interleavings_byte_identical(seed):
    """Faults, ticks, sampling and pre-tick hooks interleave identically on
    both paths.

    Each seed draws a random strategy, workload (reads/writes/edge churn),
    fault schedule, tick/bucket configuration and observer set; the run
    through the fused kernels and its per-event twin must produce
    byte-identical results, byte-identical traffic snapshots and identical
    pre-tick hook transcripts.  Drawn tracked views only bound the runs at
    their sample instants, so a seed that tracks views compares sampling
    from the batch kernels against the per-event one.
    """
    result_a, snapshot_a, hooks_a = _interleaving_run(seed, batch=True)
    result_b, snapshot_b, hooks_b = _interleaving_run(seed, batch=False)
    assert canonical_result_bytes(result_a) == canonical_result_bytes(result_b)
    assert snapshot_a == snapshot_b
    assert hooks_a == hooks_b


# ---------------------------------------------------------------------------
# Footprint kernel vs per-event path (Random, METIS, hMETIS, SPAR)
# ---------------------------------------------------------------------------
_FOOTPRINT_KNOWN = 80


def _footprint_rows(rng: random.Random, bucket_width: float) -> list[tuple]:
    """1 500 events over an *open, growing* user universe: edge endpoints
    are drawn from up to five ids beyond the users seen so far (so users
    unknown to the graph keep arriving, mostly as followee, and then read
    and write), requests from up to three beyond them.  One timestamp in
    twenty sits on a multiple of the bucket width — where buckets, and for
    the round widths ticks and the warm-up boundary, change hands."""
    known = _FOOTPRINT_KNOWN
    rows = []
    timestamps = [rng.uniform(0.0, 6 * HOUR) for _ in range(1500)]
    for index in range(0, len(timestamps), 20):
        timestamps[index] = round(timestamps[index] / bucket_width) * bucket_width
    for timestamp in sorted(timestamps):
        draw = rng.random()
        if draw < 0.10:
            follower = rng.randrange(known + 5)
            followee = rng.randrange(known + 5)
            if follower != followee:
                kind = KIND_EDGE_ADD if draw < 0.08 else KIND_EDGE_REMOVE
                rows.append((kind, timestamp, follower, followee))
                known = max(known, follower + 1, followee + 1)
        else:
            kind = KIND_READ if draw < 0.75 else KIND_WRITE
            user = rng.randrange(known + 3)
            rows.append((kind, timestamp, user, -1))
            known = max(known, user + 1)
    return rows


def _footprint_run(strategy_key: str, seed: int, batch: bool):
    rng = random.Random(seed)
    config = SimulationConfig(
        bucket_width=rng.choice([3600.0, 1000.0, 77.7, 0.7]),
        measure_from=rng.choice([0.0, 5000.0, 12345.6]),
        tick_period=rng.choice([3600.0, 500.0]),
        extra_memory_pct=rng.choice([0.0, 30.0, 100.0]),
        seed=7,
    )
    stream = EventStream.from_rows(
        _footprint_rows(rng, config.bucket_width), chunk_size=rng.choice([7, 97, 4096])
    )
    topology, _ = parity_cluster()
    simulator = ClusterSimulator(
        topology,
        parity_graph(users=_FOOTPRINT_KNOWN, seed=seed),
        build_strategy(strategy_key, 7, DynaSoReConfig()),
        config=config,
    )
    if not batch:
        observe_per_event(simulator)
    return simulator.run(stream), simulator.accountant.snapshot()


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("strategy_key", ["random", "hmetis", "spar"])
def test_footprint_kernel_matches_per_event_path(strategy_key, seed):
    """Counting footprints equals executing events, on streams the golden
    matrix does not have: users unknown to the graph, edge churn between
    every few requests, bucket widths that cut inside runs and are not
    float-friendly, a warm-up boundary inside the stream.

    Mutations of the footprint memo the 180 cells were checked against:

    (1) ``on_edge_added`` drops only the follower's read footprint — a
        followee new to the graph keeps her ``()`` and her next read does
        not place her: 114 cells differ, while the whole golden matrix passes
        (a prototype of the kernel shipped exactly this bug);
    (2) ``segment_end`` trusts its bisect instead of asking
        ``timestamp // width`` about both neighbours of the cut: *no* cell
        differs, by construction — every segment re-derives its bucket
        from its first timestamp, so a cut that comes early (common at
        ``bucket_width=0.7``) only splits a segment, and one that comes
        late does not exist in IEEE arithmetic.  What the mutation breaks
        is the cut positions, which
        ``test_traffic.py::test_segment_end_cuts_where_counts_for_switches_dicts``
        pins.

    Mutations of the tally and its settle (requests are counted per run and
    multiplied into paths only when a footprint is dropped or somebody
    reads the accountant):

    (a) a footprint is dropped without settling its count first — the
        settle then multiplies a footprint rebuilt on the *new* placement:
        180 cells differ;
    (b) the series is booked with the bucket current at *settle* time
        instead of the segment's: 180 cells differ;
    (c) the top-crossing count of a request is kept after its footprint is
        dropped: 180 cells differ;
    (d) a segment's reads are touched before its writes — lazy placement
        then leaves stream order: 84 cells differ (as when footprints, not
        requests, were tallied).

    Mutations of the int request keys and the key-row gather:

    (e) the static fallback places a reader's missing followees after
        looking up the mapped ones: *no* cell differs, by construction —
        the lookups have no side effect, the missing followees are still
        placed in ``following()`` order, and a footprint's key order is
        immaterial to its counts.  Placing them in reverse order instead
        makes 4 cells differ, and
        ``test_unassigned_followees_are_placed_in_following_order`` fails;
    (f) the memo decodes a key as ``(key >> 1, key & 1)``, kind and user
        swapped: 180 cells differ.
    """
    batched, batched_snapshot = _footprint_run(strategy_key, seed, batch=True)
    per_event, per_event_snapshot = _footprint_run(strategy_key, seed, batch=False)
    assert canonical_result_bytes(batched) == canonical_result_bytes(per_event)
    assert batched_snapshot == per_event_snapshot


@pytest.mark.parametrize("key", ["random", "hmetis", "spar"])
def test_footprints_walk_the_graph_once_per_reader(key):
    """A work count, not a timing: 40 runs without an edge event read
    ``following`` at most once per distinct reader; after one edge the
    static strategies re-read it only for the edge's two endpoints."""
    strategy, simulator = _bound_strategy(key)
    graph = simulator.graph
    walked: list[int] = []
    following = graph.following

    def spy(user):
        walked.append(user)
        return following(user)

    graph.following = spy
    users = list(graph.users)

    def replay(start: float) -> set[int]:
        runs = _request_runs(users, seed=3, start=start)
        _replay_runs(strategy, runs, batch=True)
        return {u for kinds, us, _ in runs for k, u in zip(kinds, us) if k == KIND_READ}

    readers = replay(0.0)
    assert sorted(walked) == sorted(readers)

    follower = users[0]
    followee = next(u for u in users[1:] if not graph.has_edge(follower, u))
    graph.add_edge(follower, followee)
    strategy.on_edge_added(follower, followee, 5000.0)
    del walked[:]
    readers = replay(5000.0)
    if key != "spar":  # a SPAR co-location moves a replica: everything is dropped
        assert sorted(walked) == sorted(readers & {follower, followee})
    assert len(walked) == len(set(walked))


def _request_key(kind: int, user: int) -> int:
    """The footprint kernel's int key of one request."""
    return 2 * user + kind


def test_equal_footprints_share_their_key_objects():
    """Footprint memory stays one pointer per followed edge: path keys are
    interned, so equal keys in different footprints are one ``int`` object
    (at most ``stride**2`` of them), not one per roundtrip.  The memo is
    keyed by request ints, and every key it holds decodes to a request
    that was executed."""
    strategy, simulator = _bound_strategy("random")
    users = list(simulator.graph.users)
    strategy.execute_request_batch(
        bytes([KIND_READ, KIND_WRITE] * len(users)),
        [user for user in users for _ in range(2)],
        [0.0] * (2 * len(users)),
    )
    assert set(strategy._footprints) == {
        _request_key(kind, user) for user in users for kind in (KIND_READ, KIND_WRITE)
    }
    by_position: dict[int, list[int]] = {}
    for user, position in strategy.assignment().items():
        by_position.setdefault(position, []).append(user)
    shared = 0
    for first, second, *_ in (g for g in by_position.values() if len(g) > 1):
        write_a = strategy._footprints[_request_key(KIND_WRITE, first)]
        write_b = strategy._footprints[_request_key(KIND_WRITE, second)]
        assert write_a == write_b
        if write_a[0] > 256:  # beyond CPython's small ints
            assert write_a[0] is write_b[0]
            shared += 1
    assert shared
    objects: dict[int, int] = {}
    for footprint in strategy._footprints.values():
        for key in footprint:
            assert objects.setdefault(key, id(key)) == id(key)
    stride = simulator.accountant.device_count
    assert len(objects) <= stride * stride


def _spy_positions(strategy) -> list[int]:
    """Record every ``server_position_of`` call of a static strategy."""
    calls: list[int] = []
    original = strategy.server_position_of

    def spy(user):
        calls.append(user)
        return original(user)

    strategy.server_position_of = spy
    return calls


@pytest.mark.parametrize("key", ["random", "hmetis"])
def test_read_footprint_of_an_assigned_reader_places_only_the_issuer(key):
    """A work count: with every followee assigned, the read footprint is a
    gather over the assignment — ``server_position_of`` runs once, for the
    issuer, and the footprint still has one key per followee."""
    strategy, simulator = _bound_strategy(key)
    graph = simulator.graph
    reader = max(graph.users, key=lambda user: len(graph.following(user)))
    calls = _spy_positions(strategy)
    footprint = strategy._footprints[_request_key(KIND_READ, reader)]
    assert calls == [reader]
    assert len(footprint) == len(graph.following(reader)) > 1


def test_unassigned_followees_are_placed_in_following_order():
    """A reader follows two users that joined after the initial placement:
    building the reader's footprint places them in ``following()`` order — the order
    ``execute_read`` places them in — and lands them where it does."""
    placements = []
    for batch in (True, False):
        strategy, simulator = _bound_strategy("random")
        graph = simulator.graph
        reader = next(iter(graph.users))
        newcomers = [max(graph.users) + 1, max(graph.users) + 2]
        for followee in newcomers:
            graph.add_edge(reader, followee)
            strategy.on_edge_added(reader, followee, 0.0)
        order = [user for user in graph.following(reader) if user in newcomers]
        calls = _spy_positions(strategy)
        if batch:
            strategy.execute_request_batch(bytes([KIND_READ]), [reader], [1.0])
        else:
            strategy.execute_read(reader, 1.0)
        placed = [user for user in calls if user in newcomers]
        assert placed == order
        placements.append((placed, strategy.assignment(), simulator.accountant.snapshot()))
    assert placements[0] == placements[1]


class _RecordingStrategy(PlacementStrategy):
    """The base class's scalar loop, recording what it executes."""

    def __init__(self) -> None:
        super().__init__()
        self.executed: list[tuple[str, int]] = []

    def build_initial_placement(self) -> None:  # pragma: no cover - unused
        pass

    def execute_read(self, user, now, targets=None) -> None:
        self.executed.append(("read", user))

    def execute_write(self, user, now) -> None:
        self.executed.append(("write", user))


def test_base_loop_rejects_stray_kinds():
    """A non-request kind in the column raises before any event runs (it
    used to run as a write)."""
    strategy = _RecordingStrategy()
    with pytest.raises(SimulationError, match="event kind 2"):
        strategy.execute_request_batch(
            bytes([KIND_READ, KIND_WRITE, KIND_EDGE_ADD]), [1, 2, 3], [0.0, 1.0, 2.0]
        )
    assert strategy.executed == []
    strategy.execute_request_batch(bytes([KIND_READ, KIND_WRITE]), [1, 2], [0.0, 1.0])
    assert strategy.executed == [("read", 1), ("write", 2)]
    # The default audit answers from the empty table.
    assert strategy.replication_factor() == 0.0
    assert not strategy.has_any_replica(1)


@pytest.mark.parametrize("key", ["hmetis", "spar", "dynasore_hmetis"])
@pytest.mark.parametrize("stray", [KIND_EDGE_ADD, KIND_EDGE_REMOVE])
def test_batch_kernels_reject_stray_kinds(key, stray):
    """The footprint and DynaSoRe kernels refuse a kind column holding an
    edge event — under ``2 * user + kind`` an ``EDGE_ADD`` of ``u`` would
    otherwise count as a read by ``u + 1`` — and book nothing."""
    strategy, simulator = _bound_strategy(key)
    users = list(simulator.graph.users)[:3]
    before = simulator.accountant.snapshot()
    with pytest.raises(SimulationError, match=f"event kind {stray}"):
        strategy.execute_request_batch(
            bytes([KIND_READ, stray, KIND_WRITE]), users, [0.0, 1.0, 2.0]
        )
    assert simulator.accountant.snapshot() == before


def _request_runs(users: list[int], seed: int, start: float = 0.0, runs: int = 40):
    """``runs`` request runs of 50 events, 100 s apart (the 37th crosses an
    hour): ``(kinds, users, timestamps)`` columns, two reads per write."""
    rng = random.Random(seed)
    columns = []
    for run in range(runs):
        kinds = bytes(rng.choice([KIND_READ, KIND_READ, KIND_WRITE]) for _ in range(50))
        times = [start + run * 100.0 + index for index in range(50)]
        columns.append((kinds, [rng.choice(users) for _ in kinds], times))
    return columns


def _replay_runs(strategy, runs, batch: bool) -> None:
    for kinds, users, times in runs:
        if batch:
            strategy.execute_request_batch(kinds, users, times)
            continue
        for kind, user, now in zip(kinds, users, times):
            (strategy.execute_read if kind == KIND_READ else strategy.execute_write)(user, now)


@pytest.mark.parametrize("key", ["random", "hmetis", "spar"])
def test_reset_traffic_sees_the_tallies_held_back(key):
    """Requests tallied before ``reset_traffic`` must not be booked after
    it: the reset settles, then clears (a reset that only zeroes the
    columns leaves the first half's counts to land on the second's)."""
    reports = []
    for batch in (True, False):
        strategy, simulator = _bound_strategy(key)
        runs = _request_runs(list(simulator.graph.users), seed=5)
        _replay_runs(strategy, runs[:20], batch)
        simulator.reset_traffic()
        _replay_runs(strategy, runs[20:], batch)
        accountant = simulator.accountant
        reports.append((accountant.snapshot(), accountant.top_switch_series()))
    assert reports[0] == reports[1]
    assert reports[0][0].messages > 0


@pytest.mark.parametrize("key", ["random", "hmetis", "spar"])
def test_message_count_between_runs_counts_the_tallies_held_back(key):
    """``message_count`` settles before it answers: read after every run it
    equals the per-event count — warm-up messages (the first 20 runs) and
    machine-local ones (every write on a flat cluster) included."""
    counts = []
    for batch in (True, False):
        strategy, simulator = _bound_strategy(
            key, FlatTopology(FlatClusterSpec(machines=10)), measure_from=2000.0
        )
        seen = []
        for run in _request_runs(list(simulator.graph.users), seed=9):
            _replay_runs(strategy, [run], batch)
            seen.append(simulator.accountant.message_count)
        counts.append(seen)
    assert counts[0] == counts[1]
    assert counts[0] == sorted(counts[0]) and counts[0][0] > 0
    assert simulator.accountant.top_switch_traffic() > 0


@pytest.mark.parametrize("key", ["random", "hmetis", "spar"])
def test_a_run_settles_once(key):
    """A work count: 40 request runs with no edge or fault event in between
    enter the accountant's path walk at most twice in total (one read walk,
    one write walk — 80 when every run flushed), and an ``EDGE_ADD`` adds
    at most one settle."""
    strategy, simulator = _bound_strategy(key)
    accountant = simulator.accountant
    graph = simulator.graph
    users = list(graph.users)
    walks: list[int] = []
    record = accountant.record_roundtrip_batch

    def spy(counts, request_kind, response_kind, bucket):
        if counts:
            walks.append(len(counts))
        record(counts, request_kind, response_kind, bucket)

    accountant.record_roundtrip_batch = spy
    _replay_runs(strategy, _request_runs(users, seed=3), batch=True)
    assert walks == []
    assert accountant.top_switch_traffic() > 0
    assert len(walks) <= 2
    accountant.snapshot()
    assert len(walks) <= 2  # nothing left to settle

    _replay_runs(strategy, _request_runs(users, seed=4, start=5000.0), batch=True)
    follower = users[0]
    followee = next(u for u in users[1:] if not graph.has_edge(follower, u))
    graph.add_edge(follower, followee)
    before = len(walks)
    strategy.on_edge_added(follower, followee, 9000.0)
    assert len(walks) - before <= 2
    _replay_runs(strategy, _request_runs(users, seed=5, start=9000.0), batch=True)
    accountant.snapshot()
    assert len(walks) <= 6


def test_settle_fails_loudly_past_the_exactness_limit():
    """Whole-run counts are multiplied in one step; a forged count that
    would push a column past ``2**53`` raises instead of rounding."""
    strategy, simulator = _bound_strategy("random")
    users = list(simulator.graph.users)
    strategy.execute_request_batch(bytes(len(users)), users, [0.0] * len(users))
    for request in strategy._tally:
        strategy._tally[request] = 2**50
    with pytest.raises(SimulationError, match="2\\*\\*53"):
        simulator.accountant.top_switch_traffic()


@pytest.mark.parametrize("key", STRATEGY_KEYS)
def test_one_event_run_reaches_the_batch_kernel(key):
    """A request between two edge events is a run of one event; it goes to
    ``execute_request_batch`` like every longer run, never to a scalar
    method."""
    topology, _ = parity_cluster()
    graph = parity_graph(users=60)
    users = list(graph.users)
    follower = users[0]
    followee = next(
        user for user in users[1:] if not graph.has_edge(follower, user)
    )
    rows = [
        (KIND_READ, 1.0, follower, -1),
        (KIND_WRITE, 2.0, followee, -1),
        (KIND_EDGE_ADD, 3.0, follower, followee),
        (KIND_READ, 4.0, follower, -1),
        (KIND_EDGE_REMOVE, 5.0, follower, followee),
        (KIND_WRITE, 6.0, followee, -1),
        (KIND_READ, 7.0, follower, -1),
    ]
    strategy = build_strategy(key, 7, DynaSoReConfig())
    simulator = ClusterSimulator(topology, graph, strategy, config=SimulationConfig(seed=7))
    scalar_calls = spy_scalar_calls(strategy)
    batch_calls = spy_batch_calls(strategy)
    result = simulator.run(EventStream.from_rows(rows))
    assert batch_calls == [2, 1, 2]
    assert not scalar_calls
    assert (result.reads_executed, result.writes_executed) == (3, 2)


# ---------------------------------------------------------------------------
# Segmentation helpers
# ---------------------------------------------------------------------------
def test_request_run_end_only_breaks_on_edges():
    kinds = bytes(
        [KIND_READ, KIND_WRITE, KIND_READ, KIND_EDGE_ADD, KIND_WRITE, KIND_EDGE_REMOVE]
    )
    assert request_run_end(kinds, 0, len(kinds)) == 3
    assert request_run_end(kinds, 4, len(kinds)) == 5


def test_run_helpers_respect_end_bound():
    kinds = bytes([KIND_READ] * 10)
    assert request_run_end(kinds, 2, 7) == 7


# ---------------------------------------------------------------------------
# Batch-kernel entry points (strategy API level)
# ---------------------------------------------------------------------------
def _bound_strategy(key: str, topology=None, measure_from: float = 0.0):
    if topology is None:
        topology, _ = parity_cluster()
    graph = parity_graph(users=60)
    strategy = build_strategy(key, 7, DynaSoReConfig())
    config = SimulationConfig(seed=7, measure_from=measure_from)
    simulator = ClusterSimulator(topology, graph, strategy, config=config)
    simulator.prepare()
    return strategy, simulator


@pytest.mark.parametrize("key", ["random", "spar", "dynasore_random"])
def test_pure_run_wrappers_match_scalar_calls(key):
    """``execute_read_batch`` equals the scalar loop."""
    strategy_a, sim_a = _bound_strategy(key)
    strategy_b, sim_b = _bound_strategy(key)
    users = [user for user in list(sim_a.graph.users)[:12]]
    times = [float(i) * MINUTE for i in range(len(users))]
    strategy_a.execute_read_batch(users, times)
    for user, now in zip(users, times):
        strategy_b.execute_read(user, now)
    assert sim_a.accountant.snapshot() == sim_b.accountant.snapshot()


# ---------------------------------------------------------------------------
# Opt-in placement-table auditing (REPRO_CHECK_TABLES)
# ---------------------------------------------------------------------------
def test_table_audit_runs_when_enabled(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_TABLES", "1")
    topology, _ = parity_cluster()
    graph = parity_graph(users=80)
    stream = parity_stream(graph, days=0.25)
    strategy = build_strategy("dynasore_hmetis", 7, DynaSoReConfig())
    simulator = ClusterSimulator(
        topology,
        graph,
        strategy,
        config=SimulationConfig(seed=7),
        scenario=SCENARIOS["crash"](),
    )
    assert simulator._check_tables
    result = simulator.run(stream)
    assert result.requests_executed > 0


def test_table_audit_detects_corruption(monkeypatch):
    from repro.exceptions import StorageError

    monkeypatch.setenv("REPRO_CHECK_TABLES", "1")
    topology, _ = parity_cluster()
    graph = parity_graph(users=80)
    stream = parity_stream(graph, days=0.25)
    strategy = build_strategy("dynasore_hmetis", 7, DynaSoReConfig())
    simulator = ClusterSimulator(topology, graph, strategy, config=SimulationConfig(seed=7))

    def corrupt(now):
        strategy.tables._used[0] += 1  # desynchronise the occupancy counter

    simulator.add_pre_tick_hook(corrupt)
    with pytest.raises(StorageError):
        simulator.run(stream)


@pytest.mark.parametrize("key", ["random", "metis", "hmetis"])
def test_table_audit_covers_the_static_baselines(monkeypatch, key):
    """The static baselines keep their placement in a ``ReplicaTable``, so
    ``REPRO_CHECK_TABLES=1`` audits it after every fault burst and every
    run of ticks of a crash-and-rejoin run."""
    from repro.store.tables import ReplicaTable

    monkeypatch.setenv("REPRO_CHECK_TABLES", "1")
    topology, _ = parity_cluster()
    graph = parity_graph(users=80)
    stream = parity_stream(graph, days=0.25)
    strategy = build_strategy(key, 7, DynaSoReConfig())
    simulator = ClusterSimulator(
        topology, graph, strategy, config=SimulationConfig(seed=7), scenario=SCENARIOS["crash"]()
    )
    log: list[str] = []
    for hook, entry in (("on_tick", "tick"), ("on_server_down", "fault"), ("on_server_up", "fault")):
        original = getattr(strategy, hook)

        def logged(*args, _original=original, _entry=entry, **kwargs):
            log.append(_entry)
            return _original(*args, **kwargs)

        monkeypatch.setattr(strategy, hook, logged)
    audit = ReplicaTable.check_integrity

    def audited(table):
        assert table is strategy.tables
        log.append("audit")
        audit(table)

    monkeypatch.setattr(ReplicaTable, "check_integrity", audited)
    simulator.run(stream)
    assert log.count("fault") == 4 and "tick" in log
    runs = [entry for i, entry in enumerate(log) if i == 0 or log[i - 1] != entry]
    for entry, following in zip(runs, runs[1:] + [None]):
        if entry != "audit":
            assert following == "audit", runs


@pytest.mark.parametrize("key", ["random", "dynasore_random"])
def test_table_audit_covers_direct_fault_calls(monkeypatch, key):
    """A ``crash_server`` / ``restore_server`` call made outside a scenario
    (as the crash examples make) is audited under ``REPRO_CHECK_TABLES=1``."""
    from repro.store.tables import ReplicaTable

    monkeypatch.setenv("REPRO_CHECK_TABLES", "1")
    topology, _ = parity_cluster()
    graph = parity_graph(users=80)
    strategy = build_strategy(key, 7, DynaSoReConfig())
    simulator = ClusterSimulator(topology, graph, strategy, config=SimulationConfig(seed=7))
    simulator.prepare()
    audited = []
    audit = ReplicaTable.check_integrity

    def logged(table):
        audited.append(table)
        audit(table)

    monkeypatch.setattr(ReplicaTable, "check_integrity", logged)
    simulator.crash_server(1, now=HOUR)
    assert audited == [strategy.tables]
    simulator.restore_server(1, now=2 * HOUR)
    assert audited == [strategy.tables] * 2


def test_table_audit_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK_TABLES", raising=False)
    topology, _ = parity_cluster()
    graph = parity_graph(users=60)
    strategy = build_strategy("random", 7, DynaSoReConfig())
    simulator = ClusterSimulator(topology, graph, strategy, config=SimulationConfig(seed=7))
    assert not simulator._check_tables


def test_view_tracked_mid_run_is_sampled_from_the_next_event_on():
    """``track_view`` called from a pre-tick hook mid-run: periodic samples
    start there, not only the forced one at the end of the run."""
    topology, _ = parity_cluster()
    graph = parity_graph(users=100)
    stream = parity_stream(graph, days=0.25)
    strategy = build_strategy("dynasore_hmetis", 7, DynaSoReConfig())
    simulator = ClusterSimulator(
        topology, graph, strategy, config=SimulationConfig(seed=7)
    )
    target = next(iter(graph.users))

    tracked_at = []

    def on_tick(now):
        if not tracked_at:
            simulator.track_view(target)
            tracked_at.append(now)

    simulator.add_pre_tick_hook(on_tick)
    timeline = simulator.run(stream).tracked_views[target]
    assert len(timeline.replica_counts) > 10
    assert timeline.replica_counts[0][0] >= tracked_at[0]


def test_sample_instants_bound_the_runs():
    """Tracked views are sampled once per ``TRACKING_PERIOD``, at the first
    event at or after each instant, without cutting runs to one event: the
    batch kernel runs multi-event runs, none of which crosses an instant."""
    topology, _ = parity_cluster()
    graph = parity_graph(users=60)
    users = list(graph.users)
    rows = [(KIND_READ, 7.0 * index, users[index % len(users)], -1) for index in range(1200)]
    strategy = build_strategy("random", 7, DynaSoReConfig())
    simulator = ClusterSimulator(topology, graph, strategy, config=SimulationConfig(seed=7))
    simulator.track_view(users[0])
    runs: list[list[float]] = []
    original = strategy.execute_request_batch

    def spy(kinds, run_users, timestamps):
        runs.append(list(timestamps))
        return original(kinds, run_users, timestamps)

    strategy.execute_request_batch = spy
    result = simulator.run(EventStream.from_rows(rows))
    samples = [now for now, _ in result.tracked_views[users[0]].replica_counts]
    times = [row[1] for row in rows]
    # One sample per period of the 8 393 s stream, plus the final one.
    instants = range(int(TRACKING_PERIOD), int(times[-1]), int(TRACKING_PERIOD))
    assert samples == [next(t for t in times if t >= at) for at in instants] + [times[-1]]
    assert max(map(len, runs)) > 1
    for timestamps in runs:
        assert timestamps[0] // TRACKING_PERIOD == timestamps[-1] // TRACKING_PERIOD


@pytest.mark.parametrize("scenario_key", ["plain", "crash"])
def test_empty_workload_still_finishes_the_run(scenario_key):
    """No event at all: trailing faults are applied, the final tick fires and
    the result is the all-zero one."""
    topology, _ = parity_cluster()
    graph = parity_graph(users=60)
    strategy = build_strategy("dynasore_hmetis", 7, DynaSoReConfig())
    simulator = ClusterSimulator(
        topology,
        graph,
        strategy,
        config=SimulationConfig(seed=7),
        scenario=SCENARIOS[scenario_key](),
    )
    ticks = []
    simulator.add_pre_tick_hook(ticks.append)
    result = simulator.run(EventStream.empty())
    assert result.requests_executed == 0
    assert result.reads_executed == result.writes_executed == 0
    assert result.duration == 0.0
    assert result.unavailable_views == 0
    if scenario_key == "crash":
        kinds = [record.kind for record in result.fault_records]
        assert kinds == ["crash", "crash", "restore", "restore"]
        assert ticks[-1] == 5 * HOUR  # the final tick, at the last fault
        assert all(simulator.server_up)
    else:
        assert result.fault_records == []
        assert ticks == [0.0]


@pytest.mark.parametrize("batch", [True, False], ids=["batched", "per_event"])
def test_every_request_is_executed_once_in_stream_order(batch):
    """Across chunk boundaries and edge events, the requests the strategy
    executes — through its own kernel or through the per-event reference —
    are the stream's reads and writes, each once, in stream order."""
    rows = _mirror_rows()
    stream = EventStream.from_rows(rows, chunk_size=_MIRROR_CHUNK)
    assert stream.stats().mutations > 0
    simulator = _mirror_simulator("spar")
    strategy = simulator.strategy
    seen: list[tuple[int, int, float]] = []
    if batch:
        kernel = strategy.execute_request_batch

        def spy_kernel(kinds, users, timestamps):
            seen.extend(zip(kinds, users, timestamps))
            return kernel(kinds, users, timestamps)

        strategy.execute_request_batch = spy_kernel
    else:
        read, write = strategy.execute_read, strategy.execute_write

        def spy_read(user, now, targets=None):
            seen.append((KIND_READ, user, now))
            return read(user, now, targets)

        def spy_write(user, now):
            seen.append((KIND_WRITE, user, now))
            return write(user, now)

        strategy.execute_read, strategy.execute_write = spy_read, spy_write
        observe_per_event(simulator)
    simulator.run(stream)
    assert seen == [
        (kind, user, timestamp)
        for kind, timestamp, user, _ in stream.rows()
        if kind in (KIND_READ, KIND_WRITE)
    ]


def test_check_tables_env_accepts_falsey_spellings(monkeypatch):
    """The flag's one consumer, the simulator's audits, reads every
    spelling the same way."""
    topology, _ = parity_cluster()
    graph = parity_graph(users=60)
    for value, expected in (
        ("1", True),
        ("true", True),
        ("0", False),
        ("false", False),
        ("No", False),
        ("off", False),
        ("", False),
    ):
        monkeypatch.setenv("REPRO_CHECK_TABLES", value)
        strategy = build_strategy("dynasore_random", 7, DynaSoReConfig())
        simulator = ClusterSimulator(
            topology, graph, strategy, config=SimulationConfig(seed=7)
        )
        simulator.prepare()
        assert simulator._check_tables is expected, value


def test_run_spanning_bucket_boundary_keeps_series_order():
    """A single run crossing a traffic-bucket boundary with writes in one
    bucket and reads in the next must still export byte-identical series
    (the per-kind aggregators may touch the buckets out of order)."""

    def run(batch: bool):
        topology, _ = parity_cluster()
        graph = parity_graph(users=40)
        rows = []
        users = list(graph.users)
        for index in range(6):  # writes in bucket 0
            rows.append((KIND_WRITE, 10.0 + index * 10.0, users[index], -1))
        for index in range(4):  # reads in bucket 1
            rows.append((KIND_READ, 150.0 + index * 10.0, users[index], -1))
        chunk = EventChunk()
        for row in rows:
            chunk.append(*row)
        stream = EventStream.from_chunks([chunk])
        strategy = build_strategy("spar", 7, DynaSoReConfig())
        simulator = ClusterSimulator(
            topology,
            graph,
            strategy,
            config=SimulationConfig(
                seed=7, bucket_width=100.0, tick_period=100000.0
            ),
        )
        if not batch:
            observe_per_event(simulator)
        return simulator.run(stream)

    batched = run(True)
    per_event = run(False)
    assert list(batched.top_series_application) == sorted(
        batched.top_series_application
    )
    assert canonical_result_bytes(batched) == canonical_result_bytes(per_event)


# ---------------------------------------------------------------------------
# Durability mirror: the WAL follows the stream, the runs stay whole
# ---------------------------------------------------------------------------
_MIRROR_USERS = 80
_MIRROR_HORIZON = 6 * HOUR
_MIRROR_CRASH = 2 * HOUR + 7.0
_MIRROR_RECOVER = 4 * HOUR + 11.0
#: small enough that runs cross chunk boundaries many times
_MIRROR_CHUNK = 97


def _mirror_rows(seed: int = 5) -> list[tuple]:
    """Write-heavy read/write mix with a little edge churn, sorted by time.

    Timestamps are continuous draws, so none coincides with a tick or a
    fault and "earlier than the crash" is unambiguous.
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(900):
        timestamp = rng.uniform(0.0, _MIRROR_HORIZON)
        user = rng.randrange(_MIRROR_USERS)
        draw = rng.random()
        if draw < 0.5:
            rows.append((KIND_WRITE, timestamp, user, -1))
        elif draw < 0.98:
            rows.append((KIND_READ, timestamp, user, -1))
        else:
            other = (user + 1 + rng.randrange(_MIRROR_USERS - 1)) % _MIRROR_USERS
            rows.append((KIND_EDGE_ADD, timestamp, user, other))
    rows.sort(key=lambda row: row[1])
    return rows


def _written(rows, owned=None) -> list[tuple[int, float]]:
    return [
        (user, timestamp)
        for kind, timestamp, user, _ in rows
        if kind == KIND_WRITE and (owned is None or owned(user))
    ]


def _wal_sequence(store: PersistentStore) -> list[tuple[int, float]]:
    return [(record.user, record.timestamp) for record in store.wal.replay()]


def _mirror_simulator(strategy_key: str, **kwargs) -> ClusterSimulator:
    topology, _ = parity_cluster()
    graph = parity_graph(users=_MIRROR_USERS)
    strategy = build_strategy(strategy_key, 7, DynaSoReConfig())
    kwargs.setdefault("config", SimulationConfig(extra_memory_pct=60.0, seed=7))
    return ClusterSimulator(topology, graph, strategy, **kwargs)


def _crash_scenario():
    return CrashRecoverScenario(
        crash_time=_MIRROR_CRASH, recover_time=_MIRROR_RECOVER, count=2
    )


def _watch_crashes(simulator: ClusterSimulator, store: PersistentStore) -> list:
    """Record ``(crash time, WAL length)`` at every crash of the run."""
    seen = []
    crash_server = simulator.crash_server

    def spy(position, now, graceful=False):
        seen.append((now, len(store.wal)))
        return crash_server(position, now, graceful=graceful)

    simulator.crash_server = spy
    return seen


@pytest.mark.parametrize("strategy_key", ["dynasore_hmetis", "spar", "random"])
def test_wal_follows_the_write_subsequence(strategy_key):
    """Mixed runs crossing chunk, tick and fault boundaries log every write
    once, in stream order, and each crash finds exactly the earlier ones."""
    rows = _mirror_rows()
    store = PersistentStore()
    simulator = _mirror_simulator(
        strategy_key, scenario=_crash_scenario(), persistent_store=store
    )
    crashes = _watch_crashes(simulator, store)
    result = simulator.run(EventStream.from_rows(rows, chunk_size=_MIRROR_CHUNK))

    writes = _written(rows)
    assert _wal_sequence(store) == writes
    assert result.writes_executed == len(writes)
    assert [now for now, _ in crashes] == [_MIRROR_CRASH] * 2
    for now, logged in crashes:
        assert logged == sum(1 for _, timestamp in writes if timestamp < now)
    store.verify_integrity()


@pytest.mark.parametrize("strategy_key", ["spar", "random"])
def test_partitioned_wal_holds_the_owned_writes(strategy_key):
    """shards=2: behind each worker's stream filter, its WAL is its owned
    slice of the write subsequence (DynaSoRe is not ``shard_requests_pure``:
    the sharded runner refuses it, so it replays only through the
    single-process loop tested above)."""
    rows = _mirror_rows()
    owner_map = _build_owner_map(parity_graph(users=_MIRROR_USERS), 2)
    logged = 0
    for shard_id in range(2):
        store = PersistentStore()
        simulator = _mirror_simulator(
            strategy_key,
            scenario=CompositeScenario(_crash_scenario(), ShardFilter(shard_id, owner_map)),
            persistent_store=store,
        )
        crashes = _watch_crashes(simulator, store)
        simulator.run(EventStream.from_rows(rows, chunk_size=_MIRROR_CHUNK))
        owned = _written(rows, owned=lambda user: owner_map[user] == shard_id)
        assert owned and _wal_sequence(store) == owned
        for now, seen in crashes:
            assert seen == sum(1 for _, timestamp in owned if timestamp < now)
        logged += len(owned)
    assert logged == len(_written(rows))


def test_store_appearing_mid_run_mirrors_only_later_writes():
    """No crash is staged, so no store exists at t=0; a pre-tick hook crashes
    a server at the third tick and recovery creates the store.  Batched and
    one-event runs log exactly the writes that follow."""
    rows = _mirror_rows()
    crash_tick = 3 * HOUR

    def run(batch: bool):
        simulator = _mirror_simulator("random")
        if not batch:
            observe_per_event(simulator)

        def crash(now):
            if now == crash_tick:
                simulator.crash_server(0, now)

        simulator.add_pre_tick_hook(crash)
        assert simulator.persistent_store is None
        simulator.run(EventStream.from_rows(rows, chunk_size=_MIRROR_CHUNK))
        return _wal_sequence(simulator.persistent_store)

    later = [write for write in _written(rows) if write[1] >= crash_tick]
    assert 0 < len(later) < len(_written(rows))
    assert run(batch=True) == later
    assert run(batch=False) == later


@pytest.mark.parametrize("strategy_key", ["dynasore_hmetis", "random"])
def test_store_does_not_fragment_the_runs(strategy_key):
    """A count, not a timing: with a store attached, only ticks, faults,
    chunk ends and edge events may end a run — a write never does."""
    rows = _mirror_rows()
    stream = EventStream.from_rows(rows, chunk_size=_MIRROR_CHUNK)
    simulator = _mirror_simulator(strategy_key, scenario=_crash_scenario())
    strategy = simulator.strategy
    calls = []
    for name in ("execute_request_batch", "execute_read", "execute_write"):

        def spy(*args, _original=getattr(strategy, name)):
            calls.append(1)
            return _original(*args)

        setattr(strategy, name, spy)
    ticks = []
    simulator.add_pre_tick_hook(ticks.append)
    result = simulator.run(stream)

    assert simulator.persistent_store is not None
    edges = sum(1 for kind, *_ in rows if kind == KIND_EDGE_ADD)
    chunks = sum(1 for _ in stream.chunks())
    bound = len(ticks) + len(result.fault_records) + chunks + edges + 1
    assert len(calls) <= bound
    assert bound < len(_written(rows)) // 4  # the guard can tell the two apart
