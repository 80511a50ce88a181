"""Sharded multi-process replay: byte-identity, refusals, and plumbing.

The contract under test is *exactness*: for every pure strategy
(``shard_requests_pure``) and scenario of the golden parity matrix,
replaying through ``shards`` partitioned worker processes must produce a
:class:`~repro.simulator.results.SimulationResult` that is
**byte-identical** to the single-process path.  Every other strategy is
refused before any worker starts.  The suite also pins the workers' stream
filter and closed-universe guard, the invariant the dropped single
messages rest on, the owner map (shard ``user % shards``), the placement
digests, the fields the benchmark's two-shard block reads, and that the
spec, the executor, the command line and the simulator take no shard count.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import random

import pytest

from parity import (
    SCENARIOS,
    canonical_result_bytes,
    parity_cluster,
    parity_graph,
    parity_stream,
    run_strategy,
)
from repro.config import DynaSoReConfig, SimulationConfig
from repro.exceptions import SimulationError
from repro.scenarios.base import CompositeScenario, ScenarioContext
from repro.runtime.executor import RuntimeExecutor, execute_spec
from repro.runtime.spec import (
    STRATEGY_KEYS,
    GraphSpec,
    RunSpec,
    TopologySpec,
    WorkloadSpec,
    build_strategy,
)
from repro.simulator import shard
from repro.simulator.engine import ClusterSimulator
from repro.simulator.shard import (
    UNOWNED,
    ShardFilter,
    ShardMaterials,
    _build_owner_map,
    _execute_shard,
    materials_from_spec,
    placement_digest,
    run_sharded_detailed,
)
from repro.socialgraph.generators import facebook_like, livejournal_like, twitter_like
from repro.traffic.accounting import TrafficAccountant
from repro.workload.stream import (
    KIND_EDGE_ADD,
    KIND_EDGE_REMOVE,
    KIND_READ,
    KIND_WRITE,
    NO_AUX,
    EventStream,
    merge_streams,
)

#: Strategies whose request execution never feeds back into placement —
#: exactly the set the engine may partition (``shard_requests_pure``).
PURE_STRATEGIES = frozenset({"random", "metis", "hmetis", "spar"})

#: Generated graphs (contiguous ids ``0..users-1``) for the owner-map and
#: filter grids, at the partition goldens' sizes and seed.
GENERATED = {"twitter": twitter_like, "facebook": facebook_like, "livejournal": livejournal_like}
GENERATED_USERS = (150, 700, 2500)


def parity_materials(strategy_key: str, scenario_key: str) -> ShardMaterials:
    """Shard materials mirroring :func:`parity.run_strategy` (tracked=0)."""
    return ShardMaterials(
        topology_factory=lambda: parity_cluster()[0],
        graph_factory=parity_graph,
        strategy_factory=lambda: build_strategy(strategy_key, 7, DynaSoReConfig()),
        stream_factory=parity_stream,
        config=SimulationConfig(extra_memory_pct=60.0, seed=7),
        scenario_factory=SCENARIOS[scenario_key],
    )


def churned_stream(graph) -> EventStream:
    """The parity stream plus 60 follow edges added and 20 of them removed
    again over its half day (the synthetic generator emits no graph churn)."""
    rng = random.Random(3)
    users = sorted(graph.users)
    rows = []
    for index in range(60):
        follower, followee = rng.sample(users, 2)
        added = 600.0 * index + rng.uniform(1.0, 500.0)
        rows.append((KIND_EDGE_ADD, added, follower, followee))
        if index % 3 == 0:
            rows.append((KIND_EDGE_REMOVE, added + 3_000.0, follower, followee))
    rows.sort(key=lambda row: row[1])
    return merge_streams(parity_stream(graph), EventStream.from_rows(rows))


def single_process_bytes(materials: ShardMaterials) -> bytes:
    """Canonical bytes of the materials replayed in this process."""
    graph = materials.graph_factory()
    simulator = ClusterSimulator(
        materials.topology_factory(),
        graph,
        materials.strategy_factory(),
        config=materials.config,
        scenario=materials.scenario_factory(),
    )
    return canonical_result_bytes(simulator.run(materials.stream_factory(graph)))


def forbid_workers(monkeypatch) -> None:
    """Fail the test if the coordinator gets as far as starting a worker."""

    def refuse():
        raise AssertionError("a shard worker was started")

    monkeypatch.setattr(shard, "_mp_context", refuse)


def assert_refused(materials: ShardMaterials, shards: int, match: str) -> None:
    with pytest.raises(SimulationError, match=match):
        run_sharded_detailed(materials, shards)


# ---------------------------------------------------------------------------
# Byte-identity across the full parity matrix
# ---------------------------------------------------------------------------
class TestShardedParity:
    """shards=k replay is byte-identical to the single-process path."""

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    @pytest.mark.parametrize("strategy_key", STRATEGY_KEYS)
    def test_two_shards_byte_identical(self, strategy_key, scenario_key, monkeypatch):
        materials = parity_materials(strategy_key, scenario_key)
        if strategy_key not in PURE_STRATEGIES:
            forbid_workers(monkeypatch)
            assert_refused(materials, 2, "shard_requests_pure")
            return
        report = run_sharded_detailed(materials, 2)
        reference = run_strategy(strategy_key, scenario_key, tracked=0)
        assert canonical_result_bytes(report.result) == canonical_result_bytes(
            reference
        ), f"sharded replay diverged for {strategy_key}/{scenario_key}"

    def test_four_shards_byte_identical(self):
        report = run_sharded_detailed(parity_materials("spar", "crash"), 4)
        reference = run_strategy("spar", "crash", tracked=0)
        assert len(report.outcomes) == 4
        assert canonical_result_bytes(report.result) == canonical_result_bytes(
            reference
        )

    @pytest.mark.parametrize("strategy_key", sorted(PURE_STRATEGIES))
    def test_one_shard_is_a_one_worker_fleet(self, strategy_key):
        materials = parity_materials(strategy_key, "plain")
        report = run_sharded_detailed(materials, 1)
        assert [outcome.shard_id for outcome in report.outcomes] == [0]
        assert canonical_result_bytes(report.result) == single_process_bytes(materials)

    @pytest.mark.parametrize("scenario_key", ["plain", "crash"])
    @pytest.mark.parametrize("strategy_key", ["random", "spar"])
    def test_edge_churn_two_shards_byte_identical(self, strategy_key, scenario_key):
        """Every worker applies every edge event: they settle the requests
        each worker tallied, and SPAR, given the room, co-locates on them."""
        materials = dataclasses.replace(
            parity_materials(strategy_key, scenario_key),
            stream_factory=churned_stream,
            config=SimulationConfig(extra_memory_pct=1000.0, seed=7),
        )
        report = run_sharded_detailed(materials, 2)
        assert canonical_result_bytes(report.result) == single_process_bytes(materials)

    def test_partitioned_workers_agree_on_placement(self):
        """The replicated-decision-plane audit: every worker ends with the
        same placement digest."""
        report = run_sharded_detailed(parity_materials("metis", "diurnal"), 2)
        digests = {outcome.digest for outcome in report.outcomes}
        assert len(digests) == 1 and None not in digests
        assert report.shards == 2


# ---------------------------------------------------------------------------
# Byte-identity on a skewed workload
# ---------------------------------------------------------------------------
def skewed_workload() -> WorkloadSpec:
    """The news-activity trace at its default Pareto tail (``activity_shape``
    1.3): a few users carry most of the events."""
    return WorkloadSpec.of("trace", days=1.0, seed=5)


def skewed_materials(strategy_key: str, scenario_key: str) -> ShardMaterials:
    """Shard materials replaying the skewed workload over the parity graph."""
    workload = skewed_workload()

    def stream_factory(graph):
        stream, _ = workload.build_stream(graph)
        return stream

    return ShardMaterials(
        topology_factory=lambda: parity_cluster()[0],
        graph_factory=parity_graph,
        strategy_factory=lambda: build_strategy(strategy_key, 7, DynaSoReConfig()),
        stream_factory=stream_factory,
        config=SimulationConfig(extra_memory_pct=60.0, seed=7),
        scenario_factory=SCENARIOS[scenario_key],
    )


@functools.lru_cache(maxsize=None)
def skewed_reference_bytes(strategy_key: str, scenario_key: str) -> bytes:
    """Single-process reference of the skewed workload, cached per cell."""
    return single_process_bytes(skewed_materials(strategy_key, scenario_key))


class TestSkewedShardedParity:
    """On a heavy-tailed stream the shards own very unequal shares of the
    events; the merged result must not notice.  This matrix carries a skewed stream
    through the 2- and 4-shard partitioned merge."""

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    @pytest.mark.parametrize("strategy_key", STRATEGY_KEYS)
    def test_skewed_two_shards_byte_identical(self, strategy_key, scenario_key, monkeypatch):
        materials = skewed_materials(strategy_key, scenario_key)
        if strategy_key not in PURE_STRATEGIES:
            forbid_workers(monkeypatch)
            assert_refused(materials, 2, "shard_requests_pure")
            return
        report = run_sharded_detailed(materials, 2)
        assert canonical_result_bytes(report.result) == skewed_reference_bytes(
            strategy_key, scenario_key
        ), f"skewed sharded replay diverged for {strategy_key}/{scenario_key}"

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    @pytest.mark.parametrize("strategy_key", sorted(PURE_STRATEGIES))
    def test_skewed_four_shards_byte_identical(self, strategy_key, scenario_key):
        report = run_sharded_detailed(skewed_materials(strategy_key, scenario_key), 4)
        assert canonical_result_bytes(report.result) == skewed_reference_bytes(
            strategy_key, scenario_key
        ), f"skewed 4-shard replay diverged for {strategy_key}/{scenario_key}"
        assert report.load_summary is not None


# ---------------------------------------------------------------------------
# Refusals and the closed-universe guard
# ---------------------------------------------------------------------------
class TestRefusals:
    def test_impure_strategy_reports_reason(self, monkeypatch):
        forbid_workers(monkeypatch)
        materials = parity_materials("dynasore_metis", "plain")
        assert_refused(materials, 2, r"'dynasore\[metis\]' feeds requests back")

    def test_impure_strategy_refused_at_one_shard(self, monkeypatch):
        """One shard is a one-worker fleet too, not an in-process fallback:
        an impure strategy is refused there as well."""
        forbid_workers(monkeypatch)
        materials = parity_materials("dynasore_metis", "plain")
        assert_refused(materials, 1, "shard_requests_pure")

    @pytest.mark.parametrize("shards", [1, 2])
    def test_open_universe_guard_fails_the_run(self, shards):
        """An event touching a user outside the initial graph makes a worker
        raise *before* executing the chunk; the coordinator terminates the
        fleet and the guard's reason reaches the caller."""
        materials = parity_materials("random", "plain")
        base_stream = materials.stream_factory

        def with_alien(graph):
            alien = max(graph.users) + 17
            rows = [
                (KIND_WRITE, 30.0, alien, NO_AUX),
                (KIND_READ, 60.0, alien, NO_AUX),
            ]
            prefix = EventStream.from_rows(rows)
            return merge_streams(prefix, base_stream(graph))

        materials.stream_factory = with_alien
        with pytest.raises(SimulationError, match="shard worker . failed") as caught:
            run_sharded_detailed(materials, shards)
        assert "SimulationError: event references a user id beyond the initial graph" in str(
            caught.value
        )

    def test_guard_raises_before_any_event_executes(self):
        """Unit-level: a partitioned worker whose owner map cannot resolve
        the chunk's users fails with SimulationError."""
        materials = parity_materials("random", "plain")
        with pytest.raises(SimulationError, match="beyond the initial graph"):
            _execute_shard(0, b"", materials)

    def test_shard_count_validation(self, monkeypatch):
        forbid_workers(monkeypatch)
        materials = parity_materials("random", "plain")
        for shards in (0, 256):
            assert_refused(materials, shards, r"shards must be in 1\.\.255")


# ---------------------------------------------------------------------------
# The owner map
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_owner_map_is_user_id_modulo_shards(shards):
    """Shard ``user % shards`` owns every user of the initial graph and every
    hole is UNOWNED.  The parity graph's ids are contiguous; one more user
    past a gap of four ids adds the holes.  Populations differ by at most 1."""
    graph = parity_graph()
    graph.add_user(len(graph.users) + 4)
    users = set(graph.users)
    owner_map = _build_owner_map(graph, shards)
    assert len(owner_map) == max(users) + 1
    for user, owner in enumerate(owner_map):
        assert owner == (user % shards if user in users else UNOWNED)
    populations = [owner_map.count(shard_id) for shard_id in range(shards)]
    assert sum(populations) == len(users)
    assert max(populations) - min(populations) <= 1


@pytest.mark.parametrize("shards", [1, 2, 3, 4, 8, 255])
@pytest.mark.parametrize("users", GENERATED_USERS)
@pytest.mark.parametrize("kind", sorted(GENERATED))
def test_owner_map_balances_generated_graphs(kind, users, shards):
    """On every generated graph the owner map covers each user with shard
    ``user % shards``, so populations differ by at most 1 whatever the
    graph's shape.  At 255 shards, the most ``run_sharded_detailed``
    accepts, no owner byte collides with the UNOWNED sentinel."""
    graph = GENERATED[kind](users=users, seed=11)
    owner_map = _build_owner_map(graph, shards)
    assert len(owner_map) == users == len(graph.users)
    assert owner_map.find(UNOWNED) == -1
    assert all(owner_map[user] == user % shards for user in graph.users)
    populations = [owner_map.count(shard_id) for shard_id in range(shards)]
    assert sum(populations) == users
    assert max(populations) - min(populations) <= 1


# ---------------------------------------------------------------------------
# The workers' stream filter and the single messages they drop
# ---------------------------------------------------------------------------
class TestShardFilter:
    @pytest.mark.parametrize("scenario_key", ["plain", "diurnal"])
    def test_two_shards_split_the_requests_and_keep_every_edge(self, scenario_key):
        """Behind the run's own scenario, each shard keeps every edge event
        and exactly its own requests, in stream order; together the shards
        keep every request once, and each tallies the whole stream."""
        topology, _ = parity_cluster()
        graph = parity_graph()
        context = ScenarioContext(topology=topology, graph=graph, seed=7)
        scenario = SCENARIOS[scenario_key]()
        stream = churned_stream(graph)
        if scenario is not None:
            stream = scenario.transform_stream(stream, context)
        rows = list(stream.rows())
        owner_map = _build_owner_map(graph, 2)
        assert any(row[0] > KIND_WRITE for row in rows)
        kept_requests = []
        for shard_id in range(2):
            shard_filter = ShardFilter(shard_id, owner_map)
            filtered = (
                shard_filter
                if scenario is None
                else CompositeScenario(SCENARIOS[scenario_key](), shard_filter)
            ).transform_stream(churned_stream(graph), context)
            kept = list(filtered.rows())
            assert kept == [
                row for row in rows if row[0] > KIND_WRITE or owner_map[row[2]] == shard_id
            ]
            requests = [row for row in kept if row[0] <= KIND_WRITE]
            assert requests
            kept_requests += requests
            assert (shard_filter.events, shard_filter.first_timestamp) == (len(rows), rows[0][1])
            assert shard_filter.last_timestamp == rows[-1][1]
        assert sorted(kept_requests) == sorted(row for row in rows if row[0] <= KIND_WRITE)

    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("users", GENERATED_USERS)
    @pytest.mark.parametrize("kind", sorted(GENERATED))
    def test_shards_split_generated_streams_exactly(self, kind, users, shards):
        """On every generated graph and shard count, each shard keeps every
        edge event and exactly the requests of its users, in stream order;
        together the shards keep every request once."""
        graph = GENERATED[kind](users=users, seed=11)
        context = ScenarioContext(topology=parity_cluster()[0], graph=graph, seed=7)
        rows = list(churned_stream(graph).rows())
        owner_map = _build_owner_map(graph, shards)
        assert any(row[0] > KIND_WRITE for row in rows)
        kept_requests = []
        for shard_id in range(shards):
            shard_filter = ShardFilter(shard_id, owner_map)
            kept = list(shard_filter.transform_stream(churned_stream(graph), context).rows())
            assert kept == [
                row for row in rows if row[0] > KIND_WRITE or row[2] % shards == shard_id
            ]
            kept_requests += [row for row in kept if row[0] <= KIND_WRITE]
            assert (shard_filter.events, shard_filter.first_timestamp) == (len(rows), rows[0][1])
            assert shard_filter.last_timestamp == rows[-1][1]
        assert sorted(kept_requests) == sorted(row for row in rows if row[0] <= KIND_WRITE)


class TestRecordDrop:
    """Every worker but shard 0 drops ``TrafficAccountant.record``.  That is
    exact only while a pure strategy records single messages for the fault
    traffic every worker replays, and for nothing else."""

    @pytest.mark.parametrize("strategy_key", sorted(PURE_STRATEGIES))
    def test_record_is_called_only_inside_on_server_down(self, strategy_key):
        topology, _ = parity_cluster()
        graph = parity_graph()
        strategy = build_strategy(strategy_key, 7, DynaSoReConfig())
        simulator = ClusterSimulator(
            topology,
            graph,
            strategy,
            config=SimulationConfig(extra_memory_pct=60.0, seed=7),
            scenario=SCENARIOS["crash"](),
        )
        depth = []
        on_server_down = strategy.on_server_down

        def spy_server_down(*args, **kwargs):
            depth.append(None)
            try:
                return on_server_down(*args, **kwargs)
            finally:
                depth.pop()

        calls = []
        record = simulator.accountant.record

        def spy_record(*message):
            calls.append(bool(depth))
            return record(*message)

        strategy.on_server_down = spy_server_down
        simulator.accountant.record = spy_record
        simulator.run(parity_stream(graph))
        assert calls and all(calls)


def test_simulator_and_accountant_know_nothing_of_shards():
    """The shard runner partitions the stream itself: the simulator takes no
    shard context and the accountant has no mute."""
    assert "shard_context" not in inspect.signature(ClusterSimulator).parameters
    for name in ("push_mute", "pop_mute", "muted"):
        assert not hasattr(TrafficAccountant, name)


# ---------------------------------------------------------------------------
# Placement digests
# ---------------------------------------------------------------------------
class TestPlacementDigest:
    def test_equal_runs_equal_digest(self):
        results = []
        for _ in range(2):
            materials = parity_materials("spar", "plain")
            graph = materials.graph_factory()
            owner_map = _build_owner_map(graph, 1)
            outcome = _execute_shard(0, owner_map, materials)
            results.append(placement_digest_from(materials, outcome))
        assert results[0] == results[1]
        assert results[0] is not None

    def test_different_strategies_differ(self):
        digests = set()
        for key in ("random", "spar"):
            materials = parity_materials(key, "plain")
            strategy = materials.strategy_factory()
            topology = materials.topology_factory()
            graph = materials.graph_factory()
            simulator = ClusterSimulator(topology, graph, strategy, materials.config)
            simulator.run(materials.stream_factory(graph))
            digests.add(placement_digest(strategy))
        assert len(digests) == 2


def placement_digest_from(materials, outcome) -> str | None:
    """Re-run and digest — helper keeping the digest test honest: digests
    must be reproducible from a fresh build, not from shared state."""
    strategy = materials.strategy_factory()
    topology = materials.topology_factory()
    graph = materials.graph_factory()
    simulator = ClusterSimulator(topology, graph, strategy, materials.config)
    result = simulator.run(materials.stream_factory(graph))
    assert canonical_result_bytes(result) == canonical_result_bytes(outcome.result)
    assert placement_digest(strategy) == outcome.digest
    return placement_digest(strategy)


# ---------------------------------------------------------------------------
# RunSpec materials and the report the benchmark reads
# ---------------------------------------------------------------------------
def small_spec(**overrides) -> RunSpec:
    base = dict(
        topology=TopologySpec(),
        graph=GraphSpec(dataset="facebook", users=120, seed=3),
        workload=WorkloadSpec(kind="synthetic", days=0.2, seed=11),
        strategy="spar",
    )
    base.update(overrides)
    return RunSpec(**base)


class TestSpecIntegration:
    def test_materials_from_spec_match_execute_spec(self):
        """The benchmark's call: a spec's materials over two shards give the
        bytes of ``execute_spec``, and the report carries what it reads."""
        spec = small_spec()
        report = run_sharded_detailed(materials_from_spec(spec), shards=2, seed=7)
        assert canonical_result_bytes(report.result) == canonical_result_bytes(
            execute_spec(spec)
        )
        assert all(outcome.wall_seconds > 0 for outcome in report.outcomes)
        assert report.critical_path_cpu_seconds == max(
            outcome.cpu_seconds for outcome in report.outcomes
        )
        assert report.load_summary.cpu_imbalance >= 1.0

    def test_materials_from_spec_rejects_tracked_views(self):
        spec = small_spec(tracked_views=(3,))
        with pytest.raises(SimulationError):
            materials_from_spec(spec)


class TestLaunchSurface:
    """Nothing outside the benchmark and these tests starts a sharded run:
    the spec, the executor and the command line take no shard count."""

    def test_run_spec_has_no_shard_count(self):
        assert "shards" not in {field.name for field in dataclasses.fields(RunSpec)}
        with pytest.raises(TypeError):
            small_spec(shards=2)

    def test_executor_takes_no_shard_count(self):
        with pytest.raises(TypeError):
            RuntimeExecutor(shards=2)

    def test_cli_rejects_shards_flag(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(["run", "figure3c", "--shards", "4"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --shards 4" in capsys.readouterr().err


class TestLoadSummary:
    def test_report_carries_load_summary(self):
        """After the merge the report holds the measured per-shard load
        shares."""
        report = run_sharded_detailed(parity_materials("spar", "plain"), 2)
        summary = report.load_summary
        assert summary.shards == 2
        assert len(summary.cpu_shares) == 2
        assert abs(sum(summary.cpu_shares) - 1.0) < 1e-9
        assert summary.cpu_imbalance >= 1.0
