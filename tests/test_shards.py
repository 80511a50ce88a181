"""Sharded multi-process replay: byte-identity, fallbacks, and plumbing.

The contract under test is *exactness*: for every strategy and scenario of
the golden parity matrix, replaying through ``shards`` worker processes
must produce a :class:`~repro.simulator.results.SimulationResult` that is
**byte-identical** to the single-process batched path — partitioned
execution for the pure strategies, transparent replicated fallback for the
rest.  The suite also pins the fallback reasons, the closed-universe guard,
the partitioner entry point, the ``RunSpec``/executor integration (one
cache entry across shard counts) and the heartbeat protocol.

CI's sharded parity job selects the crash scenario with ``-k crash``; keep
scenario names inside the test ids.
"""

from __future__ import annotations

import dataclasses
import functools

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
from repro.exceptions import ShardFallbackError, SimulationError
from repro.partitioning import assign_user_shards
from repro.runtime.executor import Progress, ResultCache, RuntimeExecutor, execute_spec
from repro.runtime.spec import (
    STRATEGY_KEYS,
    GraphSpec,
    RunSpec,
    TopologySpec,
    WorkloadSpec,
    build_strategy,
)
from repro.simulator.shard import (
    ShardHeartbeat,
    ShardLoadSummary,
    ShardMaterials,
    _build_owner_map,
    _execute_shard,
    materials_from_spec,
    placement_digest,
    run_sharded,
    run_sharded_detailed,
)
from repro.workload.stream import KIND_READ, KIND_WRITE, NO_AUX, EventStream

#: Strategies whose request execution never feeds back into placement —
#: exactly the set the engine may partition (``shard_requests_pure``).
PURE_STRATEGIES = frozenset({"random", "metis", "hmetis", "spar"})


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


# ---------------------------------------------------------------------------
# Byte-identity across the full parity matrix
# ---------------------------------------------------------------------------
class TestShardedParity:
    """shards=k replay is byte-identical to the single-process path."""

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    @pytest.mark.parametrize("strategy_key", STRATEGY_KEYS)
    def test_two_shards_byte_identical(self, strategy_key, scenario_key):
        report = run_sharded_detailed(parity_materials(strategy_key, scenario_key), 2)
        reference = run_strategy(strategy_key, scenario_key, tracked=0)
        assert canonical_result_bytes(report.result) == canonical_result_bytes(
            reference
        ), f"sharded replay diverged for {strategy_key}/{scenario_key}"
        expected = "partitioned" if strategy_key in PURE_STRATEGIES else "replicated"
        assert report.mode == expected

    def test_four_shards_byte_identical(self):
        report = run_sharded_detailed(parity_materials("spar", "crash"), 4)
        reference = run_strategy("spar", "crash", tracked=0)
        assert report.mode == "partitioned"
        assert len(report.outcomes) == 4
        assert canonical_result_bytes(report.result) == canonical_result_bytes(
            reference
        )

    def test_one_shard_runs_in_process(self):
        report = run_sharded_detailed(parity_materials("random", "plain"), 1)
        reference = run_strategy("random", "plain", tracked=0)
        assert report.mode == "single"
        assert report.fallback_reason is None
        assert canonical_result_bytes(report.result) == canonical_result_bytes(
            reference
        )

    def test_wave_scheduling_changes_nothing(self):
        """Workers never wait on each other, so running the fleet one
        process at a time (max_workers=1) is byte-identical."""
        waves = run_sharded(parity_materials("spar", "plain"), 3, max_workers=1)
        at_once = run_sharded(parity_materials("spar", "plain"), 3)
        assert canonical_result_bytes(waves) == canonical_result_bytes(at_once)

    def test_partitioned_workers_agree_on_placement(self):
        """The replicated-decision-plane audit: every worker ends with the
        same placement digest, and the merge records the assignment."""
        report = run_sharded_detailed(parity_materials("metis", "diurnal"), 2)
        assert report.mode == "partitioned"
        digests = {outcome.digest for outcome in report.outcomes}
        assert len(digests) == 1 and None not in digests
        assert report.assignment is not None
        assert report.assignment.shards == 2


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
    report = run_sharded_detailed(skewed_materials(strategy_key, scenario_key), 1)
    return canonical_result_bytes(report.result)


class TestSkewedShardedParity:
    """On a heavy-tailed stream the shards own very unequal shares of the
    events; the merged result must not notice.  This matrix carries a skewed stream
    through the 2- and 4-shard partitioned merge."""

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    @pytest.mark.parametrize("strategy_key", STRATEGY_KEYS)
    def test_skewed_two_shards_byte_identical(self, strategy_key, scenario_key):
        report = run_sharded_detailed(skewed_materials(strategy_key, scenario_key), 2)
        assert canonical_result_bytes(report.result) == skewed_reference_bytes(
            strategy_key, scenario_key
        ), f"skewed sharded replay diverged for {strategy_key}/{scenario_key}"
        expected = "partitioned" if strategy_key in PURE_STRATEGIES else "replicated"
        assert report.mode == expected

    @pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
    @pytest.mark.parametrize("strategy_key", sorted(PURE_STRATEGIES))
    def test_skewed_four_shards_byte_identical(self, strategy_key, scenario_key):
        report = run_sharded_detailed(skewed_materials(strategy_key, scenario_key), 4)
        assert report.mode == "partitioned"
        assert canonical_result_bytes(report.result) == skewed_reference_bytes(
            strategy_key, scenario_key
        ), f"skewed 4-shard replay diverged for {strategy_key}/{scenario_key}"
        assert report.load_summary is not None


# ---------------------------------------------------------------------------
# Fallback semantics
# ---------------------------------------------------------------------------
class TestReplicatedFallback:
    def test_impure_strategy_reports_reason(self):
        report = run_sharded_detailed(parity_materials("dynasore_metis", "plain"), 2)
        assert report.mode == "replicated"
        assert "shard_requests_pure" in report.fallback_reason

    def test_open_universe_triggers_guard_then_replicated(self):
        """An event touching a user outside the initial graph makes a worker
        raise ShardFallbackError *before* executing the chunk; the
        coordinator restarts replicated and still matches serial replay."""
        materials = parity_materials("random", "plain")
        base_stream = materials.stream_factory

        def with_alien(graph):
            alien = max(graph.users) + 17
            rows = [
                (KIND_WRITE, 30.0, alien, NO_AUX),
                (KIND_READ, 60.0, alien, NO_AUX),
            ]
            prefix = EventStream.from_rows(rows)
            from repro.workload.stream import merge_streams

            return merge_streams(prefix, base_stream(graph))

        materials.stream_factory = with_alien
        report = run_sharded_detailed(materials, 2)
        assert report.mode == "replicated"
        assert "initial graph" in report.fallback_reason
        reference = run_sharded(materials, 1)
        assert canonical_result_bytes(report.result) == canonical_result_bytes(
            reference
        )

    def test_guard_raises_before_any_event_executes(self):
        """Unit-level: a partitioned worker whose owner map cannot resolve
        the chunk's users fails with ShardFallbackError."""
        materials = parity_materials("random", "plain")
        with pytest.raises(ShardFallbackError):
            _execute_shard(0, 2, True, b"", materials)

    def test_shard_count_validation(self):
        materials = parity_materials("random", "plain")
        with pytest.raises(SimulationError):
            run_sharded_detailed(materials, 0)
        with pytest.raises(SimulationError):
            run_sharded_detailed(materials, 2, max_workers=0)


# ---------------------------------------------------------------------------
# Partitioner entry point
# ---------------------------------------------------------------------------
class TestUserSharding:
    def test_assignment_is_balanced_and_total(self):
        graph = parity_graph()
        assignment = assign_user_shards(graph, 4)
        assert assignment.shards == 4
        assert sum(assignment.populations) == len(graph.users)
        assert max(assignment.populations) - min(assignment.populations) <= max(
            2, len(graph.users) // 8
        )

    def test_assignment_is_deterministic(self):
        graph = parity_graph()
        first = assign_user_shards(graph, 3)
        second = assign_user_shards(graph, 3)
        assert first.shard_map == second.shard_map
        assert first.edge_cut == second.edge_cut

    def test_owner_of_covers_unmapped_users(self):
        graph = parity_graph()
        assignment = assign_user_shards(graph, 3)
        beyond = len(assignment.shard_map) + 5
        assert assignment.owner_of(beyond) == beyond % 3
        for user in list(graph.users)[:10]:
            assert assignment.owner_of(user) == assignment.shard_map[user]

    def test_single_shard_is_trivial(self):
        graph = parity_graph()
        assignment = assign_user_shards(graph, 1)
        assert set(assignment.shard_map) == {0}
        assert assignment.edge_cut == 0

    def test_shard_count_bounds(self):
        from repro.exceptions import PartitioningError

        graph = parity_graph()
        with pytest.raises(PartitioningError):
            assign_user_shards(graph, 0)
        with pytest.raises(PartitioningError):
            assign_user_shards(graph, 257)

    def test_owner_map_marks_holes_unowned(self):
        from repro.simulator.engine import UNOWNED

        graph = parity_graph()
        assignment = assign_user_shards(graph, 2)
        owner_map = _build_owner_map(graph, assignment)
        users = set(graph.users)
        for user in range(len(owner_map)):
            if user in users:
                assert owner_map[user] == assignment.shard_map[user]
            else:
                assert owner_map[user] == UNOWNED


# ---------------------------------------------------------------------------
# Placement digests
# ---------------------------------------------------------------------------
class TestPlacementDigest:
    def test_equal_runs_equal_digest(self):
        results = []
        for _ in range(2):
            materials = parity_materials("spar", "plain")
            outcome = _execute_shard(0, 1, False, b"", materials)
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
            from repro.simulator.engine import ClusterSimulator

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
    from repro.simulator.engine import ClusterSimulator

    simulator = ClusterSimulator(topology, graph, strategy, materials.config)
    result = simulator.run(materials.stream_factory(graph))
    assert canonical_result_bytes(result) == canonical_result_bytes(outcome.result)
    return placement_digest(strategy)


# ---------------------------------------------------------------------------
# RunSpec / executor / CLI integration
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
    def test_execute_spec_routes_shards(self):
        spec = small_spec()
        single = execute_spec(spec)
        sharded = execute_spec(dataclasses.replace(spec, shards=2))
        assert canonical_result_bytes(sharded) == canonical_result_bytes(single)

    def test_cache_key_ignores_shards(self):
        spec = small_spec()
        assert spec.cache_key() == dataclasses.replace(spec, shards=4).cache_key()

    def test_executor_shares_cache_across_shard_counts(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "cache")
        serial = RuntimeExecutor(cache=cache).run([spec])[0]
        seen: list[Progress] = []
        sharded_executor = RuntimeExecutor(
            cache=cache, shards=2, progress=seen.append
        )
        sharded = sharded_executor.run([spec])[0]
        assert canonical_result_bytes(sharded) == canonical_result_bytes(serial)
        assert seen[-1].cached == 1  # second run was a pure cache hit

    def test_executor_validates_shards(self):
        with pytest.raises(ValueError):
            RuntimeExecutor(shards=0)

    def test_materials_from_spec_rejects_tracked_views(self):
        spec = small_spec(tracked_views=(3,))
        with pytest.raises(SimulationError):
            materials_from_spec(spec)

    def test_cli_exposes_shards_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "figure3c", "--shards", "4"])
        assert args.shards == 4


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------
class TestHeartbeats:
    def test_single_mode_emits_heartbeats(self):
        beats = []
        run_sharded_detailed(
            parity_materials("random", "plain"),
            1,
            progress=beats.append,
            heartbeat_interval=0.0,
            horizon=43200.0,
        )
        assert beats
        first = beats[0]
        assert first.mode == "single"
        assert "shard 1/1" in first.describe()
        assert any(beat.eta_seconds is not None for beat in beats)

    def test_partitioned_workers_emit_heartbeats(self):
        beats = []
        report = run_sharded_detailed(
            parity_materials("spar", "plain"),
            2,
            progress=beats.append,
            heartbeat_interval=0.0,
        )
        assert report.mode == "partitioned"
        heartbeats = [beat for beat in beats if isinstance(beat, ShardHeartbeat)]
        assert {beat.shard_id for beat in heartbeats} <= {0, 1}
        assert all(beat.mode == "partitioned" for beat in heartbeats)
        assert heartbeats, "workers never reported"

    def test_partitioned_run_emits_load_summary(self):
        """After the merge, the coordinator reports expected vs. actual
        per-shard load through the same progress channel."""
        beats = []
        report = run_sharded_detailed(
            parity_materials("spar", "plain"), 2, progress=beats.append
        )
        assert report.mode == "partitioned"
        summaries = [beat for beat in beats if isinstance(beat, ShardLoadSummary)]
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary is report.load_summary
        assert len(summary.cpu_shares) == 2
        assert abs(sum(summary.cpu_shares) - 1.0) < 1e-9
        assert abs(sum(summary.expected_shares) - 1.0) < 1e-9
        assert summary.cpu_imbalance >= 1.0
        line = summary.describe()
        assert "population-balanced" in line and "cpu imbalance" in line

    def test_progress_note_rendering(self):
        progress = Progress(
            completed=1, total=2, cached=0, elapsed=3.0, eta=None, note="shard 1/2"
        )
        assert progress.describe().endswith("— shard 1/2")
