"""Tests for the parallel experiment runtime (specs, grids, executor, cache)."""

from __future__ import annotations

import pickle

import pytest

from repro.config import ClusterSpec, SimulationConfig
from repro.exceptions import ConfigurationError
from repro.runtime import (
    FlashSpec,
    GraphSpec,
    ResultCache,
    RunGrid,
    RunSpec,
    RuntimeExecutor,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_strategy,
    execute_spec,
)
from repro.runtime import executor as executor_module
from repro.scenarios.faults import CrashRecoverScenario
from repro.simulator.results import SimulationResult
from repro.topology.flat import FlatTopology
from repro.topology.tree import TreeTopology


TINY_CLUSTER = ClusterSpec(
    intermediate_switches=2,
    racks_per_intermediate=2,
    machines_per_rack=4,
    brokers_per_rack=1,
)


def tiny_spec(strategy: str = "random", memory: float = 50.0, **kwargs) -> RunSpec:
    """A spec small enough to execute many times in tests."""
    return RunSpec(
        topology=TopologySpec.tree(TINY_CLUSTER),
        graph=GraphSpec(dataset="facebook", users=120, seed=3),
        workload=WorkloadSpec(kind="synthetic", days=0.2, seed=11),
        strategy=strategy,
        config=SimulationConfig(extra_memory_pct=memory, seed=5),
        **kwargs,
    )


class TestSpecs:
    def test_run_spec_is_hashable_and_picklable(self):
        spec = tiny_spec()
        assert hash(spec) == hash(tiny_spec())
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_cache_key_is_stable_and_distinct(self):
        spec = tiny_spec()
        assert spec.cache_key() == tiny_spec().cache_key()
        assert spec.cache_key() != tiny_spec(memory=100.0).cache_key()
        assert spec.cache_key() != tiny_spec(strategy="spar").cache_key()

    def test_topology_spec_builds_both_kinds(self):
        assert isinstance(TopologySpec.tree(TINY_CLUSTER).build(), TreeTopology)
        assert isinstance(TopologySpec.flat(10).build(), FlatTopology)
        with pytest.raises(ConfigurationError):
            TopologySpec(kind="torus")

    def test_graph_spec_is_deterministic(self):
        spec = GraphSpec(dataset="facebook", users=120, seed=3)
        a, b = spec.build(), spec.build()
        assert a.num_users == b.num_users == 120
        assert sorted(a.edges()) == sorted(b.edges())

    def test_workload_spec_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(kind="replay", days=1.0, seed=1)

    def test_flash_workload_reports_tracked_target(self):
        graph = GraphSpec(dataset="facebook", users=120, seed=3).build()
        workload = WorkloadSpec(
            kind="synthetic",
            days=0.3,
            seed=11,
            flash=FlashSpec(followers=10, start_day=0.05, end_day=0.2),
        )
        stream, tracked = workload.build_stream(graph)
        assert len(tracked) == 1
        assert graph.has_user(tracked[0])
        assert stream.stats().mutations >= 10

    def test_scenario_spec_roundtrip(self):
        spec = ScenarioSpec.of("crash_recover", crash_time=10.0, recover_time=20.0, count=1)
        scenario = spec.build()
        assert isinstance(scenario, CrashRecoverScenario)
        assert scenario.crash_time == 10.0
        for kind in ("volcano", "rack_outage", "node_churn", "regional_flash_crowd"):
            with pytest.raises(ConfigurationError):
                ScenarioSpec.of(kind).build()

    def test_build_strategy_registry(self):
        assert build_strategy("spar", seed=1).name == "spar"
        assert build_strategy("dynasore_hmetis", seed=1).name == "dynasore[hmetis]"
        with pytest.raises(ConfigurationError):
            build_strategy("oracle", seed=1)


class TestGrid:
    def test_product_expansion_order(self):
        configs = [SimulationConfig(extra_memory_pct=m, seed=5) for m in (0.0, 50.0)]
        grid = RunGrid.product(
            TopologySpec.tree(TINY_CLUSTER),
            GraphSpec(dataset="facebook", users=120, seed=3),
            WorkloadSpec(kind="synthetic", days=0.2, seed=11),
            configs,
            ("random", "spar"),
        )
        assert len(grid) == 4
        # Strategy is the innermost axis.
        assert [spec.strategy for spec in grid] == ["random", "spar", "random", "spar"]
        assert [spec.config.extra_memory_pct for spec in grid] == [0.0, 0.0, 50.0, 50.0]

    def test_grid_result_select(self):
        grid = RunGrid.product(
            TopologySpec.tree(TINY_CLUSTER),
            GraphSpec(dataset="facebook", users=120, seed=3),
            WorkloadSpec(kind="synthetic", days=0.2, seed=11),
            [SimulationConfig(extra_memory_pct=m, seed=5) for m in (0.0, 50.0)],
            ("random", "spar"),
        )
        outcome = grid.run(RuntimeExecutor())
        by_strategy = outcome.by_strategy(extra_memory_pct=50.0)
        assert set(by_strategy) == {"random", "spar"}
        assert all(isinstance(r, SimulationResult) for r in by_strategy.values())


class TestExecutor:
    def test_execute_spec_runs_scenario_and_tracking(self):
        spec = tiny_spec(
            strategy="dynasore_hmetis",
            scenario=ScenarioSpec.of("crash_recover", crash_time=600.0, count=1),
            tracked_views=(0,),
        )
        result = execute_spec(spec)
        assert result.requests_executed > 0
        assert [record.kind for record in result.fault_records] == ["crash"]
        assert 0 in result.tracked_views

    def test_serial_and_parallel_results_are_byte_identical(self):
        specs = [tiny_spec("random"), tiny_spec("spar"), tiny_spec("dynasore_hmetis")]
        serial = RuntimeExecutor(jobs=1).run(specs)
        parallel = RuntimeExecutor(jobs=2).run(specs)
        assert [pickle.dumps(a) for a in serial] == [pickle.dumps(b) for b in parallel]

    def test_cached_rerun_returns_identical_result_without_executing(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        executor = RuntimeExecutor(jobs=1, cache=cache)
        spec = tiny_spec("spar")
        first = executor.run([spec])[0]

        def boom(_spec):  # pragma: no cover - must never run
            raise AssertionError("cache miss: spec was re-executed")

        monkeypatch.setattr(executor_module, "execute_spec", boom)
        second = executor.run([spec])[0]
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_cache_survives_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec("random")
        cache.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(spec).write_bytes(b"not a pickle")
        assert cache.get(spec) is None
        result = RuntimeExecutor(cache=cache).run([spec])[0]
        assert cache.get(spec) is not None
        assert pickle.dumps(cache.get(spec)) == pickle.dumps(result)

    def test_unreadable_entries_are_counted_misses(self, tmp_path):
        """Truncated, version-skewed (a class or module the code no longer
        has), malformed and foreign payloads read as misses — and are counted, so somebody can
        be told; a spec that was never cached is a plain miss."""
        cache = ResultCache(tmp_path)
        spec = tiny_spec("random")
        assert cache.get(spec) is None and cache.unreadable == 0
        RuntimeExecutor(cache=cache).run([spec])
        path = cache.path_for(spec)
        whole = path.read_bytes()
        assert cache.get(spec) is not None and cache.unreadable == 0
        for count, payload in enumerate(
            [
                whole[: len(whole) // 2],
                b"crepro.simulator.results\nResultOfAnOlderVersion\n.",
                pickle.dumps({"key": "somebody else's", "result": None}),
                b"crepro.legacy.tables\nReplicaTable\n.",  # a module that is gone
                b"I12x\n.",  # a malformed int opcode
                b"X\x02\x00\x00\x00\xff\xfe.",  # invalid UTF-8 in a string
            ],
            start=1,
        ):
            path.write_bytes(payload)
            assert cache.get(spec) is None
            assert cache.unreadable == count
        path.write_bytes(whole)
        assert cache.get(spec) is not None and cache.unreadable == 6

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_cli_rejects_jobs_below_one(self, jobs, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as caught:
            main(["run", "figure7", "--profile", "ci", "--no-cache", "--jobs", jobs])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--jobs must be at least 1" in err

    def test_cli_reports_unreadable_entries_on_stderr(self, tmp_path, capsys):
        from repro.cli import main

        arguments = ["run", "figure7", "--profile", "ci", "--cache-dir", str(tmp_path)]
        assert main(arguments) == 0
        assert "unreadable" not in capsys.readouterr().err
        entries = sorted(tmp_path.glob("*.pkl"))
        assert entries
        for path in entries:
            path.write_bytes(path.read_bytes()[:100])
        assert main(arguments) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if "unreadable" in line]
        assert warnings == [
            f"warning: {len(entries)} unreadable entries in {tmp_path} were recomputed"
        ]
        assert main(arguments) == 0
        assert "unreadable" not in capsys.readouterr().err

    def test_cache_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        RuntimeExecutor(cache=cache).run([tiny_spec("random")])
        assert cache.clear() == 1
        assert cache.get(tiny_spec("random")) is None

    def test_progress_reports_completion(self):
        seen = []
        executor = RuntimeExecutor(progress=seen.append)
        executor.run([tiny_spec("random"), tiny_spec("spar")])
        assert seen[-1].completed == seen[-1].total == 2
        assert seen[-1].describe().startswith("2/2")

    def test_rejects_bad_job_count(self):
        with pytest.raises(ValueError):
            RuntimeExecutor(jobs=0)


class TestDeterminismAcrossBackends:
    """Satellite: serial vs --jobs 2 vs cached re-run, byte-identical."""

    def test_grid_serial_parallel_cache_identical(self, tmp_path):
        configs = [SimulationConfig(extra_memory_pct=m, seed=5) for m in (0.0, 50.0)]
        grid = RunGrid.product(
            TopologySpec.tree(TINY_CLUSTER),
            GraphSpec(dataset="facebook", users=120, seed=3),
            WorkloadSpec(kind="synthetic", days=0.2, seed=11),
            configs,
            ("random", "dynasore_hmetis"),
        )
        serial = RuntimeExecutor(jobs=1, cache=ResultCache(tmp_path)).run(grid.specs)
        parallel = RuntimeExecutor(jobs=2).run(grid.specs)
        cached = RuntimeExecutor(jobs=1, cache=ResultCache(tmp_path)).run(grid.specs)
        payloads = [pickle.dumps(result) for result in serial]
        assert payloads == [pickle.dumps(result) for result in parallel]
        assert payloads == [pickle.dumps(result) for result in cached]
        # The grid carries the paper's ordering through the executor:
        # with memory, DynaSoRe crosses the top switch less than Random.
        traffic = {
            (spec.strategy, spec.config.extra_memory_pct): result.top_switch_traffic
            for spec, result in zip(grid.specs, serial)
        }
        assert traffic[("dynasore_hmetis", 50.0)] < traffic[("random", 50.0)]
