"""Tests for the parallel experiment runtime (specs, grids, executor, cache)."""

from __future__ import annotations

import json
import pickle
from dataclasses import asdict

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
        cache.path_for(spec).write_bytes(b"not json")
        assert cache.get(spec) is None
        result = RuntimeExecutor(cache=cache).run([spec])[0]
        assert cache.get(spec) is not None
        assert pickle.dumps(cache.get(spec)) == pickle.dumps(result)

    def test_entries_are_json_of_the_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec("spar")
        result = RuntimeExecutor(cache=cache).run([spec])[0]
        path = cache.path_for(spec)
        assert path.name == f"{spec.cache_key()}.json"
        assert json.loads(path.read_text()) == json.loads(
            json.dumps({"key": spec.cache_key(), "result": asdict(result)})
        )

    @pytest.mark.parametrize(
        "spec",
        [
            tiny_spec(
                "dynasore_hmetis",
                scenario=ScenarioSpec.of(
                    "crash_recover", crash_time=600.0, recover_time=6000.0, count=2
                ),
            ),
            RunSpec(
                topology=TopologySpec.tree(TINY_CLUSTER),
                graph=GraphSpec(dataset="twitter", users=150, seed=3),
                workload=WorkloadSpec(
                    kind="synthetic",
                    days=0.2,
                    seed=11,
                    flash=FlashSpec(followers=10, start_day=0.05, end_day=0.15),
                ),
                strategy="dynasore_random",
                config=SimulationConfig(extra_memory_pct=50.0, seed=5),
                tracked_views=(7,),
            ),
        ],
        ids=["crash_recover", "tracked_flash"],
    )
    def test_cached_result_pickles_like_the_live_one(self, tmp_path, spec):
        """Fault records, tracked-view timelines, int-keyed series and the
        dicts' insertion order all survive the JSON round trip."""
        live = execute_spec(spec)
        if spec.scenario is not None:
            assert [r.kind for r in live.fault_records] == ["crash", "crash", "restore", "restore"]
        else:
            assert len(live.tracked_views) == 2
        cache = ResultCache(tmp_path)
        cache.put(spec, live)
        cached = cache.get(spec)
        assert cache.unreadable == 0
        assert pickle.dumps(cached) == pickle.dumps(live)

    def test_unreadable_entries_are_counted_misses(self, tmp_path):
        """Truncated, non-JSON, foreign and malformed entries (a missing or
        extra field, a value of the wrong type) read as misses — and are
        counted, so somebody can be told; a spec that was never cached is a
        plain miss."""
        cache = ResultCache(tmp_path)
        spec = tiny_spec(
            "random", scenario=ScenarioSpec.of("crash_recover", crash_time=600.0, count=1)
        )
        assert cache.get(spec) is None and cache.unreadable == 0
        RuntimeExecutor(cache=cache).run([spec])
        path = cache.path_for(spec)
        whole = path.read_bytes()
        entry = json.loads(whole)
        assert cache.get(spec) is not None and cache.unreadable == 0

        def edited(change):
            copy = json.loads(whole)
            change(copy)
            return json.dumps(copy).encode()

        corruptions = [
            whole[: len(whole) // 2],
            pickle.dumps({"key": spec.cache_key(), "result": cache.get(spec)}),
            b"\xff\xfe not text",
            b"[]",
            json.dumps({"key": "somebody else's", "result": entry["result"]}).encode(),
            edited(lambda e: e.update(extra=1)),
            edited(lambda e: e["result"].pop("duration")),
            edited(lambda e: e["result"].update(version=2)),
            edited(lambda e: e["result"]["snapshot"].pop("messages")),
            edited(lambda e: e["result"].update(duration="1.0")),
            edited(lambda e: e["result"].update(requests_executed=1.5)),
            edited(lambda e: e["result"].update(reads_executed=True)),
            edited(lambda e: e["result"].update(top_series_system={"one": 1.0})),
            edited(lambda e: e["result"].update(top_series_system={"01": 1.0})),
            edited(lambda e: e["result"]["fault_records"][0].update(kind=None)),
            edited(lambda e: e["result"].update(fault_records={})),
            edited(
                lambda e: e["result"].update(
                    tracked_views={"3": {"user": 3, "replica_counts": [[0.0]],
                                         "reads_per_replica": []}}
                )
            ),
        ]
        for count, payload in enumerate(corruptions, start=1):
            path.write_bytes(payload)
            assert cache.get(spec) is None
            assert cache.unreadable == count
        path.write_bytes(whole)
        assert cache.get(spec) is not None and cache.unreadable == len(corruptions)

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
        entries = sorted(tmp_path.glob("*.json"))
        assert entries and sorted(tmp_path.iterdir()) == entries
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
        (tmp_path / f"{tiny_spec('spar').cache_key()}.pkl").write_bytes(b"an older entry")
        assert cache.clear() == 2
        assert list(tmp_path.iterdir()) == []
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
