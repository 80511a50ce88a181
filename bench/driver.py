"""One benchmark round: a workload's ``RunSpec`` set up and replayed once.

The driver performs the steps of ``repro.runtime.executor.execute_spec``
itself, through the same public constructors, so that set-up and replay are
timed separately (``run.py --check`` pins the two paths to one digest).
With ``traced=True`` the public calls into each layer are additionally
wrapped in spans (see :mod:`tracing`); end-to-end figures only ever come
from untraced rounds.

Run as a script this is the fresh process ``run.py`` starts per round: it
prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from dataclasses import asdict, replace
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from repro.core.engine import INITIAL_PLACEMENTS  # noqa: E402
from repro.persistence.backend import PersistentStore  # noqa: E402
from repro.runtime.executor import execute_spec  # noqa: E402
from repro.runtime.spec import RunSpec, build_strategy  # noqa: E402
from repro.simulator.engine import ClusterSimulator  # noqa: E402
from repro.simulator.results import SimulationResult  # noqa: E402
from repro.simulator.shard import materials_from_spec, run_sharded_detailed  # noqa: E402
from repro.workload.stream import EventStream  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, high_percentile, percentile  # noqa: E402

OUT_DIR = BENCH_DIR / "out"

_KERNEL_ENTRY_POINTS = (
    "execute_request_batch",
    "execute_read_batch",
    "execute_read",
    "execute_write",
)
_ACCOUNTANT_ENTRY_POINTS = (
    "record",
    "record_roundtrip",
    "record_batch",
    "record_roundtrip_batch",
    "count_messages",
)


def result_digest(result: SimulationResult) -> str:
    """Canonical sha256 over every field of a result, snapshot included.

    Independent of pickle and of dict insertion order: the dataclass tree is
    rendered as JSON with sorted keys (floats by ``repr``).
    """
    payload = json.dumps(asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_round(name: str, seed: int, scale: float = 1.0, traced: bool = False) -> dict:
    """Set up and replay one workload; returns the round's measurements."""
    trace_file = workloads.trace_file_for(name, seed, scale)  # an input: not timed
    tracer = Tracer(enabled=traced)
    span = tracer.span

    # ---------------------------------------------------------------- set-up
    setup_start = perf_counter()
    with span("setup"):
        spec = workloads.build_spec(name, seed, scale, trace_file)
        layer = "core" if spec.strategy.startswith("dynasore_") else "baselines"
        with span("topology.build"):
            topology = spec.topology.build()
        with span("socialgraph.build"):
            graph = spec.graph.build()
        with span("workload.build_stream"):
            stream, _ = spec.workload.build_stream(graph)
        if traced and layer == "core":
            # DynaSoRe resolves its initial partitioner from this public
            # registry at construction; the static baselines expose theirs
            # as ``compute_assignment`` (patched below).
            with tracer.patched_entry(
                INITIAL_PLACEMENTS,
                spec.strategy.removeprefix("dynasore_"),
                "partitioning.initial_assignment",
            ):
                strategy = _build_strategy(spec)
        else:
            strategy = _build_strategy(spec)
        scenario = spec.scenario.build() if spec.scenario is not None else None
        # The simulator creates this store itself for crash scenarios; the
        # traced run passes an identical, wrapped one through the public
        # argument instead.
        crashes = spec.scenario is not None and spec.scenario.kind == "crash_recover"
        store = PersistentStore() if traced and crashes else None
        simulator = ClusterSimulator(
            topology, graph, strategy, spec.config, scenario=scenario, persistent_store=store
        )
        if traced:
            _patch_layers(tracer, simulator, strategy, store, layer)
        simulator.prepare()
    setup_s = perf_counter() - setup_start

    # ---------------------------------------------------------------- replay
    fetched = {"chunks": 0, "events": 0}
    plain = stream

    def counted_chunks():
        for chunk in tracer.iterate(plain.chunks(), "workload.chunk_fetch"):
            fetched["chunks"] += 1
            fetched["events"] += len(chunk)
            yield chunk

    stream = EventStream(counted_chunks)
    replay_start = perf_counter()
    with span("simulator.run"):
        result = simulator.run(stream)
    replay_s = perf_counter() - replay_start

    measured = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "events": fetched["events"],
        "executed": result.requests_executed,
        "setup_s": setup_s,
        "replay_s": replay_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "top_traffic": result.top_switch_traffic,
        "reads": result.reads_executed,
        "writes": result.writes_executed,
        "unavailable_views": result.unavailable_views,
        "digest": result_digest(result),
    }
    if traced:
        measured["layers"] = _layer_metrics(
            tracer, layer, result, strategy, simulator, fetched
        )
        tracer.write(OUT_DIR / f"trace-{name}.json", name)
    return measured


def _build_strategy(spec: RunSpec):
    return build_strategy(
        spec.strategy, spec.effective_strategy_seed(), spec.dynasore_config
    )


def _patch_layers(tracer, simulator, strategy, store, layer: str) -> None:
    """Wrap the public entry points of every layer of one prepared run."""
    tracer.patch(strategy, "build_initial_placement", f"{layer}.initial_placement")
    if hasattr(strategy, "compute_assignment"):
        tracer.patch(strategy, "compute_assignment", "partitioning.initial_assignment")
    for entry in _KERNEL_ENTRY_POINTS:
        tracer.patch(strategy, entry, f"{layer}.request_kernel")
    tracer.patch(strategy, "on_tick", f"{layer}.tick")
    tracer.patch(strategy, "on_server_down", f"{layer}.fault_evacuate")
    tracer.patch(strategy, "on_server_up", f"{layer}.fault_evacuate")
    tracer.patch(simulator, "crash_server", "scenarios.fault_apply")
    tracer.patch(simulator, "restore_server", "scenarios.fault_apply")
    for entry in _ACCOUNTANT_ENTRY_POINTS:
        tracer.patch(simulator.accountant, entry, "traffic.record")
    if store is not None:
        tracer.patch(store, "process_write", "persistence.wal_write")
        tracer.patch(store, "fetch_view", "persistence.fetch")


def _layer_metrics(tracer, layer, result, strategy, simulator, fetched) -> dict[str, float]:
    """Per-layer metrics of one traced round (absent layers read 0)."""
    summary = tracer.summary()

    def of(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    events = max(1, fetched["events"])
    fetch_s = of("workload.chunk_fetch", "self_s")
    run_s = of("simulator.run", "total_s")
    kernel_calls = of(f"{layer}.request_kernel", "calls")
    metrics = {
        "workload.chunk_fetch_s": fetch_s,
        "workload.chunks": fetched["chunks"],
        "workload.events": fetched["events"],
        "workload.fetch_us_per_event": fetch_s / events * 1e6,
        "socialgraph.build_s": of("socialgraph.build", "self_s"),
        "socialgraph.edges": simulator.graph.num_edges,
        "topology.build_s": of("topology.build", "self_s"),
        "partitioning.initial_assignment_s": of("partitioning.initial_assignment", "self_s"),
        "core.initial_placement_s": of("core.initial_placement", "self_s"),
        "baselines.initial_placement_s": of("baselines.initial_placement", "self_s"),
        "core.request_kernel_s": of("core.request_kernel", "self_s"),
        "core.request_kernel_calls": of("core.request_kernel", "calls"),
        "core.tick_s": of("core.tick", "self_s"),
        "core.tick_calls": of("core.tick", "calls"),
        "core.tick_ms_p50": 0.0,
        "core.tick_ms_hi": 0.0,
        "core.fault_evacuate_s": of("core.fault_evacuate", "self_s"),
        "scenarios.fault_apply_s": of("scenarios.fault_apply", "self_s"),
        "scenarios.faults": of("scenarios.fault_apply", "calls"),
        "baselines.request_kernel_s": of("baselines.request_kernel", "self_s"),
        "baselines.request_kernel_calls": of("baselines.request_kernel", "calls"),
        "baselines.tick_s": of("baselines.tick", "self_s"),
        "traffic.record_s": of("traffic.record", "self_s"),
        "traffic.record_calls": of("traffic.record", "calls"),
        "traffic.messages": result.snapshot.messages,
        "persistence.wal_write_s": of("persistence.wal_write", "self_s"),
        "persistence.wal_writes": of("persistence.wal_write", "calls"),
        "persistence.fetches": of("persistence.fetch", "calls"),
        "store.replicas_final": strategy.total_replicas(),
        "store.replication_factor": result.replication_factor,
        "store.memory_in_use_slots": result.memory_in_use,
        "simulator.run_s": run_s,
        "simulator.self_s": of("simulator.run", "self_s"),
        "simulator.kernel_calls_per_kevent": kernel_calls / events * 1000.0,
    }
    ticks = tracer.durations("core.tick")
    if ticks:
        metrics["core.tick_ms_p50"] = percentile(ticks, 50) * 1e3
        metrics["core.tick_ms_hi"] = high_percentile(ticks)[1] * 1e3
    return metrics


def run_shard_block(name: str, seed: int, scale: float, expected_digest: str) -> dict:
    """Replay a workload's spec across 2 shard workers (traced-only extra).

    Identity with the single-process digest is asserted before any number is
    reported — the sharded runner's contract is a byte-identical result.
    """
    spec = workloads.build_spec(name, seed, scale)
    start = perf_counter()
    report = run_sharded_detailed(materials_from_spec(spec), shards=2, seed=seed)
    wall_s = perf_counter() - start
    if result_digest(report.result) != expected_digest:
        raise SystemExit(f"sharded replay of {name} diverged from the single-process digest")
    worker_wall = max(outcome.wall_seconds for outcome in report.outcomes)
    return {
        "shard.wall_s": wall_s,
        "shard.critical_path_cpu_s": report.critical_path_cpu_seconds,
        "shard.spawn_merge_s": wall_s - worker_wall,
        "shard.cpu_imbalance": (
            report.load_summary.cpu_imbalance if report.load_summary else 1.0
        ),
    }


def check(seed: int = 7, scale: float = 0.1) -> int:
    """Pin the driver to the public entry point, and the paper's claim.

    At reduced scale: the phase-by-phase path (traced and untraced) must
    give the digest of ``execute_spec`` for all four specs, and on the
    ``dynasore_steady`` stream top-switch traffic must order
    DynaSoRe < SPAR <= Random (the claim ``tests/test_integration.py`` pins).
    """
    failures = 0
    for name in workloads.WORKLOADS:
        trace_file = workloads.trace_file_for(name, seed, scale)
        reference = result_digest(
            execute_spec(workloads.build_spec(name, seed, scale, trace_file))
        )
        for traced in (False, True):
            same = run_round(name, seed, scale, traced)["digest"] == reference
            label = "traced driver" if traced else "driver"
            print(f"{name}: {label} {'==' if same else '!='} execute_spec")
            failures += not same
    steady = workloads.build_spec("dynasore_steady", seed, scale)
    top = {
        strategy: execute_spec(replace(steady, strategy=strategy)).top_switch_traffic
        for strategy in ("dynasore_hmetis", "spar", "random")
    }
    ordered = top["dynasore_hmetis"] < top["spar"] <= top["random"]
    print(f"top-switch traffic {top}: DynaSoRe < SPAR <= Random {'holds' if ordered else 'FAILS'}")
    return failures + (not ordered)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="run check() and exit")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--shard-digest",
        help="run the 2-shard block instead of a round; the single-process digest to match",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.shard_digest:
        measured = run_shard_block(args.workload, args.seed, args.scale, args.shard_digest)
    else:
        measured = run_round(args.workload, args.seed, args.scale, bool(args.trace))
    print(json.dumps(measured))
    return 0


if __name__ == "__main__":
    sys.exit(main())
