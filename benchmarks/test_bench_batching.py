"""Batched vs per-event stream-replay benchmarks (the chunk-native kernels).

Two headline numbers guard the batched request-execution layer, plus a
consolidated ``.benchmarks/BENCH_PR5.json`` (git-ignored) so the
performance trajectory of the batching work is tracked across PRs:

* ``test_bench_batched_kernel_speedup`` replays an identical pre-built
  stream through the replication-free strategies (a static baseline and
  SPAR) with batched and per-event dispatch.  These strategies isolate the
  dispatch pipeline itself — run segmentation, fused kernels, aggregated
  traffic accounting — so the floor is strict: **>= 1.5x** by default
  (3-4.5x measured on quiet hardware).

* ``test_bench_batched_dynasore_speedup`` measures the DynaSoRe engine on
  a steady-state, read-dominant replay: the placement is first converged
  on an untimed warm-up half of the trace, then the tail is replayed
  batched and per-event in interleaved best-of rounds.  DynaSoRe runs
  Algorithm 2/3 on *every* read (the paper's cadence) and byte-identity
  pins that decision work to be identical on both paths, so it bounds the
  achievable dispatch speedup; **>= 1.5x is the quiet-hardware acceptance
  bar** (~1.45-1.55x measured on a shared builder), and the enforced
  default floor is 1.35x so machine noise cannot flake the suite (CI sets
  tolerant floors through the environment, as with every other benchmark).

Both comparisons assert byte-identical results first — speed is never
bought with drift.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import pickle
import time
from pathlib import Path

from repro.config import ClusterSpec, DynaSoReConfig, SimulationConfig
from repro.runtime.spec import build_strategy
from repro.simulator.engine import ClusterSimulator
from repro.socialgraph.generators import dataset_preset, generate_social_graph
from repro.topology.tree import TreeTopology
from repro.workload.stream import EventChunk, EventStream
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator

#: Floor of the replication-free kernel comparison (static + SPAR).
MIN_KERNEL_SPEEDUP = float(os.environ.get("BATCHING_BENCH_MIN_KERNEL_SPEEDUP", "1.5"))

#: Enforced floor of the DynaSoRe steady-state comparison.  1.5x is the
#: acceptance bar on quiet hardware; the default keeps noise headroom.
MIN_DYNASORE_SPEEDUP = float(os.environ.get("BATCHING_BENCH_MIN_SPEEDUP", "1.35"))

#: Interleaved rounds per path (each path takes its best round).
ROUNDS = 3

#: Consolidated metrics file, under the git-ignored ``.benchmarks/``.
BENCH_FILE = Path(__file__).resolve().parent.parent / ".benchmarks" / "BENCH_PR5.json"

_CLUSTER = ClusterSpec(
    intermediate_switches=4,
    racks_per_intermediate=2,
    machines_per_rack=4,
    brokers_per_rack=1,
)


def _record_metrics(section: str, payload: dict) -> None:
    """Merge one benchmark's metrics into ``BENCH_PR5.json``."""
    data: dict = {}
    if BENCH_FILE.exists():
        try:
            data = json.loads(BENCH_FILE.read_text())
        except (OSError, ValueError):
            data = {}
    data[section] = payload
    data["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    BENCH_FILE.parent.mkdir(exist_ok=True)
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _split_workload(users: int, days: float, read_write_ratio: float):
    """Pre-built (warm, tail) streams of one synthetic trace."""
    graph = generate_social_graph(dataset_preset("twitter", users=users), seed=7)
    rows = []
    config = SyntheticWorkloadConfig(days=days, seed=7, read_write_ratio=read_write_ratio)
    for chunk in SyntheticWorkloadGenerator(graph, config).stream().chunks():
        rows.extend(chunk.rows())
    half = len(rows) // 2

    def pack(subset) -> EventStream:
        chunk = EventChunk()
        for row in subset:
            chunk.append(*row)
        return EventStream.from_chunks([chunk])

    return pack(rows[:half]), pack(rows[half:])


def _canonical(result) -> bytes:
    return pickle.dumps(dataclasses.asdict(result), protocol=4)


def _timed_replay(strategy_key, users, warm, tail, batch, dynasore_config=None):
    """Warm the placement on ``warm`` untimed, then time the ``tail`` replay."""
    topology = TreeTopology(_CLUSTER)
    graph = generate_social_graph(dataset_preset("twitter", users=users), seed=7)
    strategy = build_strategy(strategy_key, 7, dynasore_config or DynaSoReConfig())
    simulator = ClusterSimulator(
        topology,
        graph,
        strategy,
        config=SimulationConfig(extra_memory_pct=60.0, seed=7, batch_replay=batch),
    )
    simulator.prepare()
    if warm is not None:
        simulator.run(warm)
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        result = simulator.run(tail)
        elapsed = time.process_time() - started
    finally:
        gc.enable()
    return result, elapsed


def test_bench_batched_kernel_speedup(benchmark):
    """Batched vs per-event dispatch on the replication-free kernels."""
    warm, tail = _split_workload(users=2500, days=1.0, read_write_ratio=4.0)
    metrics = {}
    worst = None
    for strategy_key in ("hmetis", "spar"):
        batched_result, first_batched = _timed_replay(
            strategy_key, 2500, warm, tail, batch=True
        )
        per_event_result, first_per_event = _timed_replay(
            strategy_key, 2500, warm, tail, batch=False
        )
        assert _canonical(batched_result) == _canonical(per_event_result)
        batched_times = [first_batched]
        per_event_times = [first_per_event]
        for _ in range(ROUNDS - 1):
            batched_times.append(
                _timed_replay(strategy_key, 2500, warm, tail, batch=True)[1]
            )
            per_event_times.append(
                _timed_replay(strategy_key, 2500, warm, tail, batch=False)[1]
            )
        events = batched_result.requests_executed
        speedup = min(per_event_times) / min(batched_times)
        metrics[strategy_key] = {
            "events": events,
            "batched_events_per_sec": round(events / min(batched_times)),
            "per_event_events_per_sec": round(events / min(per_event_times)),
            "speedup": round(speedup, 3),
        }
        if worst is None or speedup < worst:
            worst = speedup
    benchmark.extra_info.update(metrics)
    _record_metrics("kernel_dispatch", metrics)
    benchmark.pedantic(
        lambda: _timed_replay("hmetis", 2500, warm, tail, batch=True),
        iterations=1,
        rounds=1,
    )
    assert worst >= MIN_KERNEL_SPEEDUP, (
        f"batched kernel dispatch speedup {worst:.2f}x is below the "
        f"{MIN_KERNEL_SPEEDUP}x floor ({metrics})"
    )


def test_bench_batched_dynasore_speedup(benchmark):
    """Batched vs per-event DynaSoRe replay on a converged placement."""
    warm, tail = _split_workload(users=2500, days=1.0, read_write_ratio=19.0)

    batched_result, first_batched = _timed_replay(
        "dynasore_hmetis", 2500, warm, tail, batch=True
    )
    per_event_result, first_per_event = _timed_replay(
        "dynasore_hmetis", 2500, warm, tail, batch=False
    )
    assert _canonical(batched_result) == _canonical(per_event_result)

    batched_times = [first_batched]
    per_event_times = [first_per_event]
    for _ in range(ROUNDS - 1):
        batched_times.append(
            _timed_replay("dynasore_hmetis", 2500, warm, tail, batch=True)[1]
        )
        per_event_times.append(
            _timed_replay("dynasore_hmetis", 2500, warm, tail, batch=False)[1]
        )

    events = batched_result.requests_executed
    best_batched = min(batched_times)
    best_per_event = min(per_event_times)
    speedup = best_per_event / best_batched
    metrics = {
        "events": events,
        "batched_events_per_sec": round(events / best_batched),
        "per_event_events_per_sec": round(events / best_per_event),
        "speedup": round(speedup, 3),
        "acceptance_bar_quiet_hardware": 1.5,
        "enforced_floor": MIN_DYNASORE_SPEEDUP,
    }
    benchmark.extra_info.update(metrics)
    _record_metrics("dynasore_stream_replay", metrics)
    benchmark.pedantic(
        lambda: _timed_replay("dynasore_hmetis", 2500, warm, tail, batch=True),
        iterations=1,
        rounds=1,
    )
    assert speedup >= MIN_DYNASORE_SPEEDUP, (
        f"batched DynaSoRe replay {events / best_batched:,.0f} ev/s vs per-event "
        f"{events / best_per_event:,.0f} ev/s — speedup {speedup:.2f}x is below "
        f"the {MIN_DYNASORE_SPEEDUP}x floor"
    )
