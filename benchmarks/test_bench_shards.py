"""Sharded multi-process replay benchmark (one simulation, many workers).

Emits ``.benchmarks/BENCH_PR7.json`` (git-ignored).  The headline metric is
the intra-run speedup of partitioned sharded replay over the single-process
batched path on a locality-heavy SPAR workload — **>= 2x at 4 shards is the
acceptance target on quiet multi-core hardware**, with an enforced floor of
``SHARD_BENCH_MIN_SPEEDUP`` (default 1.5).

Measurement protocol (the same-run principle the tick benchmark adopted in
this PR — a recorded number from another machine asserts nothing):

* **Identity before speed.**  The sharded result is asserted byte-identical
  to the single-process result before any ratio is computed.
* **Same-run reference.**  The single-process baseline replays the exact
  same trace file in this process, this run.
* **Critical-path projection on core-starved machines.**  Shard workers are
  schedule-independent (no worker ever waits on another), so with one core
  per worker the run's wall time is the *slowest worker's CPU time*.  Each
  worker measures its own ``time.process_time``; the projected speedup is
  ``single_cpu / max(worker_cpu)``.  When the machine has fewer cores than
  shards (``cpu_limited``) wall-clock cannot show the win no matter how the
  engine behaves, so the floor is enforced on the projection; on machines
  with enough cores the floor applies to the better of the two (wall time
  still includes process spawn and result pickling, which the projection
  rightly excludes).

The trace is generated once and written to a binary trace file; workers and
the baseline all read the same file, so stream *generation* cost is paid
once and parse cost is paid identically by every measured path.

``SHARD_BENCH_EVENTS`` scales the workload (default 150k events keeps the
suite quick; the README's BENCH_PR7.json numbers come from a 1M-event run).

The activity-weighted benchmark (``BENCH_PR8.json``) replays a *skewed*
celebrity-storm trace and compares population-balanced against
activity-weighted shard assignment.  The headline metric is
``shard_load_imbalance`` (critical-path CPU over the per-shard mean):
population balancing leaves the celebrity shard as the critical path;
weighting the partitioner by the trace's profiled per-user event counts is
expected to level it.  The *expected-event* imbalance of each assignment is
deterministic (counted from the profile, no timing involved) and asserted
strictly; the measured-CPU comparison gets an env-tunable tolerance
(``SHARD_BENCH_CPU_IMBALANCE_TOLERANCE``) because CPU time is noisy at
small scales.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import pickle
import time
from pathlib import Path

import pytest

from repro.config import ClusterSpec, DynaSoReConfig, SimulationConfig
from repro.runtime.spec import build_strategy
from repro.simulator.shard import ShardMaterials, run_sharded_detailed
from repro.socialgraph.generators import dataset_preset, generate_social_graph
from repro.topology.tree import TreeTopology
from repro.workload.activity import profile_trace
from repro.workload.io import read_trace, write_trace
from repro.workload.models import CelebrityReadStormGenerator, CelebrityStormConfig
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator

#: Workload size in events (reads + writes + churn), env-scalable.
SHARD_BENCH_EVENTS = int(os.environ.get("SHARD_BENCH_EVENTS", "150000"))

#: Worker processes of the sharded run.
SHARD_BENCH_SHARDS = int(os.environ.get("SHARD_BENCH_SHARDS", "4"))

#: Enforced floor of the sharded speedup (projected on core-starved
#: machines, best-of wall/projected otherwise).  2x is the acceptance
#: target on quiet multi-core hardware and 1.5x the enforced floor at the
#: 1M-event scale the README's BENCH_PR7.json numbers use.  Below that scale the
#: per-worker fixed costs (graph build, trace parse, full-stream decision
#: plane) are not yet amortised, so the default floor relaxes to 1.2x.
MIN_SPEEDUP = float(
    os.environ.get(
        "SHARD_BENCH_MIN_SPEEDUP",
        "1.5" if SHARD_BENCH_EVENTS >= 600_000 else "1.2",
    )
)

#: Enforced floor of shards=1 throughput relative to the bare engine —
#: the shard engine's single mode must stay within noise of a plain run.
MIN_SINGLE_RATIO = float(os.environ.get("SHARD_BENCH_MIN_SINGLE_RATIO", "0.8"))

#: Consolidated metrics file, under the git-ignored ``.benchmarks/``.
BENCH_FILE = Path(__file__).resolve().parent.parent / ".benchmarks" / "BENCH_PR7.json"

#: Metrics file of the activity-weighted partitioning benchmark.
BENCH_PR8_FILE = Path(__file__).resolve().parent.parent / ".benchmarks" / "BENCH_PR8.json"

#: Measured-CPU tolerance of weighted vs population balancing.  Per-shard
#: CPU at benchmark scale is dominated by the replicated decision plane
#: (every worker replays the full stream for placement) plus scheduler
#: noise, so the weighted run's measured imbalance only has to stay within
#: this factor of the population run's; the expected-event comparison
#: (deterministic — counted from the profile, no timing involved) is the
#: strict gate.
CPU_IMBALANCE_TOLERANCE = float(
    os.environ.get("SHARD_BENCH_CPU_IMBALANCE_TOLERANCE", "1.15")
)

#: Ceiling of the weighted assignment's expected-event imbalance, matching
#: the partitioner's 1.05 balance tolerance (1.0442 on the committed run).
#: The floor blend and the one-node rebalance overshoot can push the
#: realised event imbalance slightly past the tolerance at other workload
#: scales — the env knob exists for such runs.
MAX_WEIGHTED_IMBALANCE = float(
    os.environ.get("SHARD_BENCH_MAX_WEIGHTED_IMBALANCE", "1.05")
)

#: Locality-heavy workload: SPAR on a community-structured graph with the
#: default 19:1 read/write ratio — reads dominate and resolve near their
#: community, exactly the shape partitioning helps.
_USERS = 3000
_WRITES_PER_USER_PER_DAY = 1.0
_READ_WRITE_RATIO = 19.0

_CLUSTER = ClusterSpec(
    intermediate_switches=4,
    racks_per_intermediate=2,
    machines_per_rack=4,
    brokers_per_rack=1,
)


def _record_metrics(section: str, payload: dict, bench_file: Path = BENCH_FILE) -> None:
    """Merge one benchmark's metrics into a consolidated metrics file."""
    data: dict = {}
    if bench_file.exists():
        try:
            data = json.loads(bench_file.read_text())
        except (OSError, ValueError):
            data = {}
    data[section] = payload
    data["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    bench_file.parent.mkdir(exist_ok=True)
    bench_file.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _canonical(result) -> bytes:
    return pickle.dumps(dataclasses.asdict(result), protocol=4)


def _bench_graph():
    return generate_social_graph(dataset_preset("twitter", users=_USERS), seed=7)


@pytest.fixture(scope="module")
def bench_trace(tmp_path_factory):
    """One trace file shared by every measured path (generation paid once)."""
    events_per_day = _USERS * _WRITES_PER_USER_PER_DAY * (1 + _READ_WRITE_RATIO)
    days = max(SHARD_BENCH_EVENTS / events_per_day, 0.1)
    graph = _bench_graph()
    stream = SyntheticWorkloadGenerator(
        graph,
        SyntheticWorkloadConfig(
            days=days,
            seed=7,
            writes_per_user_per_day=_WRITES_PER_USER_PER_DAY,
            read_write_ratio=_READ_WRITE_RATIO,
        ),
    ).stream()
    path = tmp_path_factory.mktemp("shard-bench") / "trace.bin"
    events = write_trace(path, stream)
    return path, events


def _materials(trace_path, *, weighted: bool = False) -> ShardMaterials:
    return ShardMaterials(
        topology_factory=lambda: TreeTopology(_CLUSTER),
        graph_factory=_bench_graph,
        strategy_factory=lambda: build_strategy("spar", 7, DynaSoReConfig()),
        stream_factory=lambda graph: read_trace(trace_path),
        config=SimulationConfig(extra_memory_pct=60.0, seed=7),
        # Coordinator-only: weights the user -> shard partitioner by the
        # trace's profiled per-user event counts.
        activity_factory=(
            (lambda graph: profile_trace(trace_path)) if weighted else None
        ),
    )


def test_bench_sharded_replay(benchmark, bench_trace):
    """4-shard partitioned replay vs the single-process batched path."""
    trace_path, events = bench_trace
    materials = _materials(trace_path)
    cpus = os.cpu_count() or 1
    max_workers = min(SHARD_BENCH_SHARDS, cpus)

    gc.collect()
    single = run_sharded_detailed(materials, 1)
    sharded = run_sharded_detailed(
        materials, SHARD_BENCH_SHARDS, max_workers=max_workers
    )
    # Identity before speed: a fast wrong answer is worthless.
    assert sharded.mode == "partitioned", sharded.fallback_reason
    assert _canonical(sharded.result) == _canonical(single.result)

    single_cpu = single.outcomes[0].cpu_seconds
    single_wall = single.outcomes[0].wall_seconds
    sharded_wall = max(o.wall_seconds for o in sharded.outcomes)
    critical_cpu = sharded.critical_path_cpu_seconds
    projected_speedup = single_cpu / max(critical_cpu, 1e-9)
    wall_speedup = single_wall / max(sharded_wall, 1e-9)
    cpu_limited = cpus < SHARD_BENCH_SHARDS
    enforced_speedup = (
        projected_speedup if cpu_limited else max(projected_speedup, wall_speedup)
    )

    metrics = {
        "events": events,
        "shards": SHARD_BENCH_SHARDS,
        "strategy": "spar",
        "mode": sharded.mode,
        "cpus": cpus,
        "cpu_limited": cpu_limited,
        "single_process_cpu_seconds": round(single_cpu, 3),
        "single_process_events_per_sec": round(events / max(single_cpu, 1e-9)),
        "critical_path_cpu_seconds": round(critical_cpu, 3),
        "per_shard_cpu_seconds": [
            round(o.cpu_seconds, 3) for o in sharded.outcomes
        ],
        "projected_speedup": round(projected_speedup, 3),
        # max/mean per-shard CPU: the residual between the measured speedup
        # and ideal scaling.  The partitioner balances user *populations*;
        # request load still skews with community activity.
        "shard_load_imbalance": round(
            critical_cpu
            * SHARD_BENCH_SHARDS
            / max(sum(o.cpu_seconds for o in sharded.outcomes), 1e-9),
            3,
        ),
        "wall_speedup": round(wall_speedup, 3),
        "enforced_speedup": round(enforced_speedup, 3),
        "enforced_floor": MIN_SPEEDUP,
        "acceptance_target_quiet_hardware": 2.0,
    }
    benchmark.extra_info.update(metrics)
    _record_metrics("sharded_replay", metrics)
    benchmark.pedantic(
        lambda: run_sharded_detailed(
            materials, SHARD_BENCH_SHARDS, max_workers=max_workers
        ),
        iterations=1,
        rounds=1,
    )
    assert enforced_speedup >= MIN_SPEEDUP, (
        f"sharded replay speedup {enforced_speedup:.2f}x "
        f"(projected {projected_speedup:.2f}x, wall {wall_speedup:.2f}x, "
        f"{cpus} cpus for {SHARD_BENCH_SHARDS} shards) is below the "
        f"{MIN_SPEEDUP}x floor"
    )


def test_bench_single_shard_overhead(benchmark, bench_trace):
    """shards=1 must stay within noise of the bare engine (same run)."""
    from repro.simulator.engine import ClusterSimulator

    trace_path, events = bench_trace
    materials = _materials(trace_path)

    def bare_run() -> float:
        graph = materials.graph_factory()
        simulator = ClusterSimulator(
            materials.topology_factory(),
            graph,
            materials.strategy_factory(),
            config=materials.config,
        )
        gc.collect()
        started = time.process_time()
        simulator.run(materials.stream_factory(graph))
        return time.process_time() - started

    bare_seconds = bare_run()
    gc.collect()
    started = time.process_time()
    report = run_sharded_detailed(materials, 1)
    shard_engine_seconds = time.process_time() - started
    assert report.mode == "single"

    ratio = bare_seconds / max(shard_engine_seconds, 1e-9)
    metrics = {
        "events": events,
        "bare_engine_events_per_sec": round(events / max(bare_seconds, 1e-9)),
        "shard_engine_events_per_sec": round(
            events / max(shard_engine_seconds, 1e-9)
        ),
        "throughput_ratio": round(ratio, 3),
        "enforced_floor": MIN_SINGLE_RATIO,
    }
    benchmark.extra_info.update(metrics)
    _record_metrics("single_shard_overhead", metrics)
    benchmark.pedantic(bare_run, iterations=1, rounds=1)
    assert ratio >= MIN_SINGLE_RATIO, (
        f"shards=1 throughput ratio {ratio:.2f} vs the bare engine is below "
        f"the {MIN_SINGLE_RATIO} floor"
    )


# ---------------------------------------------------------------------------
# Activity-weighted shard assignment (BENCH_PR8.json)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def skewed_trace(tmp_path_factory):
    """A celebrity-storm trace: ~60% of the events are storm pile-ons on a
    handful of hub users' communities — the load shape population
    balancing gets wrong.  ``reads_per_follower`` is sized from the event
    budget so the storm share (and hence the skew) survives
    ``SHARD_BENCH_EVENTS`` scaling."""
    celebrities, storms = 8, 3
    graph = _bench_graph()
    background_per_day = _USERS * 2.0
    days = max(SHARD_BENCH_EVENTS * 0.4 / background_per_day, 0.1)
    audiences = sorted((graph.in_degree(u) for u in graph.users), reverse=True)
    followers_total = max(sum(audiences[:celebrities]), 1)
    reads_per_follower = max(
        SHARD_BENCH_EVENTS * 0.6 / (storms * followers_total), 1.0
    )
    stream = CelebrityReadStormGenerator(
        graph,
        CelebrityStormConfig(
            days=days,
            seed=7,
            celebrities=celebrities,
            storms_per_celebrity=storms,
            reads_per_follower=reads_per_follower,
            background_events_per_user_per_day=2.0,
        ),
    ).stream()
    path = tmp_path_factory.mktemp("shard-bench-skew") / "storm.bin"
    events = write_trace(path, stream)
    return path, events


def _expected_event_imbalance(assignment, profile) -> float:
    """max/mean of the per-shard *profiled* event counts — deterministic."""
    loads = [0.0] * assignment.shards
    for user, rate in profile.rates.items():
        loads[assignment.owner_of(user)] += rate
    return max(loads) * assignment.shards / max(sum(loads), 1e-9)


def _cpu_imbalance(report) -> float:
    """max/mean of the measured per-shard CPU seconds."""
    return (
        report.critical_path_cpu_seconds
        * report.shards
        / max(sum(o.cpu_seconds for o in report.outcomes), 1e-9)
    )


def test_bench_activity_weighted_sharding(benchmark, skewed_trace):
    """Weighted vs population-balanced assignment on the skewed trace.

    Both assignments must reproduce the single-process result byte for
    byte (assignment is a pure perf knob); weighting must then level the
    per-shard expected event counts strictly better than population
    balancing, and the measured critical-path CPU must not regress beyond
    ``CPU_IMBALANCE_TOLERANCE``.
    """
    trace_path, events = skewed_trace
    population = _materials(trace_path, weighted=False)
    weighted = _materials(trace_path, weighted=True)
    cpus = os.cpu_count() or 1
    max_workers = min(SHARD_BENCH_SHARDS, cpus)
    profile = profile_trace(trace_path)

    gc.collect()
    single = run_sharded_detailed(population, 1)
    pop_report = run_sharded_detailed(
        population, SHARD_BENCH_SHARDS, max_workers=max_workers
    )
    act_report = run_sharded_detailed(
        weighted, SHARD_BENCH_SHARDS, max_workers=max_workers
    )

    # Identity before speed, under both assignments.
    reference = _canonical(single.result)
    assert pop_report.mode == "partitioned", pop_report.fallback_reason
    assert act_report.mode == "partitioned", act_report.fallback_reason
    assert _canonical(pop_report.result) == reference
    assert _canonical(act_report.result) == reference
    assert pop_report.load_summary.balanced_by == "population"
    assert act_report.load_summary.balanced_by == "activity"

    expected_pop = _expected_event_imbalance(pop_report.assignment, profile)
    expected_act = _expected_event_imbalance(act_report.assignment, profile)
    cpu_pop = _cpu_imbalance(pop_report)
    cpu_act = _cpu_imbalance(act_report)
    single_cpu = single.outcomes[0].cpu_seconds
    speedup_pop = single_cpu / max(pop_report.critical_path_cpu_seconds, 1e-9)
    speedup_act = single_cpu / max(act_report.critical_path_cpu_seconds, 1e-9)

    metrics = {
        "events": events,
        "shards": SHARD_BENCH_SHARDS,
        "strategy": "spar",
        "workload": "celebrity_storm",
        "cpus": cpus,
        # Per-shard expected-event (profiled) load, max/mean — the
        # deterministic counterpart of PR7's CPU-based shard_load_imbalance.
        "shard_load_imbalance_population": round(expected_pop, 4),
        "shard_load_imbalance_weighted": round(expected_act, 4),
        "cpu_imbalance_population": round(cpu_pop, 3),
        "cpu_imbalance_weighted": round(cpu_act, 3),
        "projected_speedup_population": round(speedup_pop, 3),
        "projected_speedup_weighted": round(speedup_act, 3),
        "cpu_imbalance_tolerance": CPU_IMBALANCE_TOLERANCE,
        "max_weighted_imbalance": MAX_WEIGHTED_IMBALANCE,
    }
    benchmark.extra_info.update(metrics)
    _record_metrics("activity_weighted_sharding", metrics, bench_file=BENCH_PR8_FILE)
    benchmark.pedantic(
        lambda: run_sharded_detailed(
            weighted, SHARD_BENCH_SHARDS, max_workers=max_workers
        ),
        iterations=1,
        rounds=1,
    )

    # The point of the feature: balancing expected work beats balancing
    # user count on a skewed workload.  Deterministic — counted from the
    # profile under each assignment, no timing involved.
    assert expected_act < expected_pop, (
        f"weighted expected-event imbalance {expected_act:.4f} is not below "
        f"population balancing's {expected_pop:.4f}"
    )
    assert expected_act <= MAX_WEIGHTED_IMBALANCE, (
        f"weighted expected-event imbalance {expected_act:.4f} exceeds the "
        f"{MAX_WEIGHTED_IMBALANCE} ceiling"
    )
    assert cpu_act <= cpu_pop * CPU_IMBALANCE_TOLERANCE, (
        f"weighted CPU imbalance {cpu_act:.3f} exceeds population "
        f"balancing's {cpu_pop:.3f} by more than {CPU_IMBALANCE_TOLERANCE}x"
    )
