"""Sharded multi-process replay of a single simulation.

The parallel runtime (PR 2) only parallelises *across* runs; this module
spends the columnar streams, array-backed tables and batch kernels on
parallelism *inside* one run.  One worker process per shard replays the
workload through its own :class:`~repro.simulator.engine.ClusterSimulator`;
a coordinator spawns the workers, relays their heartbeats, audits their
final placement state and merges their traffic deltas into one
:class:`~repro.simulator.results.SimulationResult` that is **byte-identical**
to a single-process run.

Two execution modes, chosen per strategy:

**Partitioned** (static baselines, SPAR — ``shard_requests_pure``).
    The decision plane is *replicated*: every worker applies every edge
    mutation, fault burst and maintenance tick, so placement state evolves
    identically everywhere (no cross-shard read protocol is needed — the
    resolution of any read is locally computable in every worker, and the
    coordinator audits the invariant with placement digests).  The
    measurement plane is *partitioned*: users are assigned to shards by the
    k-way graph partitioner (:func:`repro.partitioning.assign_user_shards`),
    and each worker executes only the read/write events its shard owns,
    muting the accountant around non-owned system events so the merged
    traffic counts every message exactly once.  All traffic volumes are
    integer-valued floats, so summing per-shard delta columns is exact.

    Partitioning is only sound over a **closed user universe** — every
    event must reference users of the initial graph, otherwise lazy
    placement could fire request-order-dependently.  Workers guard this per
    chunk at C speed and raise
    :class:`~repro.exceptions.ShardFallbackError` *before* the offending
    chunk executes; the coordinator then aborts the fleet and transparently
    restarts in replicated mode.

**Replicated** (DynaSoRe, open universes, custom strategies).
    One worker runs the standard single-process path.  DynaSoRe's reads
    mutate per-replica statistics and drive the Algorithm 2/3 placement
    decisions, so an exact intra-run partitioning of its request stream
    does not exist — any split would starve every worker of the statistics
    the others accumulated.  Falling back keeps the engine's contract
    unconditional: ``run_sharded`` is byte-identical for *all* strategies,
    and faster for the pure ones.

Workers are schedule-independent by construction — no worker ever waits on
another — so the coordinator may run them in waves (``max_workers``) on
oversubscribed machines, and per-shard CPU time measures the true critical
path of the partitioned run.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from queue import Empty
from typing import TYPE_CHECKING

from ..exceptions import ShardFallbackError, SimulationError
from ..partitioning.sharding import ShardAssignment, assign_user_shards
from ..traffic.accounting import TrafficAccountant, TrafficDelta
from .engine import UNOWNED, ClusterSimulator
from .results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SimulationConfig
    from ..runtime.spec import RunSpec

__all__ = [
    "ShardContext",
    "ShardHeartbeat",
    "ShardLoadSummary",
    "ShardMaterials",
    "ShardOutcome",
    "ShardRunReport",
    "materials_from_spec",
    "placement_digest",
    "run_sharded",
    "run_sharded_detailed",
    "run_spec_sharded",
]


# ---------------------------------------------------------------------------
# Worker-side data shapes
# ---------------------------------------------------------------------------
@dataclass
class ShardContext:
    """What one worker's simulator needs to know about the sharded run.

    ``owner_map`` is a dense ``bytes`` indexed by user id whose values are
    shard ids; the :data:`~repro.simulator.engine.UNOWNED` sentinel marks
    ids outside the initial social graph (the partitioned loop's
    closed-universe guard).  ``heartbeat`` is called once per replayed chunk
    with ``(events_done, sim_time)``.
    """

    shard_id: int
    shards: int
    partitioned: bool
    owner_map: bytes = b""
    heartbeat: Callable[[int, float], None] | None = None


@dataclass
class ShardMaterials:
    """Factories every worker rebuilds its simulation from.

    Workers *rebuild* rather than unpickle live objects: a pickled
    ``SocialGraph`` could replay its set-backed adjacency with a different
    iteration order than the original (set order depends on insertion
    history, which pickling discards), and iteration order feeds seeded
    placement decisions.  Fresh builds share the full insertion history and
    are therefore bit-for-bit deterministic across processes.

    Under the ``fork`` start method the factories may be closures; on
    spawn-only platforms they must be picklable (module-level callables or
    ``functools.partial`` over picklable data, as
    :func:`materials_from_spec` produces).
    """

    topology_factory: Callable[[], object]
    graph_factory: Callable[[], object]
    strategy_factory: Callable[[], object]
    #: ``stream_factory(graph) -> EventStream`` — generators need the graph.
    stream_factory: Callable[[object], object]
    config: "SimulationConfig"
    scenario_factory: Callable[[], object] | None = None


@dataclass
class ShardOutcome:
    """Everything one worker reports back to the coordinator."""

    shard_id: int
    #: The worker's own :class:`SimulationResult` — partial traffic in
    #: partitioned mode, the final answer in replicated/single mode.
    result: SimulationResult
    #: Traffic delta to merge (partitioned mode only).
    delta: TrafficDelta | None = None
    #: Placement-state digest for the cross-worker consistency audit
    #: (partitioned mode only; ``None`` when the strategy exposes no
    #: digestible placement state).
    digest: str | None = None
    #: CPU seconds this worker's process spent — the per-shard cost used by
    #: the critical-path throughput projection on core-starved machines.
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0


@dataclass
class ShardHeartbeat:
    """One liveness report from a shard worker, relayed to the progress
    callback so multi-minute sharded runs never look hung."""

    shard_id: int
    shards: int
    mode: str
    events_done: int
    sim_time: float
    wall_elapsed: float
    #: Estimated wall seconds remaining (None without a sim-time horizon).
    eta_seconds: float | None = None

    def describe(self) -> str:
        """Human-readable one-liner for progress displays."""
        eta = f", eta {self.eta_seconds:.0f}s" if self.eta_seconds is not None else ""
        return (
            f"shard {self.shard_id + 1}/{self.shards} [{self.mode}]: "
            f"{self.events_done} events, sim t={self.sim_time:.0f}s, "
            f"{self.wall_elapsed:.1f}s elapsed{eta}"
        )


@dataclass
class ShardLoadSummary:
    """Expected vs. actual per-shard load of one partitioned run.

    Emitted once through the progress callback after the merge, and attached
    to the :class:`ShardRunReport`, so users can see whether the shards'
    populations predicted where the CPU actually went.  Shares are fractions
    of the fleet total; imbalances are ``max share x shards`` (1.0 = the
    critical-path worker carries exactly its fair share).
    """

    shards: int
    #: Expected load share per shard: its share of the graph's users.
    expected_shares: tuple[float, ...]
    #: Measured CPU-seconds share per shard.
    cpu_shares: tuple[float, ...]

    @staticmethod
    def _imbalance(shares: tuple[float, ...]) -> float:
        return max(shares) * len(shares) if shares else 1.0

    @property
    def expected_imbalance(self) -> float:
        return self._imbalance(self.expected_shares)

    @property
    def cpu_imbalance(self) -> float:
        return self._imbalance(self.cpu_shares)

    def describe(self) -> str:
        """Human-readable one-liner for progress displays."""
        expected = "/".join(f"{share:.0%}" for share in self.expected_shares)
        actual = "/".join(f"{share:.0%}" for share in self.cpu_shares)
        return (
            f"shard load [population-balanced]: cpu imbalance "
            f"{self.cpu_imbalance:.2f}x (expected {self.expected_imbalance:.2f}x); "
            f"per-shard cpu {actual} vs expected {expected}"
        )


@dataclass
class ShardRunReport:
    """Detailed outcome of :func:`run_sharded_detailed`."""

    result: SimulationResult
    #: ``"partitioned"``, ``"replicated"`` or ``"single"`` (``shards == 1``).
    mode: str
    shards: int
    outcomes: list[ShardOutcome] = field(default_factory=list)
    #: Why a partitioned attempt degraded to replicated execution, if it did.
    fallback_reason: str | None = None
    #: The user → shard assignment of a partitioned run.
    assignment: ShardAssignment | None = None
    #: Expected vs. actual per-shard load (partitioned runs only).
    load_summary: ShardLoadSummary | None = None

    @property
    def critical_path_cpu_seconds(self) -> float:
        """CPU seconds of the slowest shard — the partitioned run's lower
        bound on wall time given one core per worker."""
        return max((o.cpu_seconds for o in self.outcomes), default=0.0)


# ---------------------------------------------------------------------------
# Worker execution
# ---------------------------------------------------------------------------
def placement_digest(strategy) -> str | None:
    """Digest of a strategy's placement state for the cross-worker audit.

    Covers the array-backed placement tables (replicas, stats, counters)
    and the dict-based assignment state of the static baselines and SPAR.
    Returns ``None`` for strategies exposing none of those — the audit is
    then skipped rather than failed.
    """
    hasher = hashlib.sha256()
    seen = False
    tables = getattr(strategy, "tables", None)
    if tables is not None and hasattr(tables, "state_digest"):
        hasher.update(tables.state_digest().encode())
        seen = True
    assignment = getattr(strategy, "_assignment", None)
    if isinstance(assignment, dict):
        hasher.update(repr(sorted(assignment.items())).encode())
        load = getattr(strategy, "_load", None)
        if load is not None:
            hasher.update(repr(list(load)).encode())
        seen = True
    master = getattr(strategy, "_master", None)
    if isinstance(master, dict):
        hasher.update(repr(sorted(master.items())).encode())
        seen = True
    return hasher.hexdigest() if seen else None


def _execute_shard(
    shard_id: int,
    shards: int,
    partitioned: bool,
    owner_map: bytes,
    materials: ShardMaterials,
    heartbeat: Callable[[int, float], None] | None = None,
) -> ShardOutcome:
    """Build one shard's simulation from the materials and replay it."""
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    graph = materials.graph_factory()
    topology = materials.topology_factory()
    strategy = materials.strategy_factory()
    scenario = (
        materials.scenario_factory() if materials.scenario_factory is not None else None
    )
    stream = materials.stream_factory(graph)
    context = ShardContext(
        shard_id=shard_id,
        shards=shards,
        partitioned=partitioned,
        owner_map=owner_map,
        heartbeat=heartbeat,
    )
    simulator = ClusterSimulator(
        topology,
        graph,
        strategy,
        config=materials.config,
        scenario=scenario,
        shard_context=context,
    )
    result = simulator.run(stream)
    return ShardOutcome(
        shard_id=shard_id,
        result=result,
        delta=simulator.accountant.export_delta() if partitioned else None,
        digest=placement_digest(strategy) if partitioned else None,
        cpu_seconds=time.process_time() - cpu_start,
        wall_seconds=time.perf_counter() - wall_start,
    )


def _shard_worker(
    channel,
    shard_id: int,
    shards: int,
    owner_map: bytes,
    materials: ShardMaterials,
    heartbeat_interval: float,
) -> None:
    """Worker process entry point: replay one partitioned shard.

    Reports over ``channel`` (a multiprocessing queue) with tagged tuples:
    ``("hb", shard_id, events_done, sim_time, wall_elapsed)`` while running,
    then exactly one of ``("done", shard_id, ShardOutcome)``,
    ``("fallback", shard_id, reason)`` or ``("error", shard_id, traceback)``.
    """
    wall_start = time.perf_counter()
    last_beat = wall_start

    def heartbeat(events_done: int, sim_time: float) -> None:
        nonlocal last_beat
        now = time.perf_counter()
        if now - last_beat >= heartbeat_interval:
            last_beat = now
            channel.put(("hb", shard_id, events_done, sim_time, now - wall_start))

    try:
        outcome = _execute_shard(
            shard_id, shards, True, owner_map, materials, heartbeat
        )
        channel.put(("done", shard_id, outcome))
    except ShardFallbackError as exc:
        channel.put(("fallback", shard_id, str(exc)))
    except BaseException:  # noqa: BLE001 - relayed to the coordinator
        channel.put(("error", shard_id, traceback.format_exc()))


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------
def _mp_context():
    """Prefer ``fork`` (factories may be closures; no re-import cost)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _eta(horizon: float | None, sim_time: float, wall_elapsed: float) -> float | None:
    if horizon is None or sim_time <= 0 or horizon <= sim_time:
        return None
    return wall_elapsed * (horizon - sim_time) / sim_time


def _local_heartbeat(
    progress,
    shard_id: int,
    shards: int,
    mode: str,
    interval: float,
    horizon: float | None,
):
    """In-process heartbeat adapter for single/replicated execution."""
    if progress is None:
        return None
    started = time.perf_counter()
    last = [started]

    def emit(events_done: int, sim_time: float) -> None:
        now = time.perf_counter()
        if now - last[0] < interval:
            return
        last[0] = now
        elapsed = now - started
        progress(
            ShardHeartbeat(
                shard_id=shard_id,
                shards=shards,
                mode=mode,
                events_done=events_done,
                sim_time=sim_time,
                wall_elapsed=elapsed,
                eta_seconds=_eta(horizon, sim_time, elapsed),
            )
        )

    return emit


def _build_owner_map(graph, assignment: ShardAssignment) -> bytes:
    """Dense owner bytes with the :data:`UNOWNED` sentinel in every hole.

    The engine's closed-universe guard keys off the sentinel: any event
    touching a user id the initial graph never contained must trigger the
    replicated fallback, *including* ids inside the map's range that the
    graph simply skipped.
    """
    owner_map = bytearray([UNOWNED] * len(assignment.shard_map))
    shard_map = assignment.shard_map
    for user in graph.users:
        owner_map[user] = shard_map[user]
    return bytes(owner_map)


def _run_partitioned(
    materials: ShardMaterials,
    shards: int,
    owner_map: bytes,
    max_workers: int,
    progress,
    heartbeat_interval: float,
    horizon: float | None,
) -> tuple[dict[int, ShardOutcome] | None, str | None]:
    """Run the worker fleet; returns ``(outcomes, fallback_reason)``.

    ``outcomes`` is ``None`` exactly when a worker hit the closed-universe
    guard and the whole run must restart replicated.  Worker errors raise.
    """
    context = _mp_context()
    channel = context.Queue()
    pending = list(range(shards))
    running: dict[int, multiprocessing.Process] = {}
    outcomes: dict[int, ShardOutcome] = {}
    fallback: str | None = None
    failure: str | None = None
    try:
        while (pending or running) and fallback is None and failure is None:
            while pending and len(running) < max_workers:
                shard_id = pending.pop(0)
                process = context.Process(
                    target=_shard_worker,
                    args=(
                        channel,
                        shard_id,
                        shards,
                        owner_map,
                        materials,
                        heartbeat_interval,
                    ),
                    daemon=True,
                )
                process.start()
                running[shard_id] = process
            try:
                message = channel.get(timeout=0.5)
            except Empty:
                dead = [s for s, p in running.items() if not p.is_alive()]
                if not dead:
                    continue
                # A worker exited: give its queue feeder one grace window to
                # deliver the final message before declaring it lost.
                try:
                    message = channel.get(timeout=2.0)
                except Empty:
                    shard_id = dead[0]
                    code = running[shard_id].exitcode
                    failure = (
                        f"shard worker {shard_id} died without reporting "
                        f"(exit code {code})"
                    )
                    break
            tag = message[0]
            if tag == "hb":
                _, shard_id, events_done, sim_time, wall_elapsed = message
                if progress is not None:
                    progress(
                        ShardHeartbeat(
                            shard_id=shard_id,
                            shards=shards,
                            mode="partitioned",
                            events_done=events_done,
                            sim_time=sim_time,
                            wall_elapsed=wall_elapsed,
                            eta_seconds=_eta(horizon, sim_time, wall_elapsed),
                        )
                    )
            elif tag == "done":
                _, shard_id, outcome = message
                outcomes[shard_id] = outcome
                process = running.pop(shard_id)
                process.join()
            elif tag == "fallback":
                fallback = message[2]
            else:  # "error"
                failure = message[2]
    finally:
        for process in running.values():
            if process.is_alive():
                process.terminate()
            process.join()
        channel.close()
    if failure is not None:
        raise SimulationError(f"shard worker failed:\n{failure}")
    if fallback is not None:
        return None, fallback
    return outcomes, None


def _merge_partitioned(
    outcomes: dict[int, ShardOutcome],
    shards: int,
    topology,
    config: "SimulationConfig",
) -> SimulationResult:
    """Exact merge of the workers' partial results.

    Shard 0's result supplies every replicated field (all workers iterate
    the full event stream and hold identical placement state): executed
    counts and duration, replication factor, memory in use, fault records,
    unavailable views.  The partitioned fields are summed: owned read/write
    counts, and the traffic delta columns merged through a fresh
    coordinator accountant — whose ``snapshot()``/``top_switch_series()``
    construct the exported dicts exactly like a single-process run's
    accountant would, keeping the result byte-identical.
    """
    ordered = [outcomes[shard_id] for shard_id in range(shards)]
    digests = {o.digest for o in ordered if o.digest is not None}
    if len(digests) > 1:
        raise SimulationError(
            "placement state diverged across shard workers — the replicated "
            "decision plane invariant is broken (digest mismatch)"
        )
    accountant = TrafficAccountant(
        topology,
        bucket_width=config.bucket_width,
        measure_from=config.measure_from,
    )
    for outcome in ordered:
        if outcome.delta is None:  # pragma: no cover - defensive
            raise SimulationError("partitioned worker returned no traffic delta")
        accountant.merge_delta(outcome.delta)
    application_series, system_series = accountant.top_switch_series()
    base = ordered[0].result
    return replace(
        base,
        reads_executed=sum(o.result.reads_executed for o in ordered),
        writes_executed=sum(o.result.writes_executed for o in ordered),
        snapshot=accountant.snapshot(),
        top_series_application=application_series,
        top_series_system=system_series,
    )


def _load_summary(
    assignment: ShardAssignment, outcomes: list[ShardOutcome]
) -> "ShardLoadSummary | None":
    """Expected vs. actual load shares of a completed partitioned fleet."""
    expected_raw = tuple(float(p) for p in assignment.populations)
    expected_total = sum(expected_raw)
    cpu_raw = tuple(outcome.cpu_seconds for outcome in outcomes)
    cpu_total = sum(cpu_raw)
    if expected_total <= 0 or cpu_total <= 0:
        return None
    return ShardLoadSummary(
        shards=assignment.shards,
        expected_shares=tuple(value / expected_total for value in expected_raw),
        cpu_shares=tuple(value / cpu_total for value in cpu_raw),
    )


def run_sharded_detailed(
    materials: ShardMaterials,
    shards: int,
    *,
    seed: int = 7,
    max_workers: int | None = None,
    progress: Callable[[ShardHeartbeat], None] | None = None,
    heartbeat_interval: float = 2.0,
    horizon: float | None = None,
) -> ShardRunReport:
    """Replay one simulation across ``shards`` workers; full report.

    ``max_workers`` bounds how many worker processes run concurrently
    (default: all shards at once).  Workers never wait on each other, so
    waves change wall time but nothing else — schedule independence is a
    design property the parity tests assert.  ``horizon`` (simulated
    seconds the workload spans) enables per-shard ETA estimates in the
    heartbeats; ``seed`` drives the user → shard partitioner.
    """
    if shards < 1:
        raise SimulationError("shards must be at least 1")
    if max_workers is None:
        max_workers = shards
    if max_workers < 1:
        raise SimulationError("max_workers must be at least 1")
    if shards == 1:
        emit = _local_heartbeat(progress, 0, 1, "single", heartbeat_interval, horizon)
        outcome = _execute_shard(0, 1, False, b"", materials, emit)
        return ShardRunReport(
            result=outcome.result, mode="single", shards=1, outcomes=[outcome]
        )

    probe = materials.strategy_factory()
    pure = bool(getattr(type(probe), "shard_requests_pure", False))
    fallback_reason: str | None = None
    assignment: ShardAssignment | None = None

    if pure and shards <= 255:
        graph = materials.graph_factory()
        topology = materials.topology_factory()
        assignment = assign_user_shards(graph, shards, seed=seed)
        owner_map = _build_owner_map(graph, assignment)
        outcomes, fallback_reason = _run_partitioned(
            materials,
            shards,
            owner_map,
            max_workers,
            progress,
            heartbeat_interval,
            horizon,
        )
        if outcomes is not None:
            result = _merge_partitioned(outcomes, shards, topology, materials.config)
            summary = _load_summary(assignment, [outcomes[s] for s in range(shards)])
            if progress is not None and summary is not None:
                progress(summary)
            return ShardRunReport(
                result=result,
                mode="partitioned",
                shards=shards,
                outcomes=[outcomes[s] for s in range(shards)],
                assignment=assignment,
                load_summary=summary,
            )
    elif not pure:
        fallback_reason = (
            f"strategy {probe.name!r} feeds requests back into placement "
            "(shard_requests_pure=False); partitioned execution would not be "
            "exact"
        )
    else:
        fallback_reason = "partitioned mode supports at most 255 shards"

    emit = _local_heartbeat(
        progress, 0, shards, "replicated", heartbeat_interval, horizon
    )
    outcome = _execute_shard(0, shards, False, b"", materials, emit)
    return ShardRunReport(
        result=outcome.result,
        mode="replicated",
        shards=shards,
        outcomes=[outcome],
        fallback_reason=fallback_reason,
        assignment=assignment,
    )


def run_sharded(
    materials: ShardMaterials,
    shards: int,
    **kwargs,
) -> SimulationResult:
    """Replay one simulation across ``shards`` workers; result only."""
    return run_sharded_detailed(materials, shards, **kwargs).result


# ---------------------------------------------------------------------------
# RunSpec integration
# ---------------------------------------------------------------------------
_TRACKED_VIEWS_REFUSED = (
    "sharded replay cannot sample tracked views (per-shard read counts are "
    "not merged); run with shards=1"
)


def _spec_stream(workload_spec, graph):
    """Build a spec's stream, rejecting workloads that must track views."""
    stream, tracked = workload_spec.build_stream(graph)
    if tracked:
        raise SimulationError(_TRACKED_VIEWS_REFUSED)
    return stream


def materials_from_spec(spec: "RunSpec") -> ShardMaterials:
    """Picklable (spawn-safe) shard materials for a declarative run spec."""
    from functools import partial

    from ..runtime.spec import build_strategy

    if spec.tracked_views:
        raise SimulationError(_TRACKED_VIEWS_REFUSED)
    return ShardMaterials(
        topology_factory=spec.topology.build,
        graph_factory=spec.graph.build,
        strategy_factory=partial(
            build_strategy,
            spec.strategy,
            spec.effective_strategy_seed(),
            spec.dynasore_config,
        ),
        stream_factory=partial(_spec_stream, spec.workload),
        config=spec.config,
        scenario_factory=spec.scenario.build if spec.scenario is not None else None,
    )


def run_spec_sharded(
    spec: "RunSpec",
    shards: int | None = None,
    **kwargs,
) -> SimulationResult:
    """Execute a :class:`RunSpec` through the sharded engine.

    ``shards`` defaults to the spec's own ``shards`` field.  The horizon
    for heartbeat ETAs is derived from the workload's day span when the
    caller does not pass one.
    """
    from ..constants import DAY

    if shards is None:
        shards = getattr(spec, "shards", 1)
    if "horizon" not in kwargs and spec.workload.days > 0:
        kwargs["horizon"] = spec.workload.days * DAY
    return run_sharded(materials_from_spec(spec), shards, **kwargs)
