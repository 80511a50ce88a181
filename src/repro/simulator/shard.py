"""Sharded multi-process replay of a single simulation.

The parallel runtime only parallelises *across* runs; this module spends
the columnar streams, array-backed tables and batch kernels on parallelism
*inside* one run.  One worker process per shard replays the workload
through its own :class:`~repro.simulator.engine.ClusterSimulator`; a
coordinator spawns the workers, audits their final placement state and
merges their traffic deltas into one
:class:`~repro.simulator.results.SimulationResult` that is
**byte-identical** to a single-process run.

There is one mode, **partitioned**.  The decision plane is *replicated*:
every worker applies every edge mutation, fault burst and maintenance tick,
so placement state evolves identically everywhere (no cross-shard read
protocol is needed — the resolution of any read is locally computable in
every worker, and the coordinator audits the invariant with placement
digests).  The measurement plane is *partitioned*: users are assigned to
shards by the k-way graph partitioner
(:func:`repro.partitioning.assign_user_shards`), and each worker's stream
goes through a :class:`ShardFilter`, a scenario that keeps every edge event
and only the read/write events its shard owns.  The system events' own
traffic is the fault traffic pure strategies record as single messages
(:meth:`~repro.traffic.accounting.TrafficAccountant.record`); every worker
but shard 0 drops those, so the merged traffic counts every message exactly
once.  The simulator, the accountant and the strategy kernels know nothing
of shards.  All traffic volumes are integer-valued floats, so summing
per-shard delta columns is exact.

Partitioning is exact only for strategies whose requests never feed back
into placement (``shard_requests_pure``: the static baselines and SPAR).
DynaSoRe's reads mutate per-replica statistics and drive the Algorithm 2/3
placement decisions, so any split of its request stream would starve every
worker of the statistics the others accumulated; the coordinator refuses
such a strategy before any worker starts.  Partitioning is also only sound
over a **closed user universe** — every event must reference users of the
initial graph, otherwise lazy placement could fire
request-order-dependently.  The filter guards this per chunk at C speed and
raises :class:`~repro.exceptions.SimulationError` *before* the offending
chunk executes; the whole run then fails with the guard's reason.

Nothing in the experiment runtime or the command line starts a sharded
run: experiments replay each run in one process and parallelise across
runs (``--jobs``).  The runner is reached from the benchmark's two-shard
block (``bench/driver.py``) and from the tests.

The process machinery (``multiprocessing``, ``queue``, ``traceback``) is
imported inside the functions that start, drain or report from a worker, so
a process that imports this module but never starts a fleet — every
benchmark round does — does not pay for it.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from itertools import compress
from typing import TYPE_CHECKING

from ..exceptions import SimulationError
from ..partitioning.sharding import ShardAssignment, assign_user_shards
from ..scenarios.base import CompositeScenario, Scenario, ScenarioContext
from ..traffic.accounting import TrafficAccountant, TrafficDelta
from ..workload.stream import KIND_EDGE_ADD, KIND_EDGE_REMOVE, EventChunk, EventStream
from .engine import ClusterSimulator
from .results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing import Process

    from ..config import SimulationConfig
    from ..runtime.spec import RunSpec

__all__ = [
    "UNOWNED",
    "ShardFilter",
    "ShardLoadSummary",
    "ShardMaterials",
    "ShardOutcome",
    "ShardRunReport",
    "materials_from_spec",
    "placement_digest",
    "run_sharded_detailed",
]


#: Owner-map byte marking a user id outside the initial social graph.
#: Any event touching such a user fails the partitioned run, so the
#: sentinel bounds partitioned runs to 255 shards.
UNOWNED = 0xFF


# ---------------------------------------------------------------------------
# Worker-side data shapes
# ---------------------------------------------------------------------------
class ShardFilter(Scenario):
    """One worker's share of the stream: every edge event and the requests
    its shard owns, in stream order.

    ``owner_map`` is a dense ``bytes`` indexed by user id whose values are
    shard ids, with :data:`UNOWNED` in every hole.  Composed *after* the
    run's own scenario: diurnal thinning draws its random numbers once per
    request in stream order, so it must see the whole stream.

    Per chunk, at C speed and before any event of the chunk runs, the filter
    enforces the **closed user universe**: an event touching a user outside
    the initial graph could trigger lazy placement, which partitioned
    request streams would replay in a different order, so it raises
    :class:`SimulationError`.  Unknown owners surface as the sentinel in the
    owner bytes; edge endpoints are checked with ``bytes.find`` loops over
    the rare edge kinds.  A 256-byte ``translate`` turns the owner bytes
    into the selector.

    Every pass also tallies the unfiltered stream's event count and first
    and last timestamps: the merged result's ``requests_executed`` and
    ``duration``.
    """

    name = "shard"

    def __init__(self, shard_id: int, owner_map: bytes) -> None:
        self.owner_map = owner_map
        #: owner byte -> selector byte (1 = owned by this shard)
        self._selector_table = bytes(
            1 if value == shard_id else 0 for value in range(256)
        )
        self.events = 0
        self.first_timestamp = 0.0
        self.last_timestamp = 0.0

    def transform_stream(self, stream: EventStream, context: ScenarioContext) -> EventStream:
        def _chunks() -> Iterator[EventChunk]:
            self.events = 0
            self.first_timestamp = self.last_timestamp = 0.0
            for chunk in stream.chunks():
                n = len(chunk)
                if n == 0:
                    continue
                selector = self._selector(chunk)
                times = chunk.timestamps
                if not self.events:
                    self.first_timestamp = times[0]
                self.events += n
                self.last_timestamp = times[n - 1]
                kept = selector.count(1)
                if kept == n:
                    yield chunk
                elif kept:
                    yield EventChunk(
                        array("B", compress(chunk.kinds, selector)),
                        array("d", compress(times, selector)),
                        array("I", compress(chunk.users, selector)),
                        array("i", compress(chunk.aux, selector)),
                    )

        return EventStream(_chunks)

    def _selector(self, chunk: EventChunk) -> bytearray:
        """The chunk's selector (1 = kept), after the closed-universe guard."""
        owner_map = self.owner_map
        try:
            owners = bytes(map(owner_map.__getitem__, chunk.users))
        except IndexError:
            raise SimulationError(
                "event references a user id beyond the initial graph"
            ) from None
        if owners.find(UNOWNED) != -1:
            raise SimulationError("event references a user outside the initial graph")
        selector = bytearray(owners.translate(self._selector_table))
        kinds = chunk.kinds.tobytes()
        aux = chunk.aux
        for edge_kind in (KIND_EDGE_ADD, KIND_EDGE_REMOVE):
            position = kinds.find(edge_kind)
            while position != -1:
                endpoint = aux[position]
                if not 0 <= endpoint < len(owner_map) or owner_map[endpoint] == UNOWNED:
                    raise SimulationError(
                        "edge event endpoint outside the initial graph"
                    )
                selector[position] = 1
                position = kinds.find(edge_kind, position + 1)
        return selector


@dataclass
class ShardMaterials:
    """Factories every worker rebuilds its simulation from.

    Workers *rebuild* rather than receive live objects: the replay mutates
    its graph and strategy, so each worker needs its own, and a build from
    the same factories repeats the same insertion history (a graph's rows
    are insertion-order lists, and that order feeds seeded placement
    decisions), so every worker starts bit-for-bit where a single-process
    run would.

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
    #: The worker's own :class:`SimulationResult` (partial traffic).
    result: SimulationResult
    #: Traffic delta to merge.
    delta: TrafficDelta
    #: Placement-state digest for the cross-worker consistency audit
    #: (``None`` when the strategy exposes no digestible placement state).
    digest: str | None
    #: Event count and first/last timestamps of the unfiltered stream
    #: (the :class:`ShardFilter`'s tally).
    events: int = 0
    first_timestamp: float = 0.0
    last_timestamp: float = 0.0
    #: CPU seconds this worker's process spent — the per-shard cost behind
    #: :attr:`ShardRunReport.critical_path_cpu_seconds`.
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0


@dataclass
class ShardLoadSummary:
    """Expected vs. actual per-shard load of one partitioned run.

    Shares are fractions of the fleet total.
    """

    shards: int
    #: Expected load share per shard: its share of the graph's users.
    expected_shares: tuple[float, ...]
    #: Measured CPU-seconds share per shard.
    cpu_shares: tuple[float, ...]

    @property
    def cpu_imbalance(self) -> float:
        """``max share x shards`` of the CPU shares (1.0 = the
        critical-path worker carries exactly its fair share)."""
        return max(self.cpu_shares) * len(self.cpu_shares)


@dataclass
class ShardRunReport:
    """Detailed outcome of :func:`run_sharded_detailed`."""

    result: SimulationResult
    shards: int
    #: One outcome per worker, in shard order.
    outcomes: list[ShardOutcome]
    #: The user → shard assignment the workers replayed.
    assignment: ShardAssignment
    #: Expected vs. actual per-shard load (``None`` when no CPU time was
    #: measured).
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
    owner_map: bytes,
    materials: ShardMaterials,
) -> ShardOutcome:
    """Build one shard's simulation from the materials and replay it.

    The simulator gets no hooks and no tracked views.  On every shard but
    0 its accountant drops single messages: ``shard_requests_pure``
    strategies record those for fault traffic alone, which every worker
    replays and shard 0 counts.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    graph = materials.graph_factory()
    topology = materials.topology_factory()
    strategy = materials.strategy_factory()
    shard_filter = ShardFilter(shard_id, owner_map)
    scenario = (
        materials.scenario_factory() if materials.scenario_factory is not None else None
    )
    stream = materials.stream_factory(graph)
    simulator = ClusterSimulator(
        topology,
        graph,
        strategy,
        config=materials.config,
        scenario=shard_filter if scenario is None else CompositeScenario(scenario, shard_filter),
    )
    if shard_id:
        simulator.accountant.record = lambda *message: 0
    result = simulator.run(stream)
    return ShardOutcome(
        shard_id=shard_id,
        result=result,
        delta=simulator.accountant.export_delta(),
        digest=placement_digest(strategy),
        events=shard_filter.events,
        first_timestamp=shard_filter.first_timestamp,
        last_timestamp=shard_filter.last_timestamp,
        cpu_seconds=time.process_time() - cpu_start,
        wall_seconds=time.perf_counter() - wall_start,
    )


def _shard_worker(
    channel,
    shard_id: int,
    owner_map: bytes,
    materials: ShardMaterials,
) -> None:
    """Worker process entry point: replay one partitioned shard.

    Reports over ``channel`` (a multiprocessing queue) exactly one tagged
    tuple: ``("done", shard_id, ShardOutcome)`` or
    ``("error", shard_id, traceback)``.
    """
    try:
        outcome = _execute_shard(shard_id, owner_map, materials)
        channel.put(("done", shard_id, outcome))
    except BaseException:  # noqa: BLE001 - relayed to the coordinator
        import traceback

        channel.put(("error", shard_id, traceback.format_exc()))


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------
def _mp_context():
    """Prefer ``fork`` (factories may be closures; no re-import cost)."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _build_owner_map(graph, assignment: ShardAssignment) -> bytes:
    """Dense owner bytes with the :data:`UNOWNED` sentinel in every hole.

    The filter's closed-universe guard keys off the sentinel: any event
    touching a user id the initial graph never contained must fail the run,
    *including* ids inside the map's range that the graph simply skipped.
    """
    owner_map = bytearray([UNOWNED] * len(assignment.shard_map))
    shard_map = assignment.shard_map
    for user in graph.users:
        owner_map[user] = shard_map[user]
    return bytes(owner_map)


def _run_partitioned(
    materials: ShardMaterials, shards: int, owner_map: bytes
) -> list[ShardOutcome]:
    """Run the worker fleet; returns the outcomes in shard order.

    Any worker error — the closed-universe guard included — terminates the
    fleet and raises :class:`SimulationError` carrying its traceback.
    """
    from queue import Empty

    context = _mp_context()
    channel = context.Queue()
    running: dict[int, Process] = {}
    outcomes: dict[int, ShardOutcome] = {}
    try:
        for shard_id in range(shards):
            process = context.Process(
                target=_shard_worker,
                args=(channel, shard_id, owner_map, materials),
                daemon=True,
            )
            process.start()
            running[shard_id] = process
        while running:
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
                    code = running[dead[0]].exitcode
                    raise SimulationError(
                        f"shard worker {dead[0]} died without reporting "
                        f"(exit code {code})"
                    ) from None
            tag, shard_id, payload = message
            if tag == "error":
                raise SimulationError(f"shard worker {shard_id} failed:\n{payload}")
            outcomes[shard_id] = payload
            running.pop(shard_id).join()
    finally:
        for process in running.values():
            if process.is_alive():
                process.terminate()
            process.join()
        channel.close()
    return [outcomes[shard_id] for shard_id in range(shards)]


def _merge_partitioned(
    outcomes: list[ShardOutcome],
    topology,
    config: "SimulationConfig",
) -> SimulationResult:
    """Exact merge of the workers' partial results.

    Shard 0 supplies every replicated field (all workers apply the same
    system events and hold identical placement state): the executed count
    and duration its filter tallied over the unfiltered stream, and from
    its result the replication factor, memory in use, fault records and
    unavailable views.  The partitioned fields are summed: owned read/write
    counts, and the traffic delta columns merged through a fresh
    coordinator accountant — whose ``snapshot()``/``top_switch_series()``
    construct the exported dicts exactly like a single-process run's
    accountant would, keeping the result byte-identical.
    """
    digests = {o.digest for o in outcomes if o.digest is not None}
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
    for outcome in outcomes:
        accountant.merge_delta(outcome.delta)
    application_series, system_series = accountant.top_switch_series()
    primary = outcomes[0]
    return replace(
        primary.result,
        duration=(
            primary.last_timestamp - primary.first_timestamp if primary.events else 0.0
        ),
        requests_executed=primary.events,
        reads_executed=sum(o.result.reads_executed for o in outcomes),
        writes_executed=sum(o.result.writes_executed for o in outcomes),
        snapshot=accountant.snapshot(),
        top_series_application=application_series,
        top_series_system=system_series,
    )


def _load_summary(
    assignment: ShardAssignment, outcomes: list[ShardOutcome]
) -> "ShardLoadSummary | None":
    """Expected vs. actual load shares of a completed fleet."""
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
) -> ShardRunReport:
    """Replay one simulation across ``shards`` partitioned workers.

    ``seed`` drives the user → shard partitioner; ``shards=1`` is a
    one-worker fleet.  Raises :class:`SimulationError` before any worker
    starts when ``shards`` is outside ``1..255`` (the :data:`UNOWNED`
    sentinel takes the last owner byte) or the strategy is not
    ``shard_requests_pure``, and after terminating the fleet when any
    worker fails (the closed-universe guard included).
    """
    if not 1 <= shards <= UNOWNED:
        raise SimulationError(f"shards must be in 1..{UNOWNED}, got {shards}")
    probe = materials.strategy_factory()
    if not getattr(type(probe), "shard_requests_pure", False):
        raise SimulationError(
            f"strategy {probe.name!r} feeds requests back into placement "
            "(shard_requests_pure=False); partitioned replay would not be exact"
        )
    graph = materials.graph_factory()
    assignment = assign_user_shards(graph, shards, seed=seed)
    outcomes = _run_partitioned(materials, shards, _build_owner_map(graph, assignment))
    return ShardRunReport(
        result=_merge_partitioned(
            outcomes, materials.topology_factory(), materials.config
        ),
        shards=shards,
        outcomes=outcomes,
        assignment=assignment,
        load_summary=_load_summary(assignment, outcomes),
    )


# ---------------------------------------------------------------------------
# RunSpec integration
# ---------------------------------------------------------------------------
_TRACKED_VIEWS_REFUSED = (
    "sharded replay cannot sample tracked views (per-shard read counts are "
    "not merged); run the spec through execute_spec"
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
