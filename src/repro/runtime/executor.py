"""Execution backends for declarative run specs.

:func:`execute_spec` materialises a :class:`~repro.runtime.spec.RunSpec`
and runs it to a :class:`~repro.simulator.results.SimulationResult`; it is a
module-level function so it pickles cleanly into worker processes.

:class:`RuntimeExecutor` fans a list of specs out across CPU cores
(``jobs > 1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`),
consults an optional on-disk :class:`ResultCache` keyed by the spec's
content hash, and reports progress/ETA through a callback.  Results are
returned in spec order regardless of completion order, and every run is
seeded from its spec alone, so serial and parallel execution produce
identical results.

The process pool is imported where it is started (``_run_parallel``):
``concurrent.futures`` pulls in ``multiprocessing``, ``socket`` and
``pickle``, ≈ 2.2 MiB that a process running specs in-process never needs.
Cache entries are JSON, so reading one never imports ``pickle`` either.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from ..simulator.engine import ClusterSimulator
from ..simulator.results import SimulationResult
from .spec import RunSpec, build_strategy

#: Default location of the on-disk result cache (relative to the CWD).
DEFAULT_CACHE_DIR = ".repro-cache"


def execute_spec(spec: RunSpec) -> SimulationResult:
    """Run one spec from scratch and return its result.

    Everything is rebuilt from the spec (topology, graph, stream, strategy),
    so runs are independent and deterministic in the spec's seeds — the
    property that makes both caching and process-level parallelism safe.
    The workload is consumed as a lazy chunk stream: a worker never holds
    more than one chunk of events in memory.  Every run replays in this
    one process; grids parallelise across runs (:class:`RuntimeExecutor`).
    """
    topology = spec.topology.build()
    graph = spec.graph.build()
    stream, workload_tracked = spec.workload.build_stream(graph)
    strategy = build_strategy(
        spec.strategy, spec.effective_strategy_seed(), spec.dynasore_config
    )
    scenario = spec.scenario.build() if spec.scenario is not None else None
    simulator = ClusterSimulator(topology, graph, strategy, spec.config, scenario=scenario)
    for user in workload_tracked:
        simulator.track_view(user)
    for user in spec.tracked_views:
        if user not in workload_tracked:
            simulator.track_view(user)
    return simulator.run(stream)


class ResultCache:
    """On-disk cache of simulation results keyed by spec content hash.

    An entry is ``<key>.json``: ``{"key": <cache key>, "result":
    asdict(result)}``.  Dict keys keep the result's own insertion order
    (device dicts iterate in set order, levels in topology order, tracked
    views in tracking order), so the rebuilt result pickles to the same
    bytes as the live one.  Loading an entry parses JSON and never runs code.
    """

    def __init__(self, directory: str | os.PathLike = DEFAULT_CACHE_DIR) -> None:
        self.directory = Path(directory)
        #: entries :meth:`get` found on disk but could not use
        self.unreadable = 0

    def path_for(self, spec: RunSpec) -> Path:
        """File backing a spec's cached result."""
        return self.directory / f"{spec.cache_key()}.json"

    def get(self, spec: RunSpec) -> SimulationResult | None:
        """Cached result of a spec, or None.  An entry that exists but does
        not rebuild exactly — truncated, not JSON, another spec's, a missing
        or extra field, a value of the wrong type — reads as a miss and is
        counted in :attr:`unreadable`."""
        try:
            payload = json.loads(self.path_for(spec).read_bytes())
            if (
                type(payload) is dict
                and payload.keys() == {"key", "result"}
                and payload["key"] == spec.cache_key()
            ):
                return _rebuild(SimulationResult, payload["result"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, RecursionError):  # unreadable, not JSON, no result
            pass
        self.unreadable += 1
        return None

    def put(self, spec: RunSpec, result: SimulationResult) -> None:
        """Store a result (best effort: cache failures never fail the run)."""
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.path_for(spec)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps({"key": spec.cache_key(), "result": asdict(result)}))
            os.replace(tmp, path)
        except OSError:
            pass

    def clear(self) -> int:
        """Delete every cache entry (and any ``.pkl`` entry an older version
        wrote); returns the number of files removed."""
        removed = 0
        if self.directory.is_dir():
            for pattern in ("*.json", "*.pkl"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed


@cache
def _field_types(kind: type) -> dict[str, Any]:
    hints = get_type_hints(kind)
    return {field.name: hints[field.name] for field in fields(kind)}


def _rebuild(kind: Any, value: Any) -> Any:
    """``value`` as parsed from JSON, rebuilt as an instance of ``kind``.

    Raises :class:`ValueError` unless it rebuilds exactly: every dataclass
    field present and no other, int dict keys written as ints, tuples of
    the declared length and every leaf of the declared type (an int stands
    for a float, as it does in Python; a bool stands for neither).  Strings
    are interned, as the literals they were built from are.
    """
    if is_dataclass(kind):
        types = _field_types(kind)
        if type(value) is not dict or value.keys() != types.keys():
            raise ValueError(f"{kind.__name__} fields do not match")
        return kind(**{name: _rebuild(types[name], value[name]) for name in types})
    origin = get_origin(kind)
    if origin is dict:
        key_type, item_type = get_args(kind)
        if type(value) is not dict:
            raise ValueError("expected an object")
        return {
            _rebuild_key(key_type, key): _rebuild(item_type, item)
            for key, item in value.items()
        }
    if origin is list:
        (item_type,) = get_args(kind)
        if type(value) is not list:
            raise ValueError("expected an array")
        return [_rebuild(item_type, item) for item in value]
    if origin is tuple:
        item_types = get_args(kind)
        if type(value) is not list or len(value) != len(item_types):
            raise ValueError(f"expected an array of {len(item_types)}")
        return tuple(map(_rebuild, item_types, value))
    if type(value) is kind or (kind is float and type(value) is int):
        return sys.intern(value) if kind is str else value
    raise ValueError(f"expected {kind.__name__}, got {type(value).__name__}")


def _rebuild_key(kind: type, key: str) -> Any:
    if kind is str:
        return sys.intern(key)
    number = int(key)
    if str(number) != key:
        raise ValueError(f"{key!r} is not an int key")
    return number


@dataclass(frozen=True)
class Progress:
    """One progress update of a grid execution."""

    completed: int
    total: int
    cached: int
    elapsed: float
    #: Estimated seconds remaining (None until one run has finished live).
    eta: float | None

    def describe(self) -> str:
        """Human-readable one-liner for progress displays."""
        eta = f", eta {self.eta:.0f}s" if self.eta is not None else ""
        cached = f" ({self.cached} cached)" if self.cached else ""
        return (
            f"{self.completed}/{self.total} runs{cached}, "
            f"{self.elapsed:.0f}s elapsed{eta}"
        )


ProgressCallback = Callable[[Progress], None]


class RuntimeExecutor:
    """Runs grids of specs on a serial or process-pool backend.

    Parameters
    ----------
    jobs:
        Worker processes; 1 (the default) executes in-process, which keeps
        tracebacks simple and avoids fork overhead for small grids.
    cache:
        Optional :class:`ResultCache`.  Hits skip execution entirely; every
        live result is written back.
    progress:
        Optional callback invoked with a :class:`Progress` after every
        completed run.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        progress: ProgressCallback | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress

    # ------------------------------------------------------------------ runs
    def run(self, specs: Sequence[RunSpec]) -> list[SimulationResult]:
        """Execute every spec and return results in spec order."""
        specs = list(specs)
        results: list[SimulationResult | None] = [None] * len(specs)
        started = time.perf_counter()
        cached = 0

        pending: list[int] = []
        for index, spec in enumerate(specs):
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                results[index] = hit
                cached += 1
            else:
                pending.append(index)
        completed = len(specs) - len(pending)
        self._report(completed, len(specs), cached, started, live_done=0, live_time=0.0)

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                self._run_serial(specs, results, pending, cached, started)
            else:
                self._run_parallel(specs, results, pending, cached, started)

        # Callers pair results with specs/labels positionally; a hole here
        # would silently mis-attribute every following result.
        missing = [index for index, result in enumerate(results) if result is None]
        if missing:  # pragma: no cover - defensive
            raise RuntimeError(f"runs {missing} produced no result")
        return results

    # -------------------------------------------------------------- backends
    def _run_serial(self, specs, results, pending, cached, started) -> None:
        live_done = 0
        live_time = 0.0
        for index in pending:
            t0 = time.perf_counter()
            result = execute_spec(specs[index])
            live_time += time.perf_counter() - t0
            live_done += 1
            results[index] = result
            if self.cache is not None:
                self.cache.put(specs[index], result)
            self._report(
                len(specs) - len(pending) + live_done,
                len(specs),
                cached,
                started,
                live_done,
                live_time,
                remaining=len(pending) - live_done,
            )

    def _run_parallel(self, specs, results, pending, cached, started) -> None:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        live_done = 0
        live_time = 0.0
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(execute_spec, specs[index]): index for index in pending}
            waiting = set(futures)
            while waiting:
                done, waiting = wait(waiting, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    result = future.result()
                    results[index] = result
                    live_done += 1
                    if self.cache is not None:
                        self.cache.put(specs[index], result)
                    # Wall-clock per completed run already reflects the
                    # pool's concurrency, so the ETA formula is shared with
                    # the serial backend.
                    live_time = time.perf_counter() - started
                    self._report(
                        len(specs) - len(pending) + live_done,
                        len(specs),
                        cached,
                        started,
                        live_done,
                        live_time,
                        remaining=len(pending) - live_done,
                    )

    # -------------------------------------------------------------- progress
    def _report(
        self,
        completed: int,
        total: int,
        cached: int,
        started: float,
        live_done: int,
        live_time: float,
        remaining: int = 0,
    ) -> None:
        if self.progress is None:
            return
        elapsed = time.perf_counter() - started
        eta: float | None = None
        if live_done and remaining:
            eta = live_time / live_done * remaining
        self.progress(
            Progress(
                completed=completed,
                total=total,
                cached=cached,
                elapsed=elapsed,
                eta=eta,
            )
        )


__all__ = [
    "DEFAULT_CACHE_DIR",
    "Progress",
    "ProgressCallback",
    "ResultCache",
    "RuntimeExecutor",
    "execute_spec",
]
