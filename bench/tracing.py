"""Span tracing from outside the simulator.

The traced benchmark run wraps the *public* calls into each layer (strategy
kernels and ticks, accountant recording, WAL writes, chunk fetches, set-up
phases) with :meth:`Tracer.patch`, which shadows a bound method with an
instance attribute — nothing under ``src/`` changes and nothing is patched
on a class, so only the objects of one traced run are affected.

A span is ``(name, start, end, parent span)``; spans live in flat in-memory
columns and are written out once, when the run ends.  A name's *self time*
is the duration of its spans minus the part their child spans cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

#: Percentiles a "high" timing may be reported at, highest first.
_HIGH_PERCENTILES = (99, 95, 90, 75)


class Tracer:
    """Collects spans; with ``enabled=False`` every entry point is a no-op,
    so the driver runs one code path traced and untraced."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Span columns (index = span id).
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        # Open spans, innermost last; -1 is "no parent".
        self._stack: list[int] = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------ recording
    def span(self, name: str):
        """Context manager recording one span around a block."""
        return self._span(self._name_id(name)) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name_id: int):
        index = self._open(name_id)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, function, name: str):
        """``function`` with a span recorded around every call."""
        if not self.enabled:
            return function
        name_id = self._name_id(name)
        open_span = self._open
        close_span = self._close

        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def patch(self, target, attribute: str, name: str) -> None:
        """Shadow ``target.attribute`` with its span-recording wrapper."""
        if self.enabled:
            setattr(target, attribute, self.wrap(getattr(target, attribute), name))

    @contextmanager
    def patched_entry(self, mapping: dict, key, name: str):
        """Wrap one entry of a registry dict for the duration of a block."""
        original = mapping[key]
        mapping[key] = self.wrap(original, name)
        try:
            yield
        finally:
            mapping[key] = original

    def iterate(self, iterable, name: str):
        """Yield from ``iterable``, recording a span around every fetch
        (including the final one that finds the iterator exhausted)."""
        if not self.enabled:
            yield from iterable
            return
        name_id = self._name_id(name)
        iterator = iter(iterable)
        while True:
            index = self._open(name_id)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    # -------------------------------------------------------------- queries
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``total_s``, ``self_s`` and ``calls``.

        ``calls`` counts only spans whose parent has another name, so a
        kernel entry point that delegates to a second wrapped entry point
        of the same layer counts once.
        """
        count = len(self.names)
        total = [0.0] * count
        own = [0.0] * count
        calls = [0] * count
        name_ids = self.name_ids
        for index, name_id in enumerate(name_ids):
            duration = self.ends[index] - self.starts[index]
            own[name_id] += duration
            parent = self.parents[index]
            parent_name = name_ids[parent] if parent >= 0 else -1
            if parent_name >= 0:
                own[parent_name] -= duration
            if parent_name != name_id:
                total[name_id] += duration
                calls[name_id] += 1
        return {
            name: {"total_s": total[i], "self_s": own[i], "calls": calls[i]}
            for i, name in enumerate(self.names)
        }

    def durations(self, name: str) -> list[float]:
        """Durations (children included) of every span with this name."""
        name_id = self._name_ids.get(name)
        return [
            self.ends[index] - self.starts[index]
            for index, value in enumerate(self.name_ids)
            if value == name_id
        ]

    def write(self, path: Path, workload: str) -> None:
        """Write the span columns of one workload's traced run as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": workload,
            "names": self.names,
            "name_id": self.name_ids,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def high_percentile(values: list[float]) -> tuple[int, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with too few samples for any of the
    candidate percentiles it degrades to the median.
    """
    for pct in _HIGH_PERCENTILES:
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, percentile(values, pct)
    return 50, percentile(values, 50)
