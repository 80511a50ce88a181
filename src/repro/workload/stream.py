"""Chunked, columnar event streams (the workload data path).

The paper's real workload is a two-week trace with ~27M events; holding one
frozen dataclass per event makes a paper-scale run allocate tens of millions
of heap objects before the simulator replays the first message.  This module
replaces the materialised object list with a *struct-of-arrays* pipeline:

* :class:`EventChunk` — a fixed batch (~64k events) of four typed arrays
  (kind ``u8``, timestamp ``f64``, user ``u32``, aux ``i32``), roughly 17
  bytes per event instead of an object graph;
* :class:`EventStream` — a re-iterable, lazily produced sequence of chunks.
  A stream wraps a chunk *factory*, so iterating twice regenerates the same
  chunks deterministically (generators re-seed their RNGs per iteration);
* :func:`merge_streams` — a stable k-way timestamp merge, used to combine a
  base workload with flash events, read storms and scenario fragments
  without sorting the union in memory.

Event rows are ``(kind, timestamp, user, aux)``.  For reads and writes
``aux`` is :data:`NO_AUX`; for edge events ``user`` is the follower and
``aux`` the followee; :meth:`EventStream.rows` is the per-event view of a
stream.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import islice
from operator import le

from ..constants import DAY
from ..exceptions import WorkloadError

#: Event kind codes (the ``u8`` column).
KIND_READ = 0
KIND_WRITE = 1
KIND_EDGE_ADD = 2
KIND_EDGE_REMOVE = 3

#: The four kind codes as bytes, for :meth:`EventChunk.validate`.
_EVENT_KINDS = bytes((KIND_READ, KIND_WRITE, KIND_EDGE_ADD, KIND_EDGE_REMOVE))

#: ``aux`` value of events that carry no second user (reads and writes).
NO_AUX = -1

#: Default number of events per chunk.  64k events keep a chunk around one
#: megabyte while amortising per-chunk Python overhead over many events.
CHUNK_EVENTS = 65536

#: An event row: ``(kind, timestamp, user, aux)``.
EventRow = tuple[int, float, int, int]


class EventChunk:
    """A struct-of-arrays batch of time-ordered events."""

    __slots__ = ("kinds", "timestamps", "users", "aux")

    def __init__(
        self,
        kinds: array | None = None,
        timestamps: array | None = None,
        users: array | None = None,
        aux: array | None = None,
    ) -> None:
        self.kinds = kinds if kinds is not None else array("B")
        self.timestamps = timestamps if timestamps is not None else array("d")
        self.users = users if users is not None else array("I")
        self.aux = aux if aux is not None else array("i")

    def __len__(self) -> int:
        return len(self.kinds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventChunk):
            return NotImplemented
        return (
            self.kinds == other.kinds
            and self.timestamps == other.timestamps
            and self.users == other.users
            and self.aux == other.aux
        )

    def append(self, kind: int, timestamp: float, user: int, aux: int = NO_AUX) -> None:
        """Append one event row (callers must keep rows time ordered)."""
        self.kinds.append(kind)
        self.timestamps.append(timestamp)
        self.users.append(user)
        self.aux.append(aux)

    def rows(self) -> Iterator[EventRow]:
        """Iterate the chunk as ``(kind, timestamp, user, aux)`` tuples."""
        return zip(self.kinds, self.timestamps, self.users, self.aux)

    def validate(self) -> None:
        """Raise when the chunk is internally inconsistent or unordered,
        holds a kind byte outside the four event kinds, or an edge event
        with no followee (a negative ``aux``)."""
        lengths = {len(self.kinds), len(self.timestamps), len(self.users), len(self.aux)}
        if len(lengths) != 1:
            raise WorkloadError("event chunk columns have diverging lengths")
        kinds = self.kinds.tobytes()
        # Deleting the known kinds leaves the unknown ones, at C speed.
        unknown = kinds.translate(None, _EVENT_KINDS)
        if unknown:
            raise WorkloadError(f"event chunk holds unknown event kind {unknown[0]}")
        # Edge events are rare: visit only them.
        aux = self.aux
        for edge_kind in (KIND_EDGE_ADD, KIND_EDGE_REMOVE):
            position = kinds.find(edge_kind)
            while position != -1:
                if aux[position] < 0:
                    raise WorkloadError(
                        f"edge event at index {position} has no followee "
                        f"(aux {aux[position]})"
                    )
                position = kinds.find(edge_kind, position + 1)
        # ``<=`` is False against NaN, so a NaN timestamp fails too.
        timestamps = self.timestamps
        if not all(map(le, timestamps, islice(timestamps, 1, None))):
            raise WorkloadError("event chunk is not sorted by timestamp")


@dataclass(frozen=True)
class StreamStats:
    """One-pass summary of an event stream."""

    events: int
    reads: int
    writes: int
    mutations: int
    first_timestamp: float
    last_timestamp: float

    @property
    def duration(self) -> float:
        """Time span covered by the stream (0 for empty streams)."""
        if self.events == 0:
            return 0.0
        return self.last_timestamp - self.first_timestamp


class EventStream:
    """A re-iterable, chunked stream of time-ordered events.

    Wraps a *factory* returning a fresh chunk iterator, so the stream can be
    consumed several times (each consumption regenerates the same chunks —
    factories must derive all randomness from fixed seeds).
    """

    def __init__(self, source: Callable[[], Iterator[EventChunk]]) -> None:
        self._source = source

    # ---------------------------------------------------------------- access
    def chunks(self) -> Iterator[EventChunk]:
        """Iterate the stream's chunks (a fresh pass each call)."""
        return self._source()

    def rows(self) -> Iterator[EventRow]:
        """Iterate events as ``(kind, timestamp, user, aux)`` rows."""
        for chunk in self.chunks():
            yield from chunk.rows()

    # ------------------------------------------------------------- summaries
    def stats(self) -> StreamStats:
        """Count events per kind and record the covered time span."""
        events = reads = writes = 0
        first = 0.0
        last = 0.0
        for chunk in self.chunks():
            n = len(chunk)
            if n == 0:
                continue
            if events == 0:
                first = chunk.timestamps[0]
            last = chunk.timestamps[n - 1]
            events += n
            kinds = chunk.kinds.tobytes()
            reads += kinds.count(KIND_READ)
            writes += kinds.count(KIND_WRITE)
        mutations = events - reads - writes
        return StreamStats(
            events=events,
            reads=reads,
            writes=writes,
            mutations=mutations,
            first_timestamp=first,
            last_timestamp=last,
        )

    # -------------------------------------------------------------- adapters
    @staticmethod
    def from_chunks(chunks: Sequence[EventChunk]) -> "EventStream":
        """Stream over already-built chunks (re-iterable, no laziness)."""
        held = tuple(chunks)
        return EventStream(lambda: iter(held))

    @staticmethod
    def from_rows(
        rows: Iterable[EventRow], chunk_size: int = CHUNK_EVENTS
    ) -> "EventStream":
        """Eagerly pack rows into chunks; rows going back in time are rejected."""
        return EventStream.from_chunks(list(ordered_chunks(pack_rows(rows, chunk_size))))

    @staticmethod
    def empty() -> "EventStream":
        return EventStream.from_chunks(())


# ---------------------------------------------------------------------------
# Packing, run segmentation and ordering
# ---------------------------------------------------------------------------
def pack_rows(
    rows: Iterable[EventRow], chunk_size: int = CHUNK_EVENTS
) -> Iterator[EventChunk]:
    """Pack a row iterator into chunks of at most ``chunk_size`` events."""
    if chunk_size < 1:
        raise WorkloadError("chunk_size must be at least 1")
    chunk = EventChunk()
    append = chunk.append
    for kind, timestamp, user, aux in rows:
        append(kind, timestamp, user, aux)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = EventChunk()
            append = chunk.append
    if len(chunk):
        yield chunk


#: A time-ordered batch of requests as columns: kinds, timestamps, users.
RequestColumns = tuple[bytes, array, array]


def time_ordered_columns(
    kinds: bytes, timestamps: Sequence[float], users: Sequence[int]
) -> RequestColumns:
    """Stable-sort a batch of requests by timestamp, column by column.

    The argsort is stable (ties keep their input order, like sorting rows
    on the timestamp alone) and each column is gathered at C speed, so a
    generator never builds a row per event.
    """
    order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
    return (
        bytes(map(kinds.__getitem__, order)),
        array("d", map(timestamps.__getitem__, order)),
        array("I", map(users.__getitem__, order)),
    )


def pack_columns(
    batches: Iterable[RequestColumns], chunk_size: int = CHUNK_EVENTS
) -> Iterator[EventChunk]:
    """Pack time-ordered request batches into chunks of ``chunk_size`` events.

    The column-native twin of :func:`pack_rows` for generators that emit a
    whole window at a time: chunks are cut at the same multiples of
    ``chunk_size`` (only the last may be shorter) and are byte-identical to
    packing the same events row by row.  Batches hold reads and writes
    only, so the ``aux`` column is all :data:`NO_AUX`.
    """
    if chunk_size < 1:
        raise WorkloadError("chunk_size must be at least 1")
    no_aux = array("i", [NO_AUX])
    kinds = array("B")
    timestamps = array("d")
    users = array("I")
    for batch_kinds, batch_timestamps, batch_users in batches:
        kinds.frombytes(batch_kinds)
        timestamps.extend(batch_timestamps)
        users.extend(batch_users)
        full = len(kinds) - len(kinds) % chunk_size
        for start in range(0, full, chunk_size):
            stop = start + chunk_size
            yield EventChunk(
                kinds[start:stop], timestamps[start:stop], users[start:stop],
                no_aux * chunk_size,
            )
        del kinds[:full], timestamps[:full], users[:full]
    if kinds:
        yield EventChunk(kinds, timestamps, users, no_aux * len(kinds))


def request_run_end(kinds: bytes, start: int, end: int) -> int:
    """End of the request run (reads and writes) beginning at ``start``.

    Returns the smallest index in ``(start, end]`` holding an edge-mutation
    event (``end`` when there is none).  ``kinds`` is a chunk's kind column
    as ``bytes`` (``chunk.kinds.tobytes()``), so the scan runs at C speed:
    two ``bytes.find`` calls per run instead of a per-event comparison.
    Reads and writes form **one** run — request streams interleave them
    tightly (a read-heavy trace still sprinkles writes every few events),
    so request runs are orders of magnitude longer than single-kind runs;
    the execution kernels branch per event on the kind byte instead of
    paying a dispatch per kind flip.
    """
    position = kinds.find(KIND_EDGE_ADD, start + 1, end)
    if position >= 0:
        end = position
    position = kinds.find(KIND_EDGE_REMOVE, start + 1, end)
    if position >= 0:
        end = position
    return end


def ordered_chunks(chunks: Iterable[EventChunk]) -> Iterator[EventChunk]:
    """Yield the non-empty chunks; raise if time goes back in or across them
    (a NaN timestamp counts as out of order)."""
    last_timestamp = float("-inf")
    for chunk in filter(len, chunks):
        chunk.validate()
        if not chunk.timestamps[0] >= last_timestamp:
            raise WorkloadError("event stream is not sorted across chunks")
        last_timestamp = chunk.timestamps[-1]
        yield chunk


# ---------------------------------------------------------------------------
# Merging and chunk-level queries
# ---------------------------------------------------------------------------
def merge_streams(
    *streams: EventStream, chunk_size: int = CHUNK_EVENTS
) -> EventStream:
    """Stable k-way merge of time-ordered streams.

    Ties keep the events of earlier arguments first (matching the stable
    sort of their concatenation), and the merge holds only one chunk per
    input in flight — merging a 27M-event base with a small mutation stream
    never materialises either side.
    """
    sources = tuple(streams)
    if not sources:
        return EventStream.empty()
    if len(sources) == 1:
        return sources[0]

    def _chunks() -> Iterator[EventChunk]:
        iterators = [stream.rows() for stream in sources]
        merged = heapq.merge(*iterators, key=lambda row: row[1])
        return pack_rows(merged, chunk_size)

    return EventStream(_chunks)


def allocate_proportionally(total: int, weights: list[float]) -> list[int]:
    """Integer shares of ``total`` proportional to ``weights`` (exact sum).

    Uses largest-remainder rounding, so the shares always add up to
    ``total`` and track the weights as closely as integers allow.  The
    stream-native generators allocate per-window event budgets with this
    (weights = window widths x load factors), which keeps event *rates*
    even across windows of different lengths.
    """
    if not weights or total <= 0:
        return [0] * len(weights)
    scale = sum(weights)
    if scale <= 0:
        shares = [0] * len(weights)
        shares[0] = total
        return shares
    exact = [total * weight / scale for weight in weights]
    shares = [int(value) for value in exact]
    shortfall = total - sum(shares)
    by_remainder = sorted(
        range(len(weights)), key=lambda index: exact[index] - shares[index], reverse=True
    )
    for index in by_remainder[:shortfall]:
        shares[index] += 1
    return shares


def events_per_day(stream: EventStream) -> dict[int, dict[str, int]]:
    """Read/write counts per simulated day, computed chunk-wise.

    Used by the Figure 2 experiment without materialising the trace.
    """
    days: dict[int, dict[str, int]] = {}
    for chunk in stream.chunks():
        kinds = chunk.kinds
        timestamps = chunk.timestamps
        for i in range(len(kinds)):
            kind = kinds[i]
            if kind == KIND_READ:
                field = "reads"
            elif kind == KIND_WRITE:
                field = "writes"
            else:
                continue
            day = int(timestamps[i] // DAY)
            bucket = days.get(day)
            if bucket is None:
                bucket = days.setdefault(day, {"reads": 0, "writes": 0})
            bucket[field] += 1
    return days


__all__ = [
    "CHUNK_EVENTS",
    "EventChunk",
    "EventRow",
    "EventStream",
    "KIND_EDGE_ADD",
    "KIND_EDGE_REMOVE",
    "KIND_READ",
    "KIND_WRITE",
    "NO_AUX",
    "StreamStats",
    "allocate_proportionally",
    "events_per_day",
    "request_run_end",
    "merge_streams",
    "ordered_chunks",
    "pack_columns",
    "pack_rows",
    "time_ordered_columns",
]
