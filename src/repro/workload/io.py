"""Binary trace files for chunked event streams.

Generated workloads can be saved once and replayed many times: a trace file
stores the columnar chunks of an :class:`~repro.workload.stream.EventStream`
verbatim, so reading is a sequence of bulk ``array.fromfile`` reads with
no per-event decoding.  A pass reads the file through its handle one chunk
at a time and holds only that chunk, keeping a paper-scale replay within a
small, constant workload memory budget.

Format (header integers little-endian; column payloads are raw native-order
array bytes, recorded by a byte-order flag and checked on read):

* 24-byte header — magic ``REPROEV1``, ``u16`` version, ``u16`` flags
  (bit 0: writer was little-endian), four ``u8`` column item sizes
  (kind, timestamp, user, aux), ``u64`` total event count;
* a sequence of chunk records — ``u32`` event count ``n`` followed by the
  raw bytes of the four columns (``n`` kinds, ``n`` timestamps, ``n``
  users, ``n`` aux values).

:func:`trace_content_hash` fingerprints a file so a workload loaded from
disk can be content-addressed into the experiment runtime's result cache
(:class:`~repro.runtime.executor.ResultCache`).
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
from array import array
from collections.abc import Iterator
from pathlib import Path

from ..exceptions import WorkloadError
from .stream import EventChunk, EventStream, ordered_chunks

#: File magic; the trailing digit is the format generation.
TRACE_MAGIC = b"REPROEV1"

#: Current format version (bump on incompatible layout changes).
TRACE_VERSION = 1

_HEADER = struct.Struct("<8sHH4BQ")
_CHUNK_HEADER = struct.Struct("<I")

#: Flag bit recording the writer's byte order (set = little-endian).
#: Column payloads are raw ``array.tobytes()`` in *native* order, so a
#: trace must be read on a host with the same endianness — the flag turns
#: a silently byte-swapped workload into a clean error.
_FLAG_LITTLE_ENDIAN = 1


def _host_flags() -> int:
    return _FLAG_LITTLE_ENDIAN if sys.byteorder == "little" else 0

#: Column item sizes this build writes (array typecodes B, d, I, i).
_ITEMSIZES = (
    array("B").itemsize,
    array("d").itemsize,
    array("I").itemsize,
    array("i").itemsize,
)

#: Payload bytes of one event (its four column items).
_EVENT_BYTES = sum(_ITEMSIZES)


def write_trace(path: str | os.PathLike, stream: EventStream) -> int:
    """Write a stream to a binary trace file.

    Chunks are validated for time order as they are written — a trace file
    is always a well-formed, replayable workload.  Returns the number of
    events written.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        total = _write_chunks(tmp, stream)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return total


def _write_chunks(tmp: Path, stream: EventStream) -> int:
    total = 0
    with tmp.open("wb") as handle:
        handle.write(
            _HEADER.pack(TRACE_MAGIC, TRACE_VERSION, _host_flags(), *_ITEMSIZES, 0)
        )
        for chunk in ordered_chunks(stream.chunks()):
            n = len(chunk)
            handle.write(_CHUNK_HEADER.pack(n))
            handle.write(chunk.kinds.tobytes())
            handle.write(chunk.timestamps.tobytes())
            handle.write(chunk.users.tobytes())
            handle.write(chunk.aux.tobytes())
            total += n
        # Seal the header with the final event count.
        handle.seek(0)
        handle.write(
            _HEADER.pack(TRACE_MAGIC, TRACE_VERSION, _host_flags(), *_ITEMSIZES, total)
        )
    return total


def _read_header(header: bytes, path: Path) -> int:
    """Validate the header; returns the recorded event count."""
    if len(header) < _HEADER.size:
        raise WorkloadError(f"trace file {path} is truncated (no header)")
    magic, version, flags, *itemsizes, events = _HEADER.unpack_from(header, 0)
    if magic != TRACE_MAGIC:
        raise WorkloadError(f"{path} is not a trace file (bad magic {magic!r})")
    if version != TRACE_VERSION:
        raise WorkloadError(
            f"trace file {path} has unsupported version {version} "
            f"(this build reads version {TRACE_VERSION})"
        )
    if flags & _FLAG_LITTLE_ENDIAN != _host_flags():
        raise WorkloadError(
            f"trace file {path} was written on a host with different byte "
            f"order; its columns cannot be decoded on this machine"
        )
    if tuple(itemsizes) != _ITEMSIZES:
        raise WorkloadError(
            f"trace file {path} was written with incompatible column sizes "
            f"{tuple(itemsizes)} (this platform uses {_ITEMSIZES})"
        )
    return events


def read_trace(path: str | os.PathLike) -> EventStream:
    """Open a trace file as a lazy, re-iterable event stream.

    The header is validated eagerly (so a corrupt file fails at open time,
    not mid-replay).  Each pass opens the file and reads one chunk at a
    time, its four columns straight from the handle into typed arrays
    (``array.fromfile``), so a pass holds one chunk of the trace, never the
    whole file.  Chunk counts are checked against the file's size before
    anything is read; a file truncated after opening — before or during a
    pass — raises :class:`~repro.exceptions.WorkloadError`.  Chunks pass
    the ordering rule of :func:`write_trace`
    (:func:`~repro.workload.stream.ordered_chunks`), so a body with a
    timestamp out of order or NaN raises when iterated.
    """
    source = Path(path)
    # Eager validation: read and check the header once up front.
    with source.open("rb") as handle:
        _read_header(handle.read(_HEADER.size), source)

    def _chunks() -> Iterator[EventChunk]:
        with source.open("rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            expected = _read_header(handle.read(_HEADER.size), source)
            offset = _HEADER.size
            seen = 0
            while offset < size:
                header = handle.read(_CHUNK_HEADER.size)
                if len(header) < _CHUNK_HEADER.size:
                    raise WorkloadError(
                        f"trace file {source} is truncated mid chunk header"
                    )
                (n,) = _CHUNK_HEADER.unpack(header)
                offset += _CHUNK_HEADER.size + n * _EVENT_BYTES
                if offset > size:
                    raise WorkloadError(
                        f"trace file {source} is truncated mid chunk payload"
                    )
                chunk = EventChunk()
                try:
                    for column in (chunk.kinds, chunk.timestamps, chunk.users, chunk.aux):
                        column.fromfile(handle, n)
                except (EOFError, ValueError):
                    # The file shrank after the size check above: ``fromfile``
                    # raises EOFError on a short read, or ValueError when the
                    # short read is not a whole number of items.
                    raise WorkloadError(
                        f"trace file {source} is truncated mid chunk payload"
                    ) from None
                seen += n
                yield chunk
            if seen != expected:
                raise WorkloadError(
                    f"trace file {source} records {expected} events "
                    f"but contains {seen}"
                )

    return EventStream(lambda: ordered_chunks(_chunks()))


def trace_content_hash(path: str | os.PathLike) -> str:
    """SHA-256 of a trace file's bytes (the result-cache content address)."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


__all__ = [
    "TRACE_MAGIC",
    "TRACE_VERSION",
    "read_trace",
    "trace_content_hash",
    "write_trace",
]
