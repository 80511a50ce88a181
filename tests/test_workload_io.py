"""Tests for the binary trace file format and its runtime integration."""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.exceptions import WorkloadError
from repro.runtime.executor import execute_spec
from repro.runtime.spec import GraphSpec, RunSpec, TopologySpec, WorkloadSpec
from repro.socialgraph.generators import facebook_like
from repro.workload.io import TRACE_MAGIC, read_trace, trace_content_hash, write_trace
from repro.workload.stream import (
    CHUNK_EVENTS,
    EventChunk,
    EventStream,
    KIND_EDGE_ADD,
    KIND_READ,
    KIND_WRITE,
)
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator


@pytest.fixture
def workload_stream():
    graph = facebook_like(users=120, seed=5)
    return SyntheticWorkloadGenerator(
        graph, SyntheticWorkloadConfig(days=0.5, seed=5)
    ).stream(chunk_size=500)


class TestRoundTrip:
    def test_write_read_identical_chunks(self, tmp_path, workload_stream):
        path = tmp_path / "workload.trace"
        written = write_trace(path, workload_stream)
        loaded = read_trace(path)
        original_chunks = list(workload_stream.chunks())
        loaded_chunks = list(loaded.chunks())
        assert written == sum(len(chunk) for chunk in original_chunks)
        assert loaded_chunks == original_chunks

    def test_read_trace_is_reiterable(self, tmp_path, workload_stream):
        path = tmp_path / "workload.trace"
        write_trace(path, workload_stream)
        loaded = read_trace(path)
        assert list(loaded.rows()) == list(loaded.rows())

    def test_hand_built_stream_round_trips(self, tmp_path):
        rows = [(KIND_READ, 1.0, 3, -1), (KIND_WRITE, 2.5, 4, -1), (KIND_EDGE_ADD, 2.5, 3, 4)]
        path = tmp_path / "log.trace"
        assert write_trace(path, EventStream.from_rows(rows)) == 3
        assert list(read_trace(path).rows()) == rows

    def test_empty_stream_round_trips(self, tmp_path):
        path = tmp_path / "empty.trace"
        assert write_trace(path, EventStream.empty()) == 0
        assert list(read_trace(path).chunks()) == []

    def test_empty_chunks_are_skipped(self, tmp_path):
        (chunk,) = EventStream.from_rows([(KIND_READ, 1.0, 3, -1)]).chunks()
        stream = EventStream.from_chunks([EventChunk(), chunk, EventChunk(), chunk])
        path = tmp_path / "gaps.trace"
        assert write_trace(path, stream) == 2
        assert list(read_trace(path).chunks()) == [chunk, chunk]

    def test_unreplaceable_target_leaves_no_temporary_file(self, tmp_path, workload_stream):
        target = tmp_path / "occupied"
        target.mkdir()
        with pytest.raises(OSError):
            write_trace(target, workload_stream)
        assert [p.name for p in tmp_path.iterdir()] == ["occupied"]

    def test_unsorted_stream_is_rejected(self, tmp_path):
        backwards = EventStream.from_rows(
            [(KIND_READ, 5.0, 1, -1)]
        ).chunks()
        stream = EventStream.from_chunks(
            list(backwards)
            + list(EventStream.from_rows([(KIND_WRITE, 1.0, 2, -1)]).chunks())
        )
        with pytest.raises(WorkloadError):
            write_trace(tmp_path / "bad.trace", stream)

    @pytest.mark.parametrize("across_chunks", [False, True])
    def test_failed_write_leaves_no_file_behind(self, tmp_path, workload_stream, across_chunks):
        """A stream unsorted inside or across chunks fails mid-write: the
        temporary file is removed and an earlier trace at the path survives."""
        path = tmp_path / "workload.trace"
        write_trace(path, workload_stream)
        before = path.read_bytes()
        chunks = list(workload_stream.chunks())
        if across_chunks:
            chunks.append(chunks[0])
        else:
            chunks[-1].timestamps[-1] = 0.0
        for target in (path, tmp_path / "fresh.trace"):
            with pytest.raises(WorkloadError, match="not sorted"):
                write_trace(target, EventStream.from_chunks(chunks))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["workload.trace"]


class TestCorruption:
    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "corrupt.trace"
        path.write_bytes(b"NOTATRCE" + b"\x00" * 40)
        with pytest.raises(WorkloadError, match="bad magic"):
            read_trace(path)

    def test_truncated_header_raises(self, tmp_path):
        path = tmp_path / "short.trace"
        path.write_bytes(TRACE_MAGIC[:4])
        with pytest.raises(WorkloadError):
            read_trace(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        with pytest.raises(WorkloadError):
            read_trace(path)

    def test_unsupported_version_raises(self, tmp_path, workload_stream):
        path = tmp_path / "versioned.trace"
        write_trace(path, workload_stream)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # the little-endian version field follows the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(WorkloadError, match="version"):
            read_trace(path)

    def test_foreign_byte_order_raises(self, tmp_path, workload_stream):
        path = tmp_path / "swapped.trace"
        write_trace(path, workload_stream)
        raw = bytearray(path.read_bytes())
        raw[10] ^= 1  # flip the little-endian flag bit (flags field)
        path.write_bytes(bytes(raw))
        with pytest.raises(WorkloadError, match="byte order"):
            read_trace(path)

    def test_truncated_payload_raises(self, tmp_path, workload_stream):
        path = tmp_path / "truncated.trace"
        write_trace(path, workload_stream)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 64])
        with pytest.raises(WorkloadError, match="truncated"):
            list(read_trace(path).chunks())

    @pytest.mark.parametrize(
        ("old", "new"),
        [(3.0, 10.0), (6.0, 0.5), (3.0, float("nan"))],
        ids=["within-chunk", "across-chunks", "nan"],
    )
    def test_corrupt_body_timestamp_raises_when_iterated(self, tmp_path, old, new):
        """The header survives, so the file opens; the body fails the same
        ordering rule ``write_trace`` applies once the stream is iterated."""
        first, second = (
            EventStream.from_rows([(KIND_READ, float(t), 1, -1) for t in span]).chunks()
            for span in (range(1, 6), range(6, 11))
        )
        path = tmp_path / "body.trace"
        write_trace(path, EventStream.from_chunks([*first, *second]))
        raw = path.read_bytes()
        before, after = array("d", [old]).tobytes(), array("d", [new]).tobytes()
        assert raw.count(before) == 1
        path.write_bytes(raw.replace(before, after))
        stream = read_trace(path)
        with pytest.raises(WorkloadError, match="not sorted"):
            list(stream.chunks())

    def test_corrupt_body_kind_raises_when_iterated(self, tmp_path):
        """A kind byte outside the four event kinds fails when the body is
        read, not later inside a strategy's request kernel."""
        kinds = bytes([KIND_WRITE, KIND_WRITE, KIND_READ, KIND_WRITE, KIND_WRITE])
        rows = [(kind, float(t), 1, -1) for t, kind in enumerate(kinds)]
        path = tmp_path / "kind.trace"
        write_trace(path, EventStream.from_rows(rows))
        raw = path.read_bytes()
        assert raw.count(kinds) == 1
        path.write_bytes(raw.replace(kinds, kinds[:2] + bytes([9]) + kinds[3:]))
        stream = read_trace(path)
        with pytest.raises(WorkloadError, match="unknown event kind 9"):
            list(stream.chunks())

    def test_corrupt_body_followee_raises_when_iterated(self, tmp_path):
        """An edge event whose followee turned negative fails when the body
        is read, before replay could add it to the graph as a user."""
        rows = [(KIND_READ, 1.0, 1, -1), (KIND_EDGE_ADD, 2.0, 1, 12345), (KIND_READ, 3.0, 1, -1)]
        path = tmp_path / "followee.trace"
        write_trace(path, EventStream.from_rows(rows))
        raw = path.read_bytes()
        before, after = array("i", [12345]).tobytes(), array("i", [-1]).tobytes()
        assert raw.count(before) == 1
        path.write_bytes(raw.replace(before, after))
        stream = read_trace(path)
        with pytest.raises(WorkloadError, match="no followee"):
            list(stream.chunks())


#: Bytes of one event in a trace body (kind u8, timestamp f64, user u32, aux i32).
EVENT_BYTES = 1 + 8 + 4 + 4
#: Bytes of the file header and of a chunk header.
HEADER_BYTES = 24
CHUNK_HEADER_BYTES = 4


def four_chunk_stream() -> EventStream:
    """Four chunks of 200 reads each, timestamps 0..799."""
    rows = [(KIND_READ, float(t), t % 13, -1) for t in range(800)]
    return EventStream.from_rows(rows, chunk_size=200)


def chunk_ends(stream: EventStream) -> list[int]:
    """File offsets where each chunk record of ``stream``'s trace ends."""
    ends = []
    offset = HEADER_BYTES
    for chunk in stream.chunks():
        offset += CHUNK_HEADER_BYTES + len(chunk) * EVENT_BYTES
        ends.append(offset)
    return ends


class TestTruncationAfterOpen:
    """``read_trace`` validates the header eagerly and reads the body on
    each pass: a file that shrinks afterwards must fail with a
    ``WorkloadError`` naming it, never an ``EOFError`` or a crash."""

    @pytest.mark.parametrize(
        "cut",
        ["inside-header", "mid-chunk-header", "mid-payload", "chunk-boundary"],
    )
    def test_truncated_before_iteration(self, tmp_path, cut):
        written = four_chunk_stream()
        path = tmp_path / "shrunk.trace"
        write_trace(path, written)
        stream = read_trace(path)
        first_end = chunk_ends(written)[0]
        size = {
            "inside-header": HEADER_BYTES - 3,
            "mid-chunk-header": first_end + 2,
            "mid-payload": first_end + CHUNK_HEADER_BYTES + 100,
            "chunk-boundary": first_end,
        }[cut]
        os.truncate(path, size)
        with pytest.raises(WorkloadError, match=re.escape(str(path))):
            list(stream.chunks())

    @pytest.mark.parametrize("cut", ["chunk-boundary", "mid-payload"])
    def test_truncated_during_iteration(self, tmp_path, cut):
        written = four_chunk_stream()
        path = tmp_path / "shrinking.trace"
        write_trace(path, written)
        ends = chunk_ends(written)
        assert len(ends) == 4 and ends[-1] == path.stat().st_size
        chunks = read_trace(path).chunks()
        next(chunks)
        # The pass already sized the file; the reads must notice it shrank.
        size = ends[0] if cut == "chunk-boundary" else ends[1] - 10
        os.truncate(path, size)
        with pytest.raises(WorkloadError, match=re.escape(str(path))):
            list(chunks)


#: Iterates a trace in a fresh interpreter and prints how far the pass
#: raised the process's peak RSS, in bytes.  The peak is ``VmHWM``, the
#: high-water mark of this image's memory: ``ru_maxrss`` would start at the
#: forking test process's peak, which survives ``exec``.
RSS_PROBE = """
import sys
from repro.workload.io import read_trace

def peak_rss():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

stream = read_trace(sys.argv[1])
before = peak_rss()
events = sum(map(len, stream.chunks()))
print(events, peak_rss() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_trace_pass_holds_chunks_not_the_file(tmp_path):
    """A pass over a 5 MB trace raises the peak RSS by less than two
    chunks' worth of columns: the reader holds the chunk it is on, never
    every page of the file."""
    events = 300_000
    chunks = []
    for start in range(0, events, CHUNK_EVENTS):
        n = min(CHUNK_EVENTS, events - start)
        chunks.append(
            EventChunk(
                array("B", bytes(n)),
                array("d", range(start, start + n)),
                array("I", [index % 997 for index in range(n)]),
                array("i", [-1]) * n,
            )
        )
    path = tmp_path / "large.trace"
    assert write_trace(path, EventStream.from_chunks(chunks)) == events
    assert path.stat().st_size >= 5_000_000
    del chunks
    completed = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, str(path)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    read, growth = map(int, completed.stdout.split())
    assert read == events
    assert growth < 2 * CHUNK_EVENTS * EVENT_BYTES


class TestContentHash:
    def test_hash_tracks_content_not_name(self, tmp_path, workload_stream):
        a = tmp_path / "a.trace"
        b = tmp_path / "b.trace"
        write_trace(a, workload_stream)
        write_trace(b, workload_stream)
        assert trace_content_hash(a) == trace_content_hash(b)

    def test_workload_spec_from_file(self, tmp_path, workload_stream):
        path = tmp_path / "w.trace"
        write_trace(path, workload_stream)
        spec = WorkloadSpec.from_file(path)
        assert spec.kind == "file"
        assert spec.content_hash == trace_content_hash(path)
        stream, tracked = spec.build_stream(None)
        assert tracked == ()
        assert list(stream.rows()) == list(workload_stream.rows())

    def test_cache_key_is_content_addressed(self, tmp_path, workload_stream):
        a = tmp_path / "a.trace"
        b = tmp_path / "b" / "renamed.trace"
        b.parent.mkdir()
        write_trace(a, workload_stream)
        write_trace(b, workload_stream)

        def run_spec(path):
            return RunSpec(
                topology=TopologySpec.flat(6),
                graph=GraphSpec(dataset="facebook", users=120, seed=5),
                workload=WorkloadSpec.from_file(path),
                strategy="random",
            )

        assert run_spec(a).cache_key() == run_spec(b).cache_key()

    def test_hashless_file_specs_never_share_a_cache_token(self):
        a = WorkloadSpec(kind="file", days=0.0, seed=0, path="/tmp/a.trace")
        b = WorkloadSpec(kind="file", days=0.0, seed=0, path="/tmp/b.trace")
        assert a.cache_token() != b.cache_token()

    def test_from_file_accepts_a_flash_seed(self, tmp_path, workload_stream):
        from repro.runtime.spec import FlashSpec

        path = tmp_path / "w.trace"
        write_trace(path, workload_stream)
        flash = FlashSpec(followers=5, start_day=0.1, end_day=0.2)
        a = WorkloadSpec.from_file(path, flash=flash, seed=1)
        b = WorkloadSpec.from_file(path, flash=flash, seed=2)
        assert a.seed == 1 and b.seed == 2
        assert a.cache_token() != b.cache_token()

    def test_flash_seed_changes_file_cache_token(self):
        """The seed drives flash injection, so it must split cache keys."""
        from repro.runtime.spec import FlashSpec

        flash = FlashSpec(followers=5, start_day=0.1, end_day=0.2)
        a = WorkloadSpec(
            kind="file", days=0.0, seed=1, path="/tmp/a.trace",
            content_hash="abc", flash=flash,
        )
        b = WorkloadSpec(
            kind="file", days=0.0, seed=2, path="/tmp/a.trace",
            content_hash="abc", flash=flash,
        )
        assert a.cache_token() != b.cache_token()
        # Without a flash event the seed is inert and must NOT split keys.
        plain_a = WorkloadSpec(
            kind="file", days=0.0, seed=1, path="/tmp/a.trace", content_hash="abc"
        )
        plain_b = WorkloadSpec(
            kind="file", days=0.0, seed=2, path="/tmp/a.trace", content_hash="abc"
        )
        assert plain_a.cache_token() == plain_b.cache_token()

    def test_changed_file_is_refused(self, tmp_path, workload_stream):
        path = tmp_path / "w.trace"
        write_trace(path, workload_stream)
        spec = WorkloadSpec.from_file(path)
        write_trace(
            path,
            EventStream.from_rows([(KIND_READ, 1.0, 1, -1)]),
        )
        with pytest.raises(WorkloadError, match="changed on disk"):
            spec.build_stream(None)


class TestFileWorkloadExecution:
    def test_saved_trace_replays_identically_to_generated(self, tmp_path):
        """A spec replaying a saved trace equals the generating spec's run."""
        generated = RunSpec(
            topology=TopologySpec.flat(6),
            graph=GraphSpec(dataset="facebook", users=120, seed=5),
            workload=WorkloadSpec(kind="synthetic", days=0.5, seed=5),
            strategy="random",
        )
        graph = generated.graph.build()
        stream, _ = generated.workload.build_stream(graph)
        path = tmp_path / "saved.trace"
        write_trace(path, stream)
        replayed = RunSpec(
            topology=generated.topology,
            graph=generated.graph,
            workload=WorkloadSpec.from_file(path),
            strategy="random",
        )
        assert pickle.dumps(execute_spec(generated)) == pickle.dumps(execute_spec(replayed))
        assert generated.cache_key() != replayed.cache_key()
