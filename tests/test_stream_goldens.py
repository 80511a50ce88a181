"""Committed golden event streams (``tests/golden_streams.json``).

Every digest was generated at the commit *before* the synthetic and trace
generators started emitting columns instead of rows, so the file anchors
their per-window RNG draws, the stable time sort and the chunk packing to
behaviour that predates the current code: a generator edit that reorders a
draw, breaks a timestamp tie differently or rounds ``uniform`` another way
changes a digest.

A digest is the sha256 over the stream's four columns (kinds, timestamps,
users, aux), each concatenated across chunks — independent of chunk size by
construction, which :func:`test_stream_is_chunk_size_independent` checks
against the same file.

Regenerate (only when a stream change is intended and explained):
``PYTHONPATH=src python tests/test_stream_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterator
from functools import lru_cache
from pathlib import Path

import pytest

from repro.socialgraph.generators import facebook_like, livejournal_like, twitter_like
from repro.socialgraph.graph import SocialGraph
from repro.workload.stream import EventStream
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator
from repro.workload.trace import NewsActivityTraceConfig, NewsActivityTraceGenerator

GOLDEN_PATH = Path(__file__).parent / "golden_streams.json"

GRAPHS = {
    "twitter/300": lambda: twitter_like(users=300, seed=11),
    "facebook/300": lambda: facebook_like(users=300, seed=11),
    "livejournal/1200": lambda: livejournal_like(users=1200, seed=11),
}
SEEDS = (3, 7)
#: 2.3 days end in a fractional generation window (synthetic) / day (trace)
DAYS = (2.0, 2.3)
CHUNK_SIZES = (1, 97, 65536)

StreamFactory = Callable[[int], EventStream]


@lru_cache(maxsize=None)
def _graph(name: str) -> SocialGraph:
    return GRAPHS[name]()


def _synthetic(graph: SocialGraph, **config) -> StreamFactory:
    generator = SyntheticWorkloadGenerator(graph, SyntheticWorkloadConfig(**config))
    return generator.stream


def _trace(graph: SocialGraph, **config) -> StreamFactory:
    generator = NewsActivityTraceGenerator(graph, NewsActivityTraceConfig(**config))
    return generator.stream


def stream_digest(stream: EventStream) -> str:
    """sha256 over the four columns, each concatenated across chunks."""
    columns: tuple[list[bytes], ...] = ([], [], [], [])
    for chunk in stream.chunks():
        for column, values in zip(
            columns, (chunk.kinds, chunk.timestamps, chunk.users, chunk.aux)
        ):
            column.append(values.tobytes())
    digest = hashlib.sha256()
    for column in columns:
        digest.update(b"".join(column))
    return digest.hexdigest()


def golden_cases() -> Iterator[tuple[str, Callable[[], StreamFactory]]]:
    """``(key, thunk returning a chunk_size -> stream factory)`` per digest."""
    for name in GRAPHS:
        for seed in SEEDS:
            for days in DAYS:
                yield (
                    f"synthetic/{name}/seed{seed}/days{days}",
                    lambda n=name, s=seed, d=days: _synthetic(_graph(n), days=d, seed=s),
                )
                yield (
                    f"trace/{name}/seed{seed}/days{days}",
                    lambda n=name, s=seed, d=days: _trace(_graph(n), days=d, seed=s),
                )
    # Degenerate budgets: one model (or both) draws nothing in every window.
    small = "twitter/300"
    yield (
        "synthetic/no-writes",
        lambda: _synthetic(_graph(small), days=2.0, writes_per_user_per_day=0.0),
    )
    yield (
        "synthetic/no-reads",
        lambda: _synthetic(_graph(small), days=2.0, read_write_ratio=0.0),
    )
    yield "trace/no-writes", lambda: _trace(_graph(small), days=2.0, writes_per_user=0.0)
    yield "trace/no-reads", lambda: _trace(_graph(small), days=2.0, read_write_ratio=0.0)
    yield "synthetic/empty-graph", lambda: _synthetic(SocialGraph(), days=2.0)
    yield "trace/empty-graph", lambda: _trace(SocialGraph(), days=2.0)


CASES = dict(golden_cases())


def _committed() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_lists_exactly_the_cases():
    assert sorted(_committed()) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_stream_matches_golden(key):
    assert stream_digest(CASES[key]()(65536)) == _committed()[key]


@pytest.mark.parametrize("key", sorted(CASES))
def test_stream_is_chunk_size_independent(key):
    """Every chunk size yields the golden columns, cut at its own multiples."""
    factory = CASES[key]()
    for chunk_size in CHUNK_SIZES:
        stream = factory(chunk_size)
        lengths = [len(chunk) for chunk in stream.chunks()]
        assert all(length == chunk_size for length in lengths[:-1])
        assert all(0 < length <= chunk_size for length in lengths[-1:])
        assert stream_digest(stream) == _committed()[key], chunk_size


if __name__ == "__main__":
    digests = {key: stream_digest(thunk()(65536)) for key, thunk in CASES.items()}
    GOLDEN_PATH.write_text(
        json.dumps({"digests": dict(sorted(digests.items()))}, indent=1) + "\n"
    )
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
