"""Committed golden social graphs (``tests/golden_graphs.json``).

Every digest was generated at the commit *before* the graph generator drew
with ``getrandbits`` and inserted its edges in bulk, so the file anchors the
generator's RNG draws and — what no result golden pins directly — the
iteration order of every ``following``/``followers`` set and of
``undirected_adjacency()``: read target lists, ``edges()`` and the
partitioner's tie-breaks all inherit those orders.

Two digests per graph: ``rows`` is the sha256 over every user's
``following`` and ``followers`` sets (in set-iteration order), the
``edges()`` order and ``num_edges``; ``adjacency`` is the sha256 over the
items of ``undirected_adjacency()``, outer and inner order both.

Regenerate (only when a graph change is intended and explained):
``PYTHONPATH=src python tests/test_graph_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Iterator
from pathlib import Path

import pytest

from repro.socialgraph.generators import facebook_like, livejournal_like, twitter_like
from repro.socialgraph.graph import SocialGraph

GOLDEN_PATH = Path(__file__).parent / "golden_graphs.json"

GRAPHS = {"twitter": twitter_like, "facebook": facebook_like, "livejournal": livejournal_like}
USERS = (40, 700, 2500)
SEEDS = (3, 7)
#: the graphs of bench/'s four workloads, at seed 7
BENCH_GRAPHS = (("twitter", 5000), ("facebook", 2000), ("livejournal", 14000))


def graph_digests(graph: SocialGraph) -> dict[str, str]:
    """``{"rows": ..., "adjacency": ...}`` sha256 digests of one graph."""
    rows = hashlib.sha256()
    for user in graph.users:
        rows.update(
            repr((user, tuple(graph.following(user)), tuple(graph.followers(user)))).encode()
        )
    rows.update(repr((list(graph.edges()), graph.num_edges)).encode())
    adjacency = hashlib.sha256()
    for node, row in graph.undirected_adjacency().items():
        adjacency.update(repr((node, list(row.items()))).encode())
    return {"rows": rows.hexdigest(), "adjacency": adjacency.hexdigest()}


def golden_cases() -> Iterator[tuple[str, Callable[[], SocialGraph]]]:
    """``(key, thunk building the graph)`` for every committed graph."""
    for kind, build in GRAPHS.items():
        for users in USERS:
            for seed in SEEDS:
                yield f"{kind}/{users}/seed{seed}", lambda b=build, u=users, s=seed: b(u, s)
    for kind, users in BENCH_GRAPHS:
        yield f"{kind}/{users}/seed7", lambda b=GRAPHS[kind], u=users: b(u, 7)


CASES = dict(golden_cases())


def _committed() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_lists_exactly_the_cases():
    expected = {f"{key}/{part}" for key in CASES for part in ("rows", "adjacency")}
    assert sorted(_committed()) == sorted(expected)


@pytest.mark.parametrize("key", sorted(CASES))
def test_graph_matches_golden(key):
    committed = _committed()
    digests = graph_digests(CASES[key]())
    assert digests == {part: committed[f"{key}/{part}"] for part in digests}


if __name__ == "__main__":
    digests = {
        f"{key}/{part}": digest
        for key, thunk in CASES.items()
        for part, digest in graph_digests(thunk()).items()
    }
    GOLDEN_PATH.write_text(
        json.dumps({"digests": dict(sorted(digests.items()))}, indent=1) + "\n"
    )
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
