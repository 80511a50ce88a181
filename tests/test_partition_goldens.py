"""Committed golden partitions (``tests/golden_partitions.json``).

Every digest was generated at the commit *before* the partitioner moved to
index space, so the file anchors the weighted and unweighted multilevel
paths, the hierarchical recursion, the shard maps and the degenerate inputs
to behaviour that predates the current kernels — dict order included:
initial placement iterates the assignment dicts.

Regenerate (only when an assignment change is intended and explained):
``PYTHONPATH=src python tests/test_partition_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable, Iterator
from functools import lru_cache
from pathlib import Path

import pytest

from repro.config import ClusterSpec
from repro.partitioning import assign_user_shards, hierarchical_partition, partition_kway
from repro.runtime.spec import WorkloadSpec
from repro.socialgraph.generators import facebook_like, livejournal_like, twitter_like
from repro.socialgraph.graph import SocialGraph
from repro.workload.activity import ActivityProfile, analytic_activity

GOLDEN_PATH = Path(__file__).parent / "golden_partitions.json"

GRAPHS = {"twitter": twitter_like, "facebook": facebook_like, "livejournal": livejournal_like}
USERS = (40, 150, 700, 2500)  # 40: below the coarsening target, no level is built
SEEDS = (3, 7)
#: the bench cluster (4 switches x 2 racks x 3 servers) and a 2 x 2 x 2 one
CLUSTERS = {
    "4x2x3": ClusterSpec(
        intermediate_switches=4, racks_per_intermediate=2, machines_per_rack=4
    ),
    "2x2x2": ClusterSpec(
        intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=3
    ),
}
#: one switch and one server per rack: two of the three levels ask for 1 part
SINGLETONS = ClusterSpec(intermediate_switches=1, racks_per_intermediate=3, machines_per_rack=2)


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@lru_cache(maxsize=None)
def _graph(kind: str, users: int) -> SocialGraph:
    return GRAPHS[kind](users=users, seed=11)


@lru_cache(maxsize=None)
def _adjacency(kind: str, users: int) -> dict[int, dict[int, int]]:
    return _graph(kind, users).undirected_adjacency()


@lru_cache(maxsize=None)
def _profile(kind: str, users: int) -> ActivityProfile:
    profile = analytic_activity(_graph(kind, users), WorkloadSpec.of("synthetic", 1.0, 5))
    assert profile is not None
    return profile


def _node_weights(flavour: str, kind: str, users: int) -> dict[int, float]:
    if flavour == "activity":
        return _profile(kind, users).rates
    rng = random.Random(99)
    return {node: 0.25 + 4.0 * rng.random() for node in _adjacency(kind, users)}


def _kway(adjacency, parts, seed, node_weights=None) -> str:
    result = partition_kway(adjacency, parts, seed=seed, node_weights=node_weights)
    return _digest(list(result.assignment.items()), result.edge_cut, result.balance)


def _hierarchical(adjacency, spec, seed) -> str:
    result = hierarchical_partition(adjacency, spec, seed=seed)
    return _digest(
        list(result.server_assignment.items()),
        list(result.intermediate_assignment.items()),
        list(result.rack_assignment.items()),
        result.edge_cut,
        result.balance,
    )


def _shards(kind, users, shards, activity) -> str:
    result = assign_user_shards(
        _graph(kind, users),
        shards,
        seed=7,
        activity=_profile(kind, users) if activity else None,
    )
    return _digest(result.shard_map, result.populations, result.edge_cut)


def _star(leaves: int) -> dict[int, dict[int, int]]:
    adjacency: dict[int, dict[int, int]] = {0: {}}
    for leaf in range(1, leaves + 1):
        adjacency[0][leaf] = 1
        adjacency[leaf] = {0: 1}
    return adjacency


def _scrambled(kind: str, users: int) -> dict[int, dict[int, int]]:
    """The same graph under sparse ids, keys and rows in shuffled order — the
    generators number users ``0..n-1`` in order, which would make the
    partitioner's relabelling pass the identity."""
    adjacency = _adjacency(kind, users)
    rng = random.Random(5)
    keys = list(adjacency)
    rng.shuffle(keys)
    scrambled = {}
    for node in keys:
        row = list(adjacency[node].items())
        rng.shuffle(row)
        scrambled[node * 7 + 3] = {neighbour * 7 + 3: weight for neighbour, weight in row}
    return scrambled


def golden_cases() -> Iterator[tuple[str, Callable[[], str]]]:
    """``(key, thunk)`` for every committed digest."""
    for kind in GRAPHS:
        for users in USERS:
            for seed in SEEDS:
                for parts in (2, 3, 4, 24):
                    yield (
                        f"kway/{kind}/{users}/parts{parts}/seed{seed}",
                        lambda k=kind, u=users, p=parts, s=seed: _kway(_adjacency(k, u), p, s),
                    )
                for flavour in ("activity", "random"):
                    for parts in (2, 4, 8):
                        yield (
                            f"weighted-{flavour}/{kind}/{users}/parts{parts}/seed{seed}",
                            lambda f=flavour, k=kind, u=users, p=parts, s=seed: _kway(
                                _adjacency(k, u), p, s, _node_weights(f, k, u)
                            ),
                        )
                for name, spec in CLUSTERS.items():
                    yield (
                        f"hierarchical/{kind}/{users}/{name}/seed{seed}",
                        lambda k=kind, u=users, c=spec, s=seed: _hierarchical(
                            _adjacency(k, u), c, s
                        ),
                    )
        for users in (150, 700, 2500):
            for shards in (2, 4):
                for activity in (False, True):
                    balance = "activity" if activity else "population"
                    yield (
                        f"shards/{kind}/{users}/shards{shards}/{balance}",
                        lambda k=kind, u=users, n=shards, a=activity: _shards(k, u, n, a),
                    )
    for kind in GRAPHS:
        for users in (40, 700):
            yield (
                f"scrambled/{kind}/{users}/kway",
                lambda k=kind, u=users: _kway(_scrambled(k, u), 4, 7),
            )
            yield (
                f"scrambled/{kind}/{users}/weighted",
                lambda k=kind, u=users: _kway(
                    _scrambled(k, u),
                    4,
                    7,
                    {n * 7 + 3: w for n, w in _node_weights("random", k, u).items()},
                ),
            )
            yield (
                f"scrambled/{kind}/{users}/hierarchical",
                lambda k=kind, u=users: _hierarchical(_scrambled(k, u), CLUSTERS["4x2x3"], 7),
            )
            yield (
                f"singletons/{kind}/{users}/hierarchical",
                lambda k=kind, u=users: _hierarchical(_scrambled(k, u), SINGLETONS, 7),
            )
    # A star: the matching pairs the hub with one leaf, the level shrinks by
    # < 10 % and is discarded — but its shuffle has been drawn from the rng.
    for parts in (2, 4):
        yield f"star/200/parts{parts}", lambda p=parts: _kway(_star(200), p, 7)
    yield "star/200/hierarchical", lambda: _hierarchical(_star(200), CLUSTERS["2x2x2"], 7)
    # Degenerate inputs.
    edgeless = {node: {} for node in (5, 3, 9, 1, 7, 2, 8, 0, 6, 4)}
    pair = {10: {20: 2}, 20: {10: 2}}
    yield "edge/empty", lambda: _kway({}, 4, 7)
    yield "edge/empty-hierarchical", lambda: _hierarchical({}, CLUSTERS["4x2x3"], 7)
    yield "edge/edgeless/parts3", lambda: _kway(edgeless, 3, 7)
    yield "edge/edgeless/hierarchical", lambda: _hierarchical(edgeless, CLUSTERS["2x2x2"], 7)
    yield "edge/parts-ge-nodes", lambda: _kway(edgeless, 10, 7)
    yield "edge/parts-gt-nodes", lambda: _kway(_adjacency("twitter", 40), 64, 7)
    yield "edge/single-part", lambda: _kway(_adjacency("facebook", 40), 1, 7)
    # 2 users never fill a 3-server rack: sub-parts smaller than the fan-out.
    yield "edge/two-users-on-4x2x3", lambda: _hierarchical(pair, CLUSTERS["4x2x3"], 7)
    path = {n: {m: 1 for m in (n - 1, n + 1) if 0 <= m < 5} for n in range(5)}
    yield "edge/five-user-path-on-4x2x3", lambda: _hierarchical(path, CLUSTERS["4x2x3"], 7)


CASES = dict(golden_cases())


def _committed() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_lists_exactly_the_cases():
    assert sorted(_committed()) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_partition_matches_golden(key):
    assert CASES[key]() == _committed()[key]


if __name__ == "__main__":
    digests = {key: thunk() for key, thunk in CASES.items()}
    GOLDEN_PATH.write_text(
        json.dumps({"digests": dict(sorted(digests.items()))}, indent=1) + "\n"
    )
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
