"""Committed golden partitions (``tests/golden_partitions.json``).

Every digest was generated at the commit *before* the partitioner moved to
index space, so the file anchors the multilevel path, the hierarchical
recursion and the degenerate inputs to behaviour that predates the current kernels — dict order included:
initial placement iterates the assignment dicts.

Every partition of the graph grid is also checked against the partitioner's
contract — coverage, balance, tree consistency, a cut below chance — so a
regenerated digest cannot pin a partition that breaks it.

Regenerate (only when an assignment change is intended and explained):
``PYTHONPATH=src python tests/test_partition_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections.abc import Callable, Iterator
from functools import lru_cache
from pathlib import Path

import pytest

from repro.config import ClusterSpec
from repro.partitioning import (
    HierarchicalPartitionResult,
    PartitionResult,
    hierarchical_partition,
    part_weights,
    partition_kway,
    random_partition,
)
from repro.socialgraph.generators import facebook_like, livejournal_like, twitter_like
from repro.socialgraph.graph import SocialGraph

GOLDEN_PATH = Path(__file__).parent / "golden_partitions.json"

GRAPHS = {"twitter": twitter_like, "facebook": facebook_like, "livejournal": livejournal_like}
USERS = (40, 150, 700, 2500)  # 40: below the coarsening target, no level is built
SEEDS = (3, 7)
PARTS = (2, 3, 4, 8, 24)
#: the bench cluster (4 switches x 2 racks x 3 servers), a 2 x 2 x 2 one and
#: one with odd fan-outs at the top two levels
CLUSTERS = {
    "4x2x3": ClusterSpec(
        intermediate_switches=4, racks_per_intermediate=2, machines_per_rack=4
    ),
    "2x2x2": ClusterSpec(
        intermediate_switches=2, racks_per_intermediate=2, machines_per_rack=3
    ),
    "3x3x2": ClusterSpec(
        intermediate_switches=3, racks_per_intermediate=3, machines_per_rack=3
    ),
}
#: one switch and one server per rack: two of the three levels ask for 1 part
SINGLETONS = ClusterSpec(intermediate_switches=1, racks_per_intermediate=3, machines_per_rack=2)
#: cells at the paper's shapes (graph, users, seed): the flat split into one
#: part per server of its 225-server cluster (5 switches x 5 racks x 9
#: servers, ``ClusterSpec()``) and the hierarchical split on that cluster
PAPER_CELLS = (("livejournal", 2500, 7), ("facebook", 2500, 7))
PAPER_PARTS = ClusterSpec().total_servers
#: every cluster a hierarchical cell is cut for
CLUSTER_SPECS = {**CLUSTERS, "5x5x9": ClusterSpec()}


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@lru_cache(maxsize=None)
def _graph(kind: str, users: int) -> SocialGraph:
    return GRAPHS[kind](users=users, seed=11)


@lru_cache(maxsize=None)
def _adjacency(kind: str, users: int) -> dict[int, dict[int, int]]:
    return _graph(kind, users).undirected_adjacency()


def _kway_digest(result: PartitionResult) -> str:
    return _digest(list(result.assignment.items()), result.edge_cut, result.balance)


def _kway(adjacency, parts, seed) -> str:
    return _kway_digest(partition_kway(adjacency, parts, seed=seed))


def _hierarchical_digest(result: HierarchicalPartitionResult) -> str:
    return _digest(
        list(result.server_assignment.items()),
        list(result.intermediate_assignment.items()),
        list(result.rack_assignment.items()),
        result.edge_cut,
        result.balance,
    )


def _hierarchical(adjacency, spec, seed) -> str:
    return _hierarchical_digest(hierarchical_partition(adjacency, spec, seed=seed))


# The graph grid: one partition per cell, shared by its golden digest and its
# contract check.
@lru_cache(maxsize=None)
def _grid_kway(kind: str, users: int, parts: int, seed: int) -> PartitionResult:
    return partition_kway(_adjacency(kind, users), parts, seed=seed)


@lru_cache(maxsize=None)
def _grid_hierarchical(
    kind: str, users: int, cluster: str, seed: int
) -> HierarchicalPartitionResult:
    return hierarchical_partition(_adjacency(kind, users), CLUSTER_SPECS[cluster], seed=seed)


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
                for parts in PARTS:
                    yield (
                        f"kway/{kind}/{users}/parts{parts}/seed{seed}",
                        lambda k=kind, u=users, p=parts, s=seed: _kway_digest(
                            _grid_kway(k, u, p, s)
                        ),
                    )
                for name in CLUSTERS:
                    yield (
                        f"hierarchical/{kind}/{users}/{name}/seed{seed}",
                        lambda k=kind, u=users, c=name, s=seed: _hierarchical_digest(
                            _grid_hierarchical(k, u, c, s)
                        ),
                    )
    for kind, users, seed in PAPER_CELLS:
        yield (
            f"paper/{kind}/{users}/kway/parts{PAPER_PARTS}/seed{seed}",
            lambda k=kind, u=users, s=seed: _kway_digest(_grid_kway(k, u, PAPER_PARTS, s)),
        )
        yield (
            f"paper/{kind}/{users}/hierarchical/5x5x9/seed{seed}",
            lambda k=kind, u=users, s=seed: _hierarchical_digest(
                _grid_hierarchical(k, u, "5x5x9", s)
            ),
        )
    for kind in GRAPHS:
        for users in (40, 700):
            yield (
                f"scrambled/{kind}/{users}/kway",
                lambda k=kind, u=users: _kway(_scrambled(k, u), 4, 7),
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


def _cut(adjacency, assignment) -> int:
    """Edge cut counted over both directions of every edge, independently of
    :func:`repro.partitioning.edge_cut`'s one-direction walk."""
    crossing = sum(
        weight
        for node, row in adjacency.items()
        for neighbour, weight in row.items()
        if assignment[node] != assignment[neighbour]
    )
    assert crossing % 2 == 0
    return crossing // 2


def _chance_cut(adjacency, parts, seed) -> int:
    return _cut(adjacency, random_partition(list(adjacency), parts, seed=seed).assignment)


def _assert_within_tolerance(weights: list[int], parts: int) -> None:
    """The heaviest part holds at most 5 % over an even split (the default
    tolerance), or one node over it where 5 % is less than a node."""
    ideal = sum(weights) / parts
    assert max(weights) <= max(math.ceil(ideal), ideal * 1.05), weights


KWAY_GRID = [(k, u, p, s) for k in GRAPHS for u in USERS for p in PARTS for s in SEEDS] + [
    (k, u, PAPER_PARTS, s) for k, u, s in PAPER_CELLS
]
HIERARCHICAL_GRID = [
    (k, u, c, s) for k in GRAPHS for u in USERS for c in CLUSTERS for s in SEEDS
] + [(k, u, "5x5x9", s) for k, u, s in PAPER_CELLS]


@pytest.mark.parametrize("kind,users,parts,seed", KWAY_GRID)
def test_kway_partition_keeps_its_contract(kind, users, parts, seed):
    adjacency = _adjacency(kind, users)
    result = _grid_kway(kind, users, parts, seed)
    assert set(result.assignment) == set(adjacency)
    weights = part_weights(result.assignment, parts)  # raises on a part out of range
    _assert_within_tolerance(weights, parts)
    assert result.balance == max(weights) / (len(adjacency) / parts)
    assert result.edge_cut == _cut(adjacency, result.assignment)
    # Below two users a part there is no locality left to find.
    if users >= 2 * parts:
        assert result.edge_cut < _chance_cut(adjacency, parts, seed)


@pytest.mark.parametrize("kind,users,cluster,seed", HIERARCHICAL_GRID)
def test_hierarchical_partition_keeps_its_contract(kind, users, cluster, seed):
    spec = CLUSTER_SPECS[cluster]
    adjacency = _adjacency(kind, users)
    result = _grid_hierarchical(kind, users, cluster, seed)
    assert (
        set(result.server_assignment)
        == set(result.rack_assignment)
        == set(result.intermediate_assignment)
        == set(adjacency)
    )
    assert result.total_servers == spec.total_servers
    for node, server in result.server_assignment.items():
        assert 0 <= server < spec.total_servers
        rack = result.rack_assignment[node]
        assert rack == server // spec.servers_per_rack
        assert result.intermediate_assignment[node] == rack // spec.racks_per_intermediate
    # The first level is a plain k-way split across the intermediate switches.
    _assert_within_tolerance(
        part_weights(result.intermediate_assignment, spec.intermediate_switches),
        spec.intermediate_switches,
    )
    assert result.edge_cut == _cut(adjacency, result.server_assignment)
    if users >= 2 * spec.total_servers:
        assert result.edge_cut < _chance_cut(adjacency, spec.total_servers, seed)


if __name__ == "__main__":
    digests = {key: thunk() for key, thunk in CASES.items()}
    GOLDEN_PATH.write_text(
        json.dumps({"digests": dict(sorted(digests.items()))}, indent=1) + "\n"
    )
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
