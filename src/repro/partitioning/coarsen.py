"""Graph coarsening by heavy-edge matching.

Multilevel partitioners (METIS and friends) repeatedly contract a matching of
the graph, preferring heavy edges, until the graph is small enough to
partition directly.  Each level remembers which coarse node every fine node
went into so partitions can be projected back during uncoarsening.

Graphs are in *index space* (see :mod:`repro.partitioning.kway`): nodes are
``0..n-1``, ``rows[i]`` is node ``i``'s neighbour row — a ``(targets,
weights)`` pair — and ``weights[i]`` its weight.  A row's targets are a
tuple; its edge weights go through :func:`pack_weights`, which keeps them
as ``bytes`` when every weight is an int in ``0..255`` and as a tuple
otherwise.  Either reads back the same ints, so the kernels iterate and sum
a row without knowing which it holds.  Coarse ids are dense by
construction, so every level is again a pair of plain lists in the same
row layout.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Sequence
from dataclasses import dataclass

#: One node's neighbour row: neighbour positions and edge weights, in step.
Row = tuple[tuple[int, ...], bytes | tuple[int, ...]]


def pack_weights(weights: Collection[int]) -> bytes | tuple[int, ...]:
    """A row's edge weights as ``bytes`` — 1 byte a weight instead of an
    8-byte pointer — when every one is an int in ``0..255``, else as a
    tuple.  Iterating either yields the same ints (``bytes`` yields the
    interpreter's cached small ints, unboxed for free).  ``weights`` must
    be a collection that iterates again, never a generator: one half
    consumed by a failed ``bytes()`` would lose weights in the fallback.
    """
    try:
        return bytes(weights)
    except (TypeError, ValueError):
        return tuple(weights)


@dataclass
class CoarseLevel:
    """A coarsened graph plus the mapping back to the finer level."""

    #: rows[coarse node] = (coarse neighbours, summed edge weights)
    rows: list[Row]
    #: node weight — the number of original vertices represented
    weights: list[int]
    #: fine_to_coarse[fine node] = coarse node
    fine_to_coarse: list[int]
    #: fine nodes in matching order (representative, partner, next
    #: representative, ...) — the order a projected assignment is built in
    fine_order: list[int]


def _shuffled_range(size: int, rng: random.Random) -> list[int]:
    """``rng.shuffle(list(range(size)))`` with the same draws: the
    Fisher–Yates walk ``Random.shuffle`` does, each ``randbelow(i + 1)``
    taken with ``getrandbits`` as ``Random`` takes it (the bit length of the
    bound, redrawn while out of range), without a Python call per element.
    """
    order = list(range(size))
    getrandbits = rng.getrandbits
    for i in reversed(range(1, size)):
        bound = i + 1
        bits = bound.bit_length()
        j = getrandbits(bits)
        while j >= bound:
            j = getrandbits(bits)
        order[i], order[j] = order[j], order[i]
    return order


def coarsen_once(
    rows: Sequence[Row],
    weights: Sequence[int],
    rng: random.Random,
    max_node_weight: int,
) -> CoarseLevel:
    """Contract one heavy-edge matching of the graph.

    Nodes are visited in random order; each unmatched node is merged with its
    unmatched neighbour of heaviest edge weight (ties broken by lower node
    weight to keep coarse nodes balanced).  ``max_node_weight`` caps the size
    of a coarse node so a single community cannot swallow the whole graph.
    Coarse ids are handed out in matching order and each coarse row is
    filled member by member in that order, so row order — and with it every
    later tie-break — is a function of the shuffle alone.  The members of a
    coarse node are consecutive in that order, so each coarse row is summed
    in one dict and frozen into a row as soon as its last member is in.
    """
    visit = _shuffled_range(len(rows), rng)
    fine_to_coarse = [-1] * len(rows)
    fine_order: list[int] = []
    coarse = 0
    for node in visit:
        if fine_to_coarse[node] >= 0:
            continue
        fine_to_coarse[node] = coarse  # also keeps a self-loop out of the scan
        fine_order.append(node)
        node_weight = weights[node]
        best_neighbour = -1
        best_weight = -1
        best_partner_weight = 0
        for neighbour, weight in zip(*rows[node]):
            if weight < best_weight or fine_to_coarse[neighbour] >= 0:
                continue
            partner_weight = weights[neighbour]
            if node_weight + partner_weight > max_node_weight:
                continue
            if weight > best_weight or partner_weight < best_partner_weight:
                best_neighbour = neighbour
                best_weight = weight
                best_partner_weight = partner_weight
        if best_neighbour >= 0:
            fine_to_coarse[best_neighbour] = coarse
            fine_order.append(best_neighbour)
        coarse += 1

    coarse_rows: list[Row] = []
    coarse_weights: list[int] = []
    row: dict[int, int] = {}
    coarse_weight = 0
    coarse = 0
    for fine in fine_order:
        if fine_to_coarse[fine] != coarse:
            coarse_rows.append((tuple(row), pack_weights(row.values())))
            coarse_weights.append(coarse_weight)
            row = {}
            coarse_weight = 0
            coarse += 1
        coarse_weight += weights[fine]
        for neighbour, weight in zip(*rows[fine]):
            coarse_neighbour = fine_to_coarse[neighbour]
            if coarse_neighbour != coarse:
                row[coarse_neighbour] = row.get(coarse_neighbour, 0) + weight
    if fine_order:
        coarse_rows.append((tuple(row), pack_weights(row.values())))
        coarse_weights.append(coarse_weight)
    return CoarseLevel(coarse_rows, coarse_weights, fine_to_coarse, fine_order)


def coarsen_to_size(
    rows: Sequence[Row],
    weights: Sequence[int],
    target_size: int,
    rng: random.Random,
    max_node_weight: int,
) -> list[CoarseLevel]:
    """Repeatedly coarsen until the graph has at most ``target_size`` nodes.

    Returns the list of coarsening levels (finest first).  Coarsening stops
    early when a round shrinks the graph by less than 10%, which indicates the
    matching has become ineffective (typical for star-like graphs); that
    round is discarded, but its shuffle has been drawn from ``rng``.

    Contracted nodes carry the *sum* of the weights they absorb, so every
    coarse level conserves the total weight and the node-weight cap keeps a
    single heavy community from swallowing the graph.
    """
    levels: list[CoarseLevel] = []
    while len(rows) > target_size:
        level = coarsen_once(rows, weights, rng, max_node_weight)
        if len(level.rows) >= 0.9 * len(rows):
            break
        levels.append(level)
        rows, weights = level.rows, level.weights
    return levels


__all__ = ["CoarseLevel", "Row", "coarsen_once", "coarsen_to_size", "pack_weights"]
