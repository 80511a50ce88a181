"""Graph coarsening by heavy-edge matching.

Multilevel partitioners (METIS and friends) repeatedly contract a matching of
the graph, preferring heavy edges, until the graph is small enough to
partition directly.  Each level remembers which coarse node every fine node
went into so partitions can be projected back during uncoarsening.

Graphs are in *index space* (see :mod:`repro.partitioning.kway`): nodes are
``0..n-1``, ``rows[i]`` is node ``i``'s neighbour row and ``weights[i]`` its
weight.  Coarse ids are dense by construction, so every level is again a
pair of plain lists.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass
class CoarseLevel:
    """A coarsened graph plus the mapping back to the finer level."""

    #: rows[coarse node] = {coarse neighbour -> summed edge weight}
    rows: list[dict[int, int]]
    #: node weight — the number of original vertices represented in the
    #: unweighted case, or the summed caller-supplied node weights (e.g.
    #: expected per-user request rates) when coarsening a weighted graph
    weights: list[float]
    #: fine_to_coarse[fine node] = coarse node
    fine_to_coarse: list[int]
    #: fine nodes in matching order (representative, partner, next
    #: representative, ...) — the order a projected assignment is built in
    fine_order: list[int]


def coarsen_once(
    rows: Sequence[dict[int, int]],
    weights: Sequence[float],
    rng: random.Random,
    max_node_weight: float,
) -> CoarseLevel:
    """Contract one heavy-edge matching of the graph.

    Nodes are visited in random order; each unmatched node is merged with its
    unmatched neighbour of heaviest edge weight (ties broken by lower node
    weight to keep coarse nodes balanced).  ``max_node_weight`` caps the size
    of a coarse node so a single community cannot swallow the whole graph.
    Coarse ids are handed out in matching order and each coarse row is
    filled member by member in that order, so row order — and with it every
    later tie-break — is a function of the shuffle alone.
    """
    visit = list(range(len(rows)))
    rng.shuffle(visit)
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
        best_partner_weight = 0.0
        for neighbour, weight in rows[node].items():
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

    coarse_rows: list[dict[int, int]] = [{} for _ in range(coarse)]
    coarse_weights: list[float] = [0] * coarse
    for fine in fine_order:
        coarse = fine_to_coarse[fine]
        coarse_weights[coarse] += weights[fine]
        row = coarse_rows[coarse]
        for neighbour, weight in rows[fine].items():
            coarse_neighbour = fine_to_coarse[neighbour]
            if coarse_neighbour != coarse:
                row[coarse_neighbour] = row.get(coarse_neighbour, 0) + weight
    return CoarseLevel(coarse_rows, coarse_weights, fine_to_coarse, fine_order)


def coarsen_to_size(
    rows: Sequence[dict[int, int]],
    weights: Sequence[float],
    target_size: int,
    rng: random.Random,
    max_node_weight: float,
) -> list[CoarseLevel]:
    """Repeatedly coarsen until the graph has at most ``target_size`` nodes.

    Returns the list of coarsening levels (finest first).  Coarsening stops
    early when a round shrinks the graph by less than 10%, which indicates the
    matching has become ineffective (typical for star-like graphs); that
    round is discarded, but its shuffle has been drawn from ``rng``.

    Contracted nodes carry the *sum* of the weights they absorb, so every
    coarse level conserves the total weight and the node-weight cap keeps a
    single heavy community from swallowing the graph regardless of whether
    weight means "vertices represented" or "expected request rate".
    """
    levels: list[CoarseLevel] = []
    while len(rows) > target_size:
        level = coarsen_once(rows, weights, rng, max_node_weight)
        if len(level.rows) >= 0.9 * len(rows):
            break
        levels.append(level)
        rows, weights = level.rows, level.weights
    return levels


__all__ = ["CoarseLevel", "coarsen_once", "coarsen_to_size"]
