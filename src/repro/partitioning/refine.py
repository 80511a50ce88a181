"""Boundary refinement of a k-way partition (Kernighan–Lin / FM style).

After an initial partition is computed (directly or projected from a coarser
level), greedy passes move boundary nodes to the neighbouring part that
maximises the edge-cut gain while respecting the balance constraint.  This is
the same refinement family METIS uses; a handful of passes is enough to reach
good cuts on social graphs.

Both kernels work in *index space* (see :mod:`repro.partitioning.kway`):
``rows[i]`` is node ``i``'s ``(targets, weights)`` neighbour row, ``part[i]``
its current part, ``weights[i]`` its integer weight (the vertices it stands
for), so part weights are exact sums in any order.
"""

from __future__ import annotations

from collections.abc import Sequence

from .coarsen import Row


def refine_partition(
    rows: Sequence[Row],
    part: list[int],
    parts: int,
    weights: Sequence[int],
    max_part_weight: float,
    passes: int = 4,
) -> int:
    """Improve ``part`` in place with greedy boundary moves.

    Every pass visits nodes in index order and moves a node to the part that
    maximises ``external - internal`` connectivity (first part seen in
    neighbour order wins ties) unless the move would push the target above
    ``max_part_weight``.  Returns the number of gain evaluations performed.

    The sweep is an exact *worklist*: after the first pass a node is
    evaluated again only if (a) a neighbour moved since its last evaluation,
    (b) it moved itself, or (c) a positive-gain target was refused by the
    balance limit.  A node's gains depend only on its own and its
    neighbours' parts, not on part weights; so for any other node the
    evaluation would find the same non-positive gains as last time and move
    nothing, and since an evaluation that moves nothing has no side effect,
    skipping it leaves moves, their order and the ``moved`` counts unchanged.
    """
    part_weight = [0] * parts
    for owner, weight in zip(part, weights):
        part_weight[owner] += weight
    dirty = bytearray(b"\x01") * len(rows)
    evaluations = 0
    for _ in range(passes):
        moved = 0
        node = dirty.find(1)
        while node >= 0:
            dirty[node] = 0
            targets, edge_weights = rows[node]
            if targets:
                evaluations += 1
                current = part[node]
                # Connectivity of the node towards each part it touches.
                connectivity: dict[int, int] = {}
                for neighbour, weight in zip(targets, edge_weights):
                    target = part[neighbour]
                    connectivity[target] = connectivity.get(target, 0) + weight
                internal = connectivity.get(current, 0)
                best_part = current
                best_gain = 0
                refused = False
                for target, external in connectivity.items():
                    gain = external - internal
                    if gain <= best_gain:  # the current part's gain is 0
                        continue
                    if part_weight[target] + weights[node] > max_part_weight:
                        refused = True
                        continue
                    best_part = target
                    best_gain = gain
                if best_part != current:
                    part[node] = best_part
                    part_weight[current] -= weights[node]
                    part_weight[best_part] += weights[node]
                    moved += 1
                    dirty[node] = 1  # (b)
                    for neighbour in targets:
                        dirty[neighbour] = 1  # (a)
                elif refused:
                    dirty[node] = 1  # (c)
            node = dirty.find(1, node + 1)
        if moved == 0:
            break
    return evaluations


def rebalance_partition(
    rows: Sequence[Row],
    part: list[int],
    order: Sequence[int],
    parts: int,
    weights: Sequence[int],
    tolerance: float = 1.05,
) -> None:
    """Move nodes out of overweight parts until every part fits the tolerance.

    Nodes with the least connectivity to their current part are moved first,
    into the lightest part, so the edge cut suffers as little as possible;
    ``order`` (the order the assignment was built in) breaks ties among
    equally connected nodes.  Each finishing part lands at or below the
    limit, and a part a move lands in can exceed it by at most one node's
    weight.
    """
    part_weight = [0] * parts
    members: list[list[int]] = [[] for _ in range(parts)]
    for node in order:
        part_weight[part[node]] += weights[node]
        members[part[node]].append(node)
    total_weight = sum(part_weight)
    if parts == 0 or total_weight == 0:
        return
    limit = (total_weight / parts) * tolerance

    for source in range(parts):
        if part_weight[source] <= limit:
            continue

        # Sort members by how weakly they are connected to this part.
        def internal_connectivity(node: int) -> int:
            return sum(
                weight
                for neighbour, weight in zip(*rows[node])
                if part[neighbour] == source
            )

        for node in sorted(members[source], key=internal_connectivity):
            if part_weight[source] <= limit:
                break
            target = min(range(parts), key=part_weight.__getitem__)
            if target == source:
                break
            part[node] = target
            part_weight[source] -= weights[node]
            part_weight[target] += weights[node]


__all__ = ["rebalance_partition", "refine_partition"]
