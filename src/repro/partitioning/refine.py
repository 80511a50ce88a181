"""Boundary refinement of a k-way partition (Kernighan–Lin / FM style).

After an initial partition is computed (directly or projected from a coarser
level), greedy passes move boundary nodes to the neighbouring part that
maximises the edge-cut gain while respecting the balance constraint.  This is
the same refinement family METIS uses; a handful of passes is enough to reach
good cuts on social graphs.

Like METIS's refinement (Karypis & Kumar, SIAM J. Sci. Comput. 1998),
:func:`refine_partition` keeps each node's internal minus external degree
exact across moves: a node whose external degree is at most its internal
one cannot gain by moving, so its row is not read.  The state is
O(nodes + parts), never a nodes x parts table (100,000 x 250 entries for
flat METIS at the ``paper`` profile).

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

    The degrees make most re-evaluations free.  A node's *internal* weight
    is its edge weight into its own part, its *external* weight that into
    all other parts, and the node carries their difference, internal minus
    external: ``None`` until its first evaluation sums its row into a
    ``parts``-long scratch row ``conn``.  A move from ``p`` to ``q`` keeps
    it exact in O(degree): the mover's becomes ``2 * conn[q] - total``, and
    of its neighbours only those in ``p`` or ``q`` see an edge change sides.
    While external <= internal no part can offer a positive gain (no part's
    connectivity exceeds the external weight), so the node can neither move
    nor be refused, and its evaluation is counted without reading the row.
    Otherwise ``max(conn) > internal`` tells whether any part gains; only
    then is the first-appearance order of the neighbours' parts built, which
    decides ties between acceptable parts of equal gain.  The state is one
    node-long column and one scratch row, O(nodes + parts).  Only integer
    sums are kept, so the skip compares exact values (a float sum kept
    across moves can round differently from one read afresh).  Rows must be
    symmetric, as every graph the partitioner builds is: a move updates
    each neighbour by the mover's edge weight.
    """
    part_weight = [0] * parts
    for owner, weight in zip(part, weights):
        part_weight[owner] += weight
    dirty = bytearray(b"\x01") * len(rows)
    # Internal minus external weight; None until the node's first evaluation.
    margin: list[int | None] = [None] * len(rows)
    evaluations = 0
    for _ in range(passes):
        moved = 0
        node = dirty.find(1)
        while node >= 0:
            dirty[node] = 0
            targets, edge_weights = rows[node]
            if targets:
                evaluations += 1
                known = margin[node]
                if known is None or known < 0:
                    current = part[node]
                    # Connectivity of the node towards each part.
                    conn = [0] * parts
                    for neighbour, weight in zip(targets, edge_weights):
                        conn[part[neighbour]] += weight
                    inside = conn[current]
                    total = sum(edge_weights)
                    if type(total) is int:
                        margin[node] = 2 * inside - total
                    if max(conn) > inside:
                        best_part = current
                        best_gain = 0
                        refused = False
                        for target in dict.fromkeys(map(part.__getitem__, targets)):
                            gain = conn[target] - inside
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
                            if margin[node] is not None:
                                margin[node] = 2 * conn[best_part] - total
                            # A self-loop, if any, is fixed up below: the
                            # node itself is then a neighbour in best_part.
                            for neighbour, weight in zip(targets, edge_weights):
                                dirty[neighbour] = 1  # (a)
                                if margin[neighbour] is not None:
                                    side = part[neighbour]
                                    if side == current:
                                        margin[neighbour] -= 2 * weight
                                    elif side == best_part:
                                        margin[neighbour] += 2 * weight
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
