"""Multilevel k-way graph partitioner (METIS replacement).

The paper's METIS baseline statically assigns user views to servers by
partitioning the social graph into one part per server.  METIS itself is not
available offline, so this module implements the same multilevel scheme from
scratch:

1. *Coarsening* — contract heavy-edge matchings until the graph is small.
2. *Initial partitioning* — greedy region growing on the coarsest graph,
   seeded from high-degree nodes, balanced by node weight.
3. *Uncoarsening* — project the partition back level by level, running
   boundary Kernighan–Lin/FM refinement at each level (a worklist that
   keeps every node's internal minus external degree, so a node that
   cannot gain is passed over without its row being read; see
   :func:`~repro.partitioning.refine.refine_partition`), then one
   rebalancing pass on the finest graph.

The result is a balanced partition with a low edge cut — exactly what the
baseline needs (absolute METIS parity is not required; the baseline's role in
the paper is "a good static, locality-aware placement").

All three phases run in *index space*: one relabelling pass
(:func:`index_rows`) turns ``node -> {neighbour -> weight}`` into a list of
rows keyed by position, and from there assignments, node weights and
matchings are plain lists.  Node weights count the original vertices a
(coarse) node stands for, so they are always integers.  Node ids reappear
only in the returned dict.  Every level stores a row as a ``(targets,
weights)`` pair — a tuple of targets and the weights packed into ``bytes``
when they all fit a byte (:func:`~repro.partitioning.coarsen.pack_weights`),
9 bytes per entry against 16 with a tuple of weights and about 41 for a
dict — because the finest rows and the coarse levels above them are what
sets the partitioner's peak memory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Mapping, Sequence

from ..exceptions import PartitioningError
from .coarsen import Row, coarsen_to_size, pack_weights
from .quality import balance_ratio, edge_cut, validate_partition
from .refine import rebalance_partition, refine_partition

#: Largest allowed ratio between the heaviest part and the ideal weight.
_BALANCE_TOLERANCE = 1.05
#: Boundary-refinement sweeps applied at every uncoarsening level.
_REFINEMENT_PASSES = 4


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of a k-way partitioning run.

    ``balance`` is the heaviest part's population over the ideal per-part
    population.
    """

    assignment: dict[int, int]
    parts: int
    edge_cut: int
    balance: float

    def nodes_by_part(self) -> tuple[tuple[int, ...], ...]:
        """Every part's nodes, built in one pass over the assignment.

        The grouping is computed once and cached on the instance, so
        reporting all ``k`` parts costs O(V) instead of the O(V·k) that
        scanning the assignment dict per part would.
        """
        cached = getattr(self, "_nodes_by_part", None)
        if cached is None:
            groups: list[list[int]] = [[] for _ in range(self.parts)]
            for node, part in self.assignment.items():
                groups[part].append(node)
            cached = tuple(tuple(group) for group in groups)
            object.__setattr__(self, "_nodes_by_part", cached)
        return cached

    def nodes_in_part(self, part: int) -> list[int]:
        """Nodes assigned to one part."""
        if not 0 <= part < self.parts:
            raise PartitioningError(f"part {part} out of range (parts={self.parts})")
        return list(self.nodes_by_part()[part])


def _greedy_initial_partition(
    adjacency: Mapping[int, Mapping[int, int]],
    node_weights: Mapping[int, int],
    parts: int,
    rng: random.Random,
) -> dict[int, int]:
    """Greedy region growing on the coarsest graph.

    Seeds are the heaviest-degree nodes; each part grows by repeatedly
    absorbing the unassigned neighbour with the strongest connection to it,
    switching to the lightest part whenever the current one reaches the
    balanced weight.
    """
    total_weight = sum(node_weights.values())
    target = total_weight / parts if parts else total_weight
    assignment: dict[int, int] = {}
    part_weight = [0] * parts

    nodes_by_degree = sorted(
        adjacency, key=lambda n: sum(adjacency[n].values()), reverse=True
    )
    unassigned = set(adjacency)

    for part in range(parts):
        if not unassigned:
            break
        # Seed with the highest-degree unassigned node.
        seed = next(node for node in nodes_by_degree if node in unassigned)
        frontier: dict[int, int] = {seed: 0}
        while frontier and part_weight[part] < target:
            node = max(frontier, key=lambda n: frontier[n])
            frontier.pop(node)
            if node not in unassigned:
                continue
            assignment[node] = part
            unassigned.discard(node)
            part_weight[part] += node_weights[node]
            for neighbour, weight in adjacency[node].items():
                if neighbour in unassigned:
                    frontier[neighbour] = frontier.get(neighbour, 0) + weight

    # Whatever is left goes to the lightest part.
    leftovers = list(unassigned)
    rng.shuffle(leftovers)
    for node in leftovers:
        part = min(range(parts), key=lambda p: part_weight[p])
        assignment[node] = part
        part_weight[part] += node_weights[node]
    return assignment


def _dangling(node: int, neighbour: int) -> PartitioningError:
    return PartitioningError(
        f"node {node} lists neighbour {neighbour}, which is not a node of the graph"
    )


def index_rows(adjacency: Mapping[int, Mapping[int, int]]) -> tuple[list[int], list[Row]]:
    """The relabelling pass: ``(ids, rows)`` with ``rows[i]`` the
    ``(targets, weights)`` row of ``ids[i]``, targets by *position* instead
    of node id.

    Positions follow adjacency order and every row keeps its neighbour order,
    so nothing downstream can tell the relabelling happened.  The whole graph
    is checked as it is indexed — a neighbour that is not itself a node, or
    an edge weight that is not positive and finite, fails here rather than
    deep inside a kernel.  A graph whose ids already are ``0..n-1`` in
    order (every generated graph) is its own relabelling: targets are the
    neighbour ids themselves, range-checked, and no id -> position dict is
    built.
    """
    ids = list(adjacency)
    size = len(ids)
    index_of = None if ids == list(range(size)) else {n: i for i, n in enumerate(ids)}
    rows: list[Row] = []
    for node, neighbours in adjacency.items():
        if index_of is None:
            targets = tuple(neighbours)
            if targets and (min(targets) < 0 or max(targets) >= size):
                raise _dangling(node, next(n for n in targets if not 0 <= n < size))
        else:
            try:
                targets = tuple(map(index_of.__getitem__, neighbours))
            except KeyError as error:
                raise _dangling(node, error.args[0]) from None
        weights = pack_weights(neighbours.values())
        if weights and min(weights) <= 0:
            raise PartitioningError(f"node {node} has an edge of non-positive weight")
        # A packed row holds ints 1..255; only the tuple fallback can hold
        # a NaN (which ``min`` passes over) or an infinity.
        if type(weights) is tuple and not all(-math.inf < w < math.inf for w in weights):
            raise PartitioningError(f"node {node} has an edge of non-finite weight")
        rows.append((targets, weights))
    return ids, rows


def subgraph_cutter(
    ids: list[int], rows: list[Row]
) -> Callable[[Iterable[int]], tuple[list[int], list[Row]]]:
    """``cut(nodes)``: the ``(ids, rows)`` of the sub-graph ``nodes`` induce,
    in their iteration order, rows in the parent's neighbour order.  Every cut
    reuses one position -> local index list (``-1``: not in the set)."""
    index_of = None if ids == list(range(len(ids))) else {n: i for i, n in enumerate(ids)}
    local = [-1] * len(rows)

    def cut(nodes: Iterable[int]) -> tuple[list[int], list[Row]]:
        sub_ids = list(nodes)
        positions = sub_ids if index_of is None else [index_of[n] for n in sub_ids]
        for index, position in enumerate(positions):
            local[position] = index
        sub_rows: list[Row] = []
        for position in positions:
            kept = [(i, w) for n, w in zip(*rows[position]) if (i := local[n]) >= 0]
            targets, weights = zip(*kept) if kept else ((), ())
            sub_rows.append((targets, pack_weights(weights)))
        for position in positions:
            local[position] = -1
        return sub_ids, sub_rows

    return cut


def partition_indexed(
    ids: list[int],
    rows: list[Row],
    parts: int,
    seed: int,
) -> tuple[dict[int, int], int]:
    """Multilevel k-way partition of an indexed graph (see :func:`index_rows`).

    Returns the ``node id -> part`` assignment — in the order initial
    placement will iterate it — and the number of gain evaluations the
    refinement kernels performed.
    """
    if parts == 1:
        # A set built from a dict, not from the list: iteration order of a
        # set depends on how its table was sized.
        return {node: 0 for node in set(dict.fromkeys(ids))}, 0
    if parts >= len(ids):
        # Degenerate case: at most one node per part.
        return {node: i % parts for i, node in enumerate(sorted(ids))}, 0

    rng = random.Random(seed)
    # 1. Coarsening (weight-conserving: contracted nodes sum their weights).
    coarsen_target = max(parts * 8, 64)
    weights = [1] * len(ids)
    max_node_weight = max(1, len(ids) // (coarsen_target // 2))
    levels = coarsen_to_size(rows, weights, coarsen_target, rng, max_node_weight)

    graphs = [(rows, weights), *((level.rows, level.weights) for level in levels)]

    # 2. Initial partitioning on the coarsest graph, under the labels the
    # graph carries there: coarse ids, or node ids when nothing coarsened.
    top_rows, top_weights = graphs[-1]
    labels: Sequence[int] = range(len(top_rows)) if levels else ids
    seeded = _greedy_initial_partition(
        {labels[i]: {labels[n]: w for n, w in zip(*row)} for i, row in enumerate(top_rows)},
        dict(zip(labels, top_weights)),
        parts,
        rng,
    )
    index_of = {label: index for index, label in enumerate(labels)}
    order = [index_of[label] for label in seeded]
    part = [0] * len(top_rows)
    for index, target in zip(order, seeded.values()):
        part[index] = target

    # 3. Refinement there, then uncoarsening with refinement at every level.
    evaluations = 0
    for depth in range(len(levels), -1, -1):
        if depth < len(levels):
            part = [part[coarse] for coarse in levels[depth].fine_to_coarse]
            order = levels[depth].fine_order
        level_rows, level_weights = graphs[depth]
        limit = (sum(level_weights) / parts) * _BALANCE_TOLERANCE
        evaluations += refine_partition(
            level_rows, part, parts, level_weights, limit, _REFINEMENT_PASSES
        )

    rebalance_partition(rows, part, order, parts, weights, _BALANCE_TOLERANCE)
    return {ids[index]: part[index] for index in order}, evaluations


def partition_kway(
    adjacency: Mapping[int, Mapping[int, int]],
    parts: int,
    seed: int = 7,
) -> PartitionResult:
    """Partition a weighted undirected graph into ``parts`` balanced parts.

    Parameters
    ----------
    adjacency:
        Symmetric adjacency mapping ``node -> {neighbour -> weight}``.  Every
        node must appear as a key (isolated nodes map to an empty dict) and
        every edge weight must be positive and finite;
        :class:`PartitioningError` otherwise.
    parts:
        Number of parts (servers, racks, or intermediate-switch sub-trees).
    seed:
        Random seed controlling matching order and tie breaking.
    """
    if parts < 1:
        raise PartitioningError("parts must be at least 1")
    ids, rows = index_rows(adjacency)
    assignment, _ = partition_indexed(ids, rows, parts, seed)
    validate_partition(assignment, set(ids), parts)
    return PartitionResult(
        assignment=assignment,
        parts=parts,
        edge_cut=edge_cut(adjacency, assignment),
        balance=balance_ratio(assignment, parts),
    )


def random_partition(
    nodes: list[int] | tuple[int, ...],
    parts: int,
    seed: int = 7,
) -> PartitionResult:
    """Uniform random balanced assignment (the Random baseline's partitioner)."""
    if parts < 1:
        raise PartitioningError("parts must be at least 1")
    rng = random.Random(seed)
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    assignment = {node: i % parts for i, node in enumerate(shuffled)}
    return PartitionResult(
        assignment=assignment,
        parts=parts,
        edge_cut=0,
        balance=balance_ratio(assignment, parts) if assignment else 1.0,
    )


__all__ = ["PartitionResult", "partition_kway", "random_partition"]
