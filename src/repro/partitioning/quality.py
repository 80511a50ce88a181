"""Partition quality metrics: edge cut and balance.

The METIS baselines of the paper minimise the *edge cut* — the number of
social links whose endpoints land in different partitions — subject to a
balance constraint so that no server receives many more views than the
others.  These metrics are used by the partitioner's refinement phase, by the
tests and by the partitioning ablation benchmark.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..exceptions import PartitioningError

Adjacency = Mapping[int, Mapping[int, int]]


def edge_cut(adjacency: Adjacency, assignment: Mapping[int, int]) -> int:
    """Total weight of edges whose endpoints are in different parts."""
    cut = 0
    for node, neighbours in adjacency.items():
        part = assignment[node]
        for neighbour, weight in neighbours.items():
            if neighbour > node and assignment[neighbour] != part:
                cut += weight
    return cut


def part_weights(assignment: Mapping[int, int], parts: int) -> list[int]:
    """Number of nodes assigned to each part."""
    weights = [0] * parts
    for node, part in assignment.items():
        if part < 0 or part >= parts:
            raise PartitioningError(f"node {node} assigned to invalid part {part}")
        weights[part] += 1
    return weights


def balance_ratio(assignment: Mapping[int, int], parts: int) -> float:
    """Maximum part weight divided by the ideal (perfectly balanced) weight.

    1.0 means perfectly balanced; METIS-style partitioners typically accept a
    few percent of imbalance.
    """
    weights = part_weights(assignment, parts)
    total = sum(weights)
    if total == 0 or parts == 0:
        return 1.0
    ideal = total / parts
    return max(weights) / ideal if ideal > 0 else 1.0


def validate_partition(assignment: Mapping[int, int], nodes: set[int], parts: int) -> None:
    """Raise when the assignment does not cover exactly the requested nodes."""
    assigned = set(assignment)
    if assigned != nodes:
        missing = nodes - assigned
        extra = assigned - nodes
        raise PartitioningError(
            f"partition does not cover the graph (missing={len(missing)}, extra={len(extra)})"
        )
    for node, part in assignment.items():
        if not 0 <= part < parts:
            raise PartitioningError(f"node {node} assigned to invalid part {part}")


__all__ = ["Adjacency", "balance_ratio", "edge_cut", "part_weights", "validate_partition"]
