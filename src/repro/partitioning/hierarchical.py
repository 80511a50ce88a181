"""Hierarchical partitioning matching the data-center tree (hMETIS baseline).

The paper's hierarchical METIS baseline first partitions the social graph
into one part per *intermediate switch*, then recursively re-partitions each
part across the racks of that switch and finally across the servers of each
rack (section 4.1).  Compared with flat k-way partitioning this keeps the
views of friends that could not be co-located on the same server at least in
the same sub-tree, so their traffic avoids the top switch.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass

from ..config import ClusterSpec
from ..exceptions import PartitioningError
from .coarsen import Row
from .kway import index_rows, partition_indexed, subgraph_cutter
from .quality import balance_ratio, edge_cut


@dataclass(frozen=True)
class HierarchicalPartitionResult:
    """Result of a hierarchical partitioning run.

    ``server_assignment`` maps each node to a flat server index in
    ``range(total_servers)`` where servers are numbered rack by rack,
    intermediate switch by intermediate switch — the same order in which
    :class:`repro.topology.TreeTopology` creates them.
    """

    server_assignment: dict[int, int]
    intermediate_assignment: dict[int, int]
    rack_assignment: dict[int, int]
    total_servers: int
    edge_cut: int
    balance: float


def hierarchical_assignment(
    ids: list[int],
    rows: list[Row],
    spec: ClusterSpec,
    seed: int = 7,
) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """The ``(server, intermediate, rack)`` assignments of an indexed graph
    (:func:`~repro.partitioning.kway.index_rows`) over the tree of ``spec``:
    level 1 splits the graph across intermediate switches, level 2 each part
    across the racks of its switch, level 3 each rack part across the rack's
    servers.  Sub-graphs are cut from the top rows over the part's id set."""
    cut = subgraph_cutter(ids, rows)

    def split(graph: tuple[list[int], list[Row]], parts: int, part_seed: int) -> dict[int, int]:
        return partition_indexed(*graph, parts, part_seed)[0]

    rng = random.Random(seed)
    intermediate_assignment = split((ids, rows), spec.intermediate_switches, seed)
    rack_assignment: dict[int, int] = {}
    server_assignment: dict[int, int] = {}

    for inter_index in range(spec.intermediate_switches):
        inter_nodes = {n for n, p in intermediate_assignment.items() if p == inter_index}
        if not inter_nodes:
            continue
        racks = split(cut(inter_nodes), spec.racks_per_intermediate, rng.randrange(1 << 30))
        for rack_index in range(spec.racks_per_intermediate):
            global_rack = inter_index * spec.racks_per_intermediate + rack_index
            rack_nodes = {n for n, p in racks.items() if p == rack_index}
            for node in rack_nodes:
                rack_assignment[node] = global_rack
            if not rack_nodes:
                continue
            servers = split(cut(rack_nodes), spec.servers_per_rack, rng.randrange(1 << 30))
            for node, server_index in servers.items():
                server_assignment[node] = global_rack * spec.servers_per_rack + server_index
    return server_assignment, intermediate_assignment, rack_assignment


def hierarchical_partition(
    adjacency: Mapping[int, Mapping[int, int]],
    spec: ClusterSpec,
    seed: int = 7,
) -> HierarchicalPartitionResult:
    """:func:`hierarchical_assignment` of a ``node -> {neighbour -> weight}``
    graph, with only the final assignment measured (edge cut, balance) and
    checked for coverage."""
    server, intermediate, rack = hierarchical_assignment(*index_rows(adjacency), spec, seed)
    if set(server) != set(adjacency):
        raise PartitioningError("hierarchical partition failed to cover every node")
    total = spec.total_servers
    return HierarchicalPartitionResult(
        server, intermediate, rack, total, edge_cut(adjacency, server), balance_ratio(server, total)
    )


__all__ = [
    "HierarchicalPartitionResult",
    "hierarchical_assignment",
    "hierarchical_partition",
]
