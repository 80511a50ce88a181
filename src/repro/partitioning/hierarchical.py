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
from .kway import index_rows, partition_indexed
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


def hierarchical_partition(
    adjacency: Mapping[int, Mapping[int, int]],
    spec: ClusterSpec,
    seed: int = 7,
    balance_tolerance: float = 1.05,
) -> HierarchicalPartitionResult:
    """Recursively partition a graph over the cluster tree described by ``spec``.

    Level 1 splits the graph across intermediate switches, level 2 splits
    each of those parts across the racks of the switch, level 3 splits each
    rack part across the rack's servers.  Every sub-graph is indexed straight
    from the node set of its part; only the final assignment is measured
    (edge cut, balance) and checked for coverage.
    """
    nodes = set(adjacency)
    if not nodes:
        return HierarchicalPartitionResult(
            server_assignment={},
            intermediate_assignment={},
            rack_assignment={},
            total_servers=spec.total_servers,
            edge_cut=0,
            balance=1.0,
        )

    def split(part_nodes: set[int] | None, parts: int, part_seed: int) -> dict[int, int]:
        ids, rows = index_rows(adjacency, part_nodes)
        return partition_indexed(ids, rows, parts, part_seed, balance_tolerance)[0]

    rng = random.Random(seed)
    intermediate_assignment = split(None, spec.intermediate_switches, seed)
    rack_assignment: dict[int, int] = {}
    server_assignment: dict[int, int] = {}

    for inter_index in range(spec.intermediate_switches):
        inter_nodes = {n for n, p in intermediate_assignment.items() if p == inter_index}
        if not inter_nodes:
            continue
        racks = split(inter_nodes, spec.racks_per_intermediate, rng.randrange(1 << 30))
        for rack_index in range(spec.racks_per_intermediate):
            global_rack = inter_index * spec.racks_per_intermediate + rack_index
            rack_nodes = {n for n, p in racks.items() if p == rack_index}
            for node in rack_nodes:
                rack_assignment[node] = global_rack
            if not rack_nodes:
                continue
            servers = split(rack_nodes, spec.servers_per_rack, rng.randrange(1 << 30))
            for node, server_index in servers.items():
                server_assignment[node] = global_rack * spec.servers_per_rack + server_index

    if set(server_assignment) != nodes:
        raise PartitioningError("hierarchical partition failed to cover every node")

    return HierarchicalPartitionResult(
        server_assignment=server_assignment,
        intermediate_assignment=intermediate_assignment,
        rack_assignment=rack_assignment,
        total_servers=spec.total_servers,
        edge_cut=edge_cut(adjacency, server_assignment),
        balance=balance_ratio(server_assignment, spec.total_servers),
    )


__all__ = [
    "HierarchicalPartitionResult",
    "hierarchical_partition",
]
