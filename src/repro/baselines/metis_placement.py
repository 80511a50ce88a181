"""METIS baseline (paper section 4.1, "METIS").

The social graph is statically partitioned into one part per storage server
using the multilevel k-way partitioner, and each part is assigned to a
server.  The placement leverages the clustering of social graphs — friends
tend to land on the same server — but ignores the switch hierarchy and never
replicates.
"""

from __future__ import annotations

from ..partitioning.kway import index_rows, partition_indexed
from ..partitioning.quality import validate_partition
from ..socialgraph.graph import SocialGraph
from ..topology.base import ClusterTopology
from .base import StaticPlacementStrategy


def metis_assignment(graph: SocialGraph, topology: ClusterTopology, seed: int = 7) -> dict[int, int]:
    """Flat k-way graph-partitioning assignment (one part per server).

    The parts are mapped to servers in part order, which mirrors the paper's
    "randomly assign each partition to a server": part identity carries no
    topology information either way.  Indexed as in ``hmetis_assignment``.
    """
    ids, rows = index_rows(graph.undirected_adjacency())
    parts = len(topology.servers)
    assignment, _ = partition_indexed(ids, rows, parts, seed)
    validate_partition(assignment, set(ids), parts)
    return assignment


class MetisPlacement(StaticPlacementStrategy):
    """Static graph-partitioning placement that ignores the network tree."""

    name = "metis"

    def compute_assignment(self) -> dict[int, int]:
        return metis_assignment(self.graph, self.topology, seed=self.seed)


__all__ = ["MetisPlacement", "metis_assignment"]
