"""Hierarchical METIS baseline (paper section 4.1, "Hierarchical METIS").

The graph is first partitioned across intermediate switches, then each part
is re-partitioned across the racks of its switch, and finally across the
servers of each rack.  Friends that cannot share a server still tend to share
a rack or at least an intermediate switch, so their traffic avoids the top
switch — the paper reports a two-fold improvement over flat METIS.

On a flat topology (no hierarchy) this baseline degenerates to flat METIS,
which is also what the paper does implicitly by omitting hMETIS from the
flat-topology figure.
"""

from __future__ import annotations

from ..partitioning.hierarchical import hierarchical_assignment
from ..partitioning.kway import index_rows
from ..socialgraph.graph import SocialGraph
from ..topology.base import ClusterTopology
from ..topology.tree import TreeTopology
from .base import StaticPlacementStrategy
from .metis_placement import metis_assignment


def hmetis_assignment(graph: SocialGraph, topology: ClusterTopology, seed: int = 7) -> dict[int, int]:
    """Hierarchy-aware partitioning assignment (one part per server)."""
    if not isinstance(topology, TreeTopology):
        return metis_assignment(graph, topology, seed=seed)
    # Indexed once, with no name on the adjacency dict: it is freed before
    # the first coarse level is built.
    ids, rows = index_rows(graph.undirected_adjacency())
    return hierarchical_assignment(ids, rows, topology.spec, seed)[0]


class HierarchicalMetisPlacement(StaticPlacementStrategy):
    """Static placement from recursive, topology-aware graph partitioning."""

    name = "hmetis"

    def compute_assignment(self) -> dict[int, int]:
        return hmetis_assignment(self.graph, self.topology, seed=self.seed)


__all__ = ["HierarchicalMetisPlacement", "hmetis_assignment"]
