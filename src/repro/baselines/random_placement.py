"""Random placement baseline (paper section 4.1, "Random").

In-memory stores such as memcached and Redis hash keys to servers, which is
equivalent to a uniform random static assignment.  The baseline ignores the
data-center topology and the social graph and never replicates.  The paper
normalises every reported traffic number by this baseline's traffic.
"""

from __future__ import annotations

from ..partitioning.kway import random_partition
from ..socialgraph.graph import SocialGraph
from ..topology.base import ClusterTopology
from .base import StaticPlacementStrategy


def random_assignment(graph: SocialGraph, topology: ClusterTopology, seed: int = 7) -> dict[int, int]:
    """Uniform random, balanced user → server-position assignment."""
    result = random_partition(list(graph.users), len(topology.servers), seed=seed)
    return result.assignment


class RandomPlacement(StaticPlacementStrategy):
    """Hash-style random assignment of views to servers."""

    name = "random"

    def compute_assignment(self) -> dict[int, int]:
        return random_assignment(self.graph, self.topology, seed=self.seed)


__all__ = ["RandomPlacement", "random_assignment"]
