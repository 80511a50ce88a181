"""The three initial placements of paper section 4.1, and their registry.

Random, METIS and hierarchical METIS serve twice in the paper: as static
baselines (:class:`~repro.baselines.base.StaticPlacementStrategy`) and as
DynaSoRe's initial placement (:class:`~repro.core.engine.DynaSoRe`).  Both
take the same ``initializer`` — a name of :data:`INITIAL_PLACEMENTS` or a
callable of the same signature — and resolve it once, at construction,
through :func:`resolve_initializer`.

* **Random** — in-memory stores such as memcached and Redis hash keys to
  servers, which is equivalent to a uniform random static assignment.  It
  ignores the data-center topology and the social graph; the paper
  normalises every reported traffic number by this baseline's traffic.
* **METIS** — the social graph is partitioned into one part per storage
  server with the multilevel k-way partitioner, so friends tend to land on
  the same server, but the switch hierarchy is ignored.
* **Hierarchical METIS** — the graph is partitioned across intermediate
  switches, each part across the racks of its switch, then across the
  servers of each rack: friends that cannot share a server still tend to
  share a rack, so their traffic avoids the top switch.  On a flat topology
  (no hierarchy) it degenerates to flat METIS, which is also what the paper
  does implicitly by omitting hMETIS from the flat-topology figure.
"""

from __future__ import annotations

from collections.abc import Callable

from ..exceptions import ConfigurationError
from ..partitioning.hierarchical import hierarchical_assignment
from ..partitioning.kway import index_rows, partition_indexed, random_partition
from ..partitioning.quality import validate_partition
from ..socialgraph.graph import SocialGraph
from ..topology.base import ClusterTopology
from ..topology.tree import TreeTopology

#: Signature of an initial-placement function: (graph, topology, seed) -> {user: server position}.
InitialAssignment = Callable[[SocialGraph, ClusterTopology, int], dict[int, int]]


def random_assignment(graph: SocialGraph, topology: ClusterTopology, seed: int = 7) -> dict[int, int]:
    """Uniform random, balanced user → server-position assignment."""
    result = random_partition(list(graph.users), len(topology.servers), seed=seed)
    return result.assignment


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


def hmetis_assignment(graph: SocialGraph, topology: ClusterTopology, seed: int = 7) -> dict[int, int]:
    """Hierarchy-aware partitioning assignment (one part per server)."""
    if not isinstance(topology, TreeTopology):
        return metis_assignment(graph, topology, seed=seed)
    # Indexed once, with no name on the adjacency dict: it is freed before
    # the first coarse level is built.
    ids, rows = index_rows(graph.undirected_adjacency())
    return hierarchical_assignment(ids, rows, topology.spec, seed)[0]


#: The named initial placements: the static baselines' names, and the
#: ``initializer`` names :class:`~repro.core.engine.DynaSoRe` accepts.
INITIAL_PLACEMENTS: dict[str, InitialAssignment] = {
    "random": random_assignment,
    "metis": metis_assignment,
    "hmetis": hmetis_assignment,
}


def resolve_initializer(initializer: str | InitialAssignment) -> tuple[InitialAssignment, str]:
    """The partitioner an ``initializer`` names, and its name.

    A name is looked up in :data:`INITIAL_PLACEMENTS` now, so a later change
    of the registry does not reach an already constructed strategy; a
    callable is used as is and named by its ``__name__``.
    """
    if not isinstance(initializer, str):
        return initializer, getattr(initializer, "__name__", "custom")
    if initializer not in INITIAL_PLACEMENTS:
        raise ConfigurationError(
            f"unknown initial placement {initializer!r}; "
            f"expected one of {sorted(INITIAL_PLACEMENTS)} or a callable"
        )
    return INITIAL_PLACEMENTS[initializer], initializer


__all__ = [
    "INITIAL_PLACEMENTS",
    "InitialAssignment",
    "hmetis_assignment",
    "metis_assignment",
    "random_assignment",
    "resolve_initializer",
]
