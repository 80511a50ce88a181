"""The three initial placements of paper section 4.1, and their registry.

Random, METIS and hierarchical METIS serve twice in the paper: as static
baselines (:class:`~repro.baselines.base.StaticPlacementStrategy`) and as
DynaSoRe's initial placement (:class:`~repro.core.engine.DynaSoRe`).  Both
take the same ``initializer`` — a name of :data:`INITIAL_PLACEMENTS` or a
callable of the same signature — resolve it once, at construction
(:class:`~repro.baselines.base.PlacementStrategy`), and deploy its
assignment through one step that fits it to the memory budget
(:func:`fit_assignment_to_capacity`).

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

from ..exceptions import SimulationError
from ..partitioning.hierarchical import hierarchical_assignment
from ..partitioning.kway import index_rows, partition_indexed, random_partition
from ..partitioning.quality import validate_partition
from ..socialgraph.graph import SocialGraph
from ..topology.base import ClusterTopology
from ..topology.tree import TreeTopology

#: Signature of an initial-placement function: (graph, topology, seed) -> {user: server position}.
#: It must return a fresh dict: the deploying strategy takes it over as its
#: master map and changes it later (new users, evacuated servers).
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


def fit_assignment_to_capacity(
    assignment: dict[int, int], capacities: list[int]
) -> dict[int, int]:
    """Move the views an assignment puts past a server's capacity.

    The paper's budget (section 2.3) gives the cluster ``(1 + x/100)·|V|``
    view slots, so at 0 % extra memory no server holds more than its share,
    while a partitioner tolerates some imbalance (hMETIS up to 1.16x on one
    server at ``ci``).  In assignment order, a view that finds its server
    full moves to the least-loaded server with a free slot, ignoring the
    graph.  A fitting assignment is returned as it is, not copied.

    The blind move costs: at ``ci``, 0 %, seed 7, whole run, it raises
    static hMETIS's top-switch traffic by 19 %, 17 % and 11 % on the
    Facebook-, LiveJournal- and Twitter-like graphs.  A tree-aware fit
    (the least-loaded free slot in the same rack, then under the same
    intermediate switch, then anywhere) lowers that traffic by 1.7 %,
    2.2 % and 1.0 % for static hMETIS, 1.6 %, 1.8 % and 1.1 % for
    DynaSoRe-hMETIS, and 0 for METIS; it is not taken, as it would win
    back a tenth to a seventh of the cost and change DynaSoRe's results.
    """
    servers = len(capacities)
    loads = [0] * servers
    overflow: list[int] = []
    for user, position in assignment.items():
        if not 0 <= position < servers:
            raise SimulationError(
                f"assignment uses position {position} outside 0..{servers - 1}"
            )
        if loads[position] < capacities[position]:
            loads[position] += 1
        else:
            overflow.append(user)
    if not overflow:
        return assignment
    fitted = dict(assignment)
    for user in overflow:
        position = min(
            range(servers),
            key=lambda p: (loads[p] - capacities[p], loads[p], p),
        )
        if loads[position] >= capacities[position]:
            raise SimulationError("cluster capacity is too small to store every view")
        fitted[user] = position
        loads[position] += 1
    return fitted


__all__ = [
    "INITIAL_PLACEMENTS",
    "InitialAssignment",
    "fit_assignment_to_capacity",
    "hmetis_assignment",
    "metis_assignment",
    "random_assignment",
]
