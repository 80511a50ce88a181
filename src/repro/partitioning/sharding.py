"""User → shard assignment for the sharded replay engine.

The sharded runner (``repro.simulator.shard``) splits one simulation's
*request stream* across worker processes.  The assignment lives here because
it is exactly the k-way graph-partitioning problem the placement baselines
already solve: pack tightly-connected users onto the same shard so a worker's
requests touch a locality-coherent slice of the cluster, and keep shard
populations balanced.  Every worker generates the whole stream and replays
the whole decision plane, so how the owned events are split barely moves the
critical path; the sharded runner produces identical results for *any*
user → shard mapping.

The product is a :class:`ShardAssignment` carrying a dense ``bytes`` map
indexed by user id — shard workers classify a whole :class:`EventChunk`'s
``users`` column at C speed with ``bytes(map(shard_map.__getitem__, users))``
and a ``bytes.translate`` selector, so the lookup structure matters as much
as the cut quality.  Users that ever appear in a stream without being part of
the initial graph (an open universe — the partitioned runner rejects those
streams anyway) still get a deterministic owner, ``user % shards``, so every
worker classifies identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import PartitioningError
from ..socialgraph.graph import SocialGraph
from .kway import partition_kway

__all__ = ["ShardAssignment", "assign_user_shards"]

#: k-way refinement is O(passes * edges); two passes recover most of the
#: locality win at half the prepare cost (the assignment is computed once
#: per run, but paper-scale graphs have millions of edges).
_REFINEMENT_PASSES = 2


@dataclass(frozen=True)
class ShardAssignment:
    """Deterministic user → shard mapping for one sharded run.

    ``shard_map`` is a dense ``bytes`` whose index is the user id; ids at or
    beyond ``len(shard_map)`` (and ids the graph never contained) own shard
    ``user % shards``.  Shard ids therefore fit one byte: ``shards <= 256``.
    """

    shards: int
    shard_map: bytes
    #: users of the initial graph per shard (balance diagnostic)
    populations: tuple[int, ...]
    #: edges of the undirected adjacency crossing shards (locality diagnostic)
    edge_cut: int

    def owner_of(self, user: int) -> int:
        """The shard that owns ``user``'s requests."""
        if 0 <= user < len(self.shard_map):
            return self.shard_map[user]
        return user % self.shards


def assign_user_shards(
    graph: SocialGraph,
    shards: int,
    seed: int = 7,
) -> ShardAssignment:
    """Partition the graph's users into ``shards`` balanced locality groups.

    Uses the multilevel k-way partitioner over the social graph's symmetric
    adjacency (mutual follows weigh double), the same objective the METIS
    baseline optimises for server placement — tightly-coupled users land on
    one shard, so one worker's requests hit a coherent server subset.  The
    result is deterministic for a given ``(graph, shards, seed)``.
    """
    if not 1 <= shards <= 256:
        raise PartitioningError("shards must be between 1 and 256")
    users = graph.users
    if not users:
        raise PartitioningError("cannot shard an empty social graph")
    size = max(users) + 1
    if shards == 1:
        return ShardAssignment(
            shards=1,
            shard_map=bytes(size),
            populations=(len(users),),
            edge_cut=0,
        )
    result = partition_kway(
        graph.undirected_adjacency(),
        shards,
        seed=seed,
        refinement_passes=_REFINEMENT_PASSES,
    )
    # Dense map: graph users take their computed part, holes (ids the graph
    # skipped) fall back to the same modulo rule ``owner_of`` applies past
    # the end of the map, so ownership is one uniform function of user id.
    assignment = result.assignment
    shard_map = bytes(
        assignment.get(user, user % shards) for user in range(size)
    )
    populations = [0] * shards
    for user in users:
        populations[shard_map[user]] += 1
    return ShardAssignment(
        shards=shards,
        shard_map=shard_map,
        populations=tuple(populations),
        edge_cut=result.edge_cut,
    )
