"""Memory-capped SPAR baseline (paper section 4.1, "SPAR").

SPAR (Pujol et al., SIGCOMM 2010) co-locates the views of a user's social
neighbourhood on her server so reads are served locally, at the cost of
updating many replicas on writes.  The original middleware assumes unbounded
replication; the paper adapts it to a memory budget: *"The views of the
friends of a user are copied to her server as long as storage is available.
When the server is full, these views are not replicated."*

The implementation below follows that adaptation:

* every graph user receives a *master* replica, round-robin in graph order
  — each on the least-loaded server at her turn — and a later arrival on the
  least-loaded server when she first appears (SPAR's load-balancing
  requirement);
* the social graph's edges are then streamed in random order, and for each
  follow edge ``u → v`` the view of ``v`` is replicated onto ``u``'s master
  server if that server still has free slots;
* the placement is then frozen: SPAR only reacts to changes of the social
  graph, not to request traffic, so the trace is executed against a fixed
  layout (new edges arriving during the run are processed the same way).

SPAR is :class:`~repro.baselines.base.StaticPlacementStrategy` with a
round-robin initializer plus co-location: it shares the static baselines'
statistics-free :class:`~repro.store.tables.ReplicaTable`, proxy rule,
footprint kernel, per-event paths, crash evacuation and introspection, and
adds only the co-located copies and a read footprint that resolves each
followee's closest replica
(:meth:`~repro.core.routing.RoutingService.closest_replica`).

Proxies live on the broker of the rack hosting the user's master replica;
reads are routed to the closest replica of each target view; writes update
every replica of the written view.
"""

from __future__ import annotations

import random

from ..socialgraph.graph import SocialGraph
from ..topology.base import ClusterTopology
from .base import Footprint, StaticPlacementStrategy


def _round_robin_masters(
    graph: SocialGraph, topology: ClusterTopology, seed: int
) -> dict[int, int]:
    """Masters round-robin in graph order: what placing each user in turn
    on the least-loaded server of an empty cluster gives (``seed`` unused)."""
    servers = len(topology.servers)
    return {user: index % servers for index, user in enumerate(graph.users)}


class SparPlacement(StaticPlacementStrategy):
    """SPAR with the paper's bounded-memory adaptation.

    SPAR moves replicas on *edge* events (co-location) and faults, never on
    reads or writes, so requests go through the shared footprint kernel;
    every new replica and every evacuation drops all memoised footprints (a
    view's closest replica may have changed for any broker).
    """

    def __init__(self, seed: int = 7) -> None:
        super().__init__(_round_robin_masters, seed)
        self.name = "spar"

    # ------------------------------------------------------------- placement
    def build_initial_placement(self) -> None:
        super().build_initial_placement()
        # Stream the edges of the social graph in random order and replicate
        # followees onto followers' servers while space remains.
        edges = list(self.graph.edges())
        random.Random(self.seed).shuffle(edges)
        for follower, followee in edges:
            self._co_locate(follower, followee)

    def _co_locate(self, follower: int, followee: int) -> bool:
        """Replicate ``followee``'s view on ``follower``'s master server.

        Returns True when a new replica was created.  Nothing happens when
        the views are already co-located or the server has no free slot.
        """
        target = self.server_position_of(follower)
        self.server_position_of(followee)
        table = self.tables
        if target in self._down_positions:
            return False
        if table.slot_of(followee, target) is not None:
            return False
        if table.used[target] >= table.capacities[target]:
            return False
        table.allocate(followee, target)
        self._drop_footprints()
        return True

    # ------------------------------------------------------------- execution
    def _read_footprint(self, user: int, position: int) -> Footprint:
        """One roundtrip per followee to the replica of her view closest to
        the reader's broker."""
        broker = self._broker_of_position[position]
        device_of = self._device_of_position
        user_positions = self.tables.user_positions
        closest_replica = self.routing.closest_replica
        devices = []
        for target in self.graph.following(user):
            self.server_position_of(target)
            devices.append(closest_replica(broker, [device_of[p] for p in user_positions(target)]))
        return self._footprint_of(broker, devices)

    # --------------------------------------------------------- graph changes
    def on_edge_added(self, follower: int, followee: int, now: float) -> None:
        """SPAR reacts to the social graph: try to co-locate the new pair
        (a new replica drops every footprint, the edge's two otherwise)."""
        if not self._co_locate(follower, followee):
            super().on_edge_added(follower, followee, now)


__all__ = ["SparPlacement"]
