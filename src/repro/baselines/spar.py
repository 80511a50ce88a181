"""Memory-capped SPAR baseline (paper section 4.1, "SPAR").

SPAR (Pujol et al., SIGCOMM 2010) co-locates the views of a user's social
neighbourhood on her server so reads are served locally, at the cost of
updating many replicas on writes.  The original middleware assumes unbounded
replication; the paper adapts it to a memory budget: *"The views of the
friends of a user are copied to her server as long as storage is available.
When the server is full, these views are not replicated."*

The implementation below follows that adaptation:

* every user receives a *master* replica on the least-loaded server when she
  first appears in the edge stream (SPAR's load-balancing requirement);
* the social graph's edges are then streamed in random order, and for each
  follow edge ``u → v`` the view of ``v`` is replicated onto ``u``'s master
  server if that server still has free slots;
* the placement is then frozen: SPAR only reacts to changes of the social
  graph, not to request traffic, so the trace is executed against a fixed
  layout (new edges arriving during the run are processed the same way).

Replica placement lives in a statistics-free
:class:`~repro.store.tables.ReplicaTable`: the per-user chains replace the
old ``dict``-of-``set`` location maps, and the per-position ``used``
counters replace the hand-maintained load list, so closest-replica lookups
and evacuation run over the same flat columns as the DynaSoRe engine.

Proxies live on the broker of the rack hosting the user's master replica;
reads are routed to the closest replica of each target view; writes update
every replica of the written view.
"""

from __future__ import annotations

from ..core.routing import RoutingService
from ..exceptions import SimulationError
from ..persistence.recovery import RecoveryPlan
from ..store.tables import ReplicaTable, pick_least_loaded
from ..traffic.messages import MessageKind
from ..workload.stream import KIND_READ
from .base import Footprint, FootprintStrategy


class SparPlacement(FootprintStrategy):
    """SPAR with the paper's bounded-memory adaptation.

    SPAR moves replicas on *edge* events (co-location) and faults, never on
    reads or writes, so requests go through the shared footprint kernel;
    every new replica and every evacuation drops all memoised footprints (a
    view's closest replica may have changed for any broker).
    """

    name = "spar"

    def __init__(self, seed: int = 7) -> None:
        super().__init__()
        self.seed = seed
        #: user -> server position of the master replica
        self._master: dict[int, int] = {}
        #: flat placement table (chains + per-position counters, no stats)
        self.tables: ReplicaTable | None = None
        #: server positions currently out of service
        self._down_positions: set[int] = set()
        #: closest-replica resolution (distance rows hoisted per footprint)
        self.routing: RoutingService | None = None

    # ------------------------------------------------------------- placement
    def build_initial_placement(self) -> None:
        self.require_bound()
        assert self.graph is not None and self.topology is not None and self.budget is not None
        servers = len(self.topology.servers)
        capacities = self.budget.per_server_capacity()
        if len(capacities) != servers:
            raise SimulationError("memory budget does not match the number of servers")
        table = ReplicaTable(positions=servers, with_stats=False)
        for position, capacity in enumerate(capacities):
            table.set_capacity(position, capacity)
        self.tables = table
        self._master = {}
        self.routing = RoutingService(self.topology)
        self._reset_footprints()

        # One master replica per user, least-loaded server first.
        for user in self.graph.users:
            self._place_master(user)

        # Stream the edges of the social graph in random order and replicate
        # followees onto followers' servers while space remains.
        edges = list(self.graph.edges())
        self.rng.shuffle(edges)
        for follower, followee in edges:
            self._co_locate(follower, followee)

    def _place_master(self, user: int) -> int:
        """Create the master replica of a user on the least-loaded server."""
        table = self.tables
        position = pick_least_loaded(table.used, self._down_positions)
        if position is None:
            raise SimulationError("no storage server is available")
        self._master[user] = position
        table.allocate(user, position)
        return position

    def _co_locate(self, follower: int, followee: int) -> bool:
        """Replicate ``followee``'s view on ``follower``'s master server.

        Returns True when a new replica was created.  Nothing happens when
        the views are already co-located or the server has no free slot.
        """
        if follower not in self._master:
            self._place_master(follower)
        if followee not in self._master:
            self._place_master(followee)
        table = self.tables
        target = self._master[follower]
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
    def _master_position(self, user: int) -> int:
        position = self._master.get(user)
        if position is None:
            position = self._place_master(user)
        return position

    def proxy_broker(self, user: int) -> int:
        """Broker of the rack hosting the user's master replica."""
        assert self.topology is not None
        master_device = self.server_device(self._master_position(user))
        return self.topology.proxy_broker_for_server(master_device)

    def execute_read(
        self, user: int, now: float, targets: tuple[int, ...] | None = None
    ) -> None:
        self.require_bound()
        assert self.graph is not None and self.accountant is not None
        if targets is None:
            if not self.graph.has_user(user):
                return
            targets = tuple(self.graph.following(user))
        broker = self.proxy_broker(user)
        table = self.tables
        for target in targets:
            self._master_position(target)
            replicas = {self.server_device(p) for p in table.user_positions(target)}
            server = self.routing.closest_replica(broker, replicas)
            self.accountant.record_roundtrip(
                broker, server, MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE, now
            )

    def execute_write(self, user: int, now: float) -> None:
        self.require_bound()
        assert self.accountant is not None
        broker = self.proxy_broker(user)
        self._master_position(user)
        for position in self.tables.user_positions(user):
            server = self.server_device(position)
            self.accountant.record_roundtrip(
                broker, server, MessageKind.WRITE_UPDATE, MessageKind.WRITE_ACK, now
            )

    def footprint(self, kind: int, user: int) -> Footprint:
        """From the broker of the user's master rack: a read goes to the
        closest replica of each followee's view, a write to every replica
        of her own."""
        if kind == KIND_READ and not self.graph.has_user(user):
            return ()
        master = self._master_position(user)
        user_positions = self.tables.user_positions
        if kind != KIND_READ:
            return tuple(map(self._position_key_rows[master].__getitem__, user_positions(user)))
        broker = self._broker_of_position[master]
        device_of = self._device_of_position
        resolve = self.routing.batch_resolver(broker)
        devices = []
        for target in self.graph.following(user):
            self._master_position(target)
            devices.append(resolve([device_of[p] for p in user_positions(target)]))
        return self._footprint_of(broker, devices)

    # --------------------------------------------------------- graph changes
    def on_edge_added(self, follower: int, followee: int, now: float) -> None:
        """SPAR reacts to the social graph: try to co-locate the new pair
        (a new replica drops every footprint, the edge's two otherwise)."""
        if not self._co_locate(follower, followee):
            super().on_edge_added(follower, followee, now)

    # ---------------------------------------------------------------- faults
    def on_server_down(
        self, position: int, now: float, graceful: bool = False
    ) -> RecoveryPlan:
        """Evacuate a departed server.

        Masters with a surviving secondary replica are promoted in place
        (fast path, the data is already in memory); masters without one are
        re-created on the least-loaded survivor — from the persistent store
        after a crash, by direct copy on a graceful drain.  Secondary
        (co-location) replicas lost with the server are simply dropped;
        SPAR re-creates them lazily as the edge stream evolves.
        """
        self.require_bound()
        assert self.topology is not None and self.accountant is not None
        servers = len(self.topology.servers)
        self._begin_server_down(position, self._down_positions, servers)
        table = self.tables

        plan = RecoveryPlan(crashed_server=position)
        source_device = self.server_device(position)
        affected = set(table.users_at(position))
        for user in self._master:
            if user not in affected:
                continue
            doomed = table.slot_of(user, position)
            table.free(doomed)
            if self._master.get(user) != position:
                continue  # a lost secondary replica; the master survives
            remaining = table.user_positions(user)
            if remaining:
                # Promote the closest surviving replica to master.
                self._master[user] = min(remaining)
                plan.recoverable_from_memory.append(user)
                continue
            target = pick_least_loaded(table.used, self._down_positions)
            if target is None:
                raise SimulationError("no storage server is available")
            table.allocate(user, target)
            self._master[user] = target
            target_device = self.server_device(target)
            if graceful:
                plan.recoverable_from_memory.append(user)
                source = source_device
            else:
                plan.recoverable_from_disk.append(user)
                source = self.topology.proxy_broker_for_server(target_device)
            self.accountant.record(
                source, target_device, MessageKind.REPLICA_COPY, now
            )
        self._drop_footprints()
        return plan

    def on_server_up(self, position: int, now: float) -> None:
        """The server rejoins empty; co-location refills it as edges arrive."""
        self._begin_server_up(position, self._down_positions)

    # ----------------------------------------------------------- introspection
    def replica_locations(self) -> dict[int, set[int]]:
        table = self.tables
        return {
            user: {self.server_device(position) for position in table.user_positions(user)}
            for user in table.users()
        }

    def replica_count(self, user: int) -> int:
        return self.tables.user_replica_count(user) if self.tables is not None else 0

    def has_any_replica(self, user: int) -> bool:
        """O(1) availability check used by the simulator's final audit."""
        return self.tables is not None and self.tables.has_user(user)

    def memory_in_use(self) -> int:
        """Total replicas stored (O(1) from the table counters)."""
        return self.tables.active_count if self.tables is not None else 0

    def replication_factor(self) -> float:
        """Average number of replicas per view."""
        table = self.tables
        if table is None or not len(table._user_head):
            return 0.0
        return table.active_count / len(table._user_head)


__all__ = ["SparPlacement"]
