"""The DynaSoRe placement strategy (paper section 3).

This module ties the pieces together into the full protocol:

* per-user read and write proxies hosted on brokers, migrating towards the
  data they access;
* storage servers with bounded capacity, per-replica rotating access
  statistics, admission thresholds and proactive eviction;
* Algorithm 1 (utility), Algorithm 2 (replica creation) and Algorithm 3
  (replica migration) driving dynamic replication;
* closest-replica routing with routing-update notifications;
* traffic accounting of every application and system message.

Since the array-backed state refactor the engine holds **no replica
objects**: all placement state of the fleet lives in one shared
:class:`~repro.store.tables.ReplicaTable`, the base class's ``tables``
deployed with statistics (flat replica-id columns with
per-user and per-server chain indexes, plus the
:class:`~repro.store.tables.StatsTable` columns holding the rotating access
windows).  The hot paths — request execution, closest-replica resolution,
least-loaded ranking, the maintenance sweep — walk those columns directly
with integer replica ids.  Algorithms 1–3 receive plain values read off
those columns: a slot's ``reads_by_origin()`` mapping, its window write
total and device indexes.

The engine implements the same :class:`~repro.baselines.base.PlacementStrategy`
interface as the baselines, so the trace-driven simulator can run them
interchangeably, and starts from the same initial placements: its
``initializer`` names an entry of
:data:`~repro.baselines.placements.INITIAL_PLACEMENTS` (re-exported here),
resolved at construction and deployed, fitted to capacity, exactly as the
static baselines' (:meth:`~repro.baselines.base.PlacementStrategy._deploy_assignment`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.base import PlacementStrategy, require_request_kinds
from ..baselines.placements import INITIAL_PLACEMENTS, InitialAssignment
from ..config import DynaSoReConfig
from ..exceptions import SimulationError
from ..persistence.recovery import RecoveryPlan
from ..store.tables import (
    NO_SLOT,
    ReplicaTable,
    pick_least_loaded,
    rank_by_utilisation,
)
from ..store.view import INFINITE_UTILITY
from ..traffic.messages import MessageKind
from ..workload.stream import KIND_READ
from .migration import MigrationAction, evaluate_replica_migration
from .proxies import ProxyDirectory, optimal_proxy_broker
from .replication import evaluate_replica_creation, origin_candidates
from .utility import estimate_profit


@dataclass
class EngineCounters:
    """Diagnostics of the dynamic decisions taken during a run."""

    replicas_created: int = 0
    replicas_removed: int = 0
    replicas_migrated: int = 0
    read_proxy_migrations: int = 0
    write_proxy_migrations: int = 0
    creation_rejected_full: int = 0
    servers_lost: int = 0
    views_recovered_from_memory: int = 0
    views_recovered_from_disk: int = 0


class DynaSoRe(PlacementStrategy):
    """Dynamic social store: adaptive replica placement over a switch tree."""

    name = "dynasore"

    def __init__(
        self,
        initializer: str | InitialAssignment = "random",
        config: DynaSoReConfig | None = None,
        seed: int = 7,
    ) -> None:
        super().__init__(initializer, seed)
        self.config = config or DynaSoReConfig()
        self.name = f"dynasore[{self.initializer_name}]"

        self.proxies = ProxyDirectory()
        self._position_of_device: dict[int, int] = {}
        self._positions_under_switch: dict[int, tuple[int, ...]] = {}
        self._threshold_cache: dict[int, float] = {}
        # Per-origin least-loaded rankings, reused between occupancy
        # changes (they are queried for every origin of every evaluated
        # read, far more often than occupancy actually changes).  An
        # occupancy change at a position invalidates only the origins whose
        # sub-tree contains that position — a ranking depends on nothing
        # else — so unrelated origins keep their cached ranking.
        self._origin_rank_cache: dict[int, tuple[int, ...]] = {}
        #: position -> origins whose ranking covers it (inverse sub-tree map)
        self._origins_above: list[tuple[int, ...]] = []
        self._last_tick: float = 0.0
        #: recycled scratch containers of the fused (batch-path) decision
        #: kernel — Algorithms 2 and 3 run once per evaluated read, and
        #: reusing these avoids per-evaluation allocations
        self._eval_candidates: list[tuple[int, int, int]] = []
        self._eval_profits: dict[int, float] = {}
        #: batch-kernel state: origin memo (broker -> device -> origin
        #: label), a pure topology function, never cleared; run-local
        #: traffic aggregators
        self._origin_memo: dict[int, dict[int, int]] = {}
        self._read_run = None
        self._write_run = None
        #: tick-sweep companions (see ``on_tick``): whether the last sweep
        #: left the position with a negative-utility replica (gates the
        #: removal pass), and the reusable (origin, reads) scratch of the
        #: pairwise pricing.
        self._tick_has_negative: list[bool] = []
        self._tick_pairs: list[tuple[int, float]] = []
        self.counters = EngineCounters()

    # =====================================================================
    # Initial placement
    # =====================================================================
    def build_initial_placement(self) -> None:
        # The shared struct-of-arrays placement state of the whole fleet.
        table = ReplicaTable(
            positions=len(self.topology.servers),
            counter_slots=self.config.counter_slots,
            counter_period=self.config.counter_period,
        )
        assignment = self._deploy_assignment(
            table, self._initializer(self.graph, self.topology, self.seed)
        )
        broker_of_position = self._broker_of_position
        for user, position in assignment.items():
            self.proxies.place_both(user, broker_of_position[position])
        self._position_of_device = {
            device: position for position, device in enumerate(self._device_of_position)
        }
        self._build_switch_index()
        self._origin_rank_cache.clear()
        self._origin_memo = {}
        self._tick_has_negative = [False] * table.num_positions
        self._tick_pairs = []
        self._read_run = self.accountant.roundtrip_run(
            MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE
        )
        self._write_run = self.accountant.roundtrip_run(
            MessageKind.WRITE_UPDATE, MessageKind.WRITE_ACK
        )

    def _build_switch_index(self) -> None:
        """Pre-compute the storage-server positions under every switch."""
        self._positions_under_switch = {}
        for switch in self.topology.switches:
            devices = self.topology.servers_under(switch.index)
            self._positions_under_switch[switch.index] = tuple(
                self._position_of_device[device]
                for device in devices
                if device in self._position_of_device
            )
        # In the flat topology origins are machines, not switches; each
        # machine-origin contains exactly the co-located storage server.
        for server in self.topology.servers:
            if server.index not in self._positions_under_switch:
                self._positions_under_switch[server.index] = (
                    self._position_of_device[server.index],
                )
        # Invert the map: the origins whose ranking covers each position.
        above: list[list[int]] = [[] for _ in self._device_of_position]
        for origin, positions in self._positions_under_switch.items():
            for position in positions:
                above[position].append(origin)
        self._origins_above = [tuple(origins) for origins in above]

    def _invalidate_ranks(self, position: int) -> None:
        """Drop the cached rankings of every origin covering ``position``."""
        cache = self._origin_rank_cache
        for origin in self._origins_above[position]:
            cache.pop(origin, None)

    # =====================================================================
    # Helpers used by Algorithms 2 and 3
    # =====================================================================
    def positions_under(self, origin: int) -> tuple[int, ...]:
        """Storage-server positions under an origin switch (or machine)."""
        positions = self._positions_under_switch.get(origin)
        if positions is None:
            raise SimulationError(f"unknown origin {origin}")
        return positions

    def least_loaded_server_under(self, origin: int, user: int) -> int | None:
        """Least-loaded server under ``origin`` not already storing ``user``.

        Only servers with a free slot qualify: replica creation never evicts
        on the spot; memory is freed by the proactive eviction pass of the
        maintenance tick (paper section 3.2, "Eviction of views").
        """
        ranked = self._origin_rank_cache.get(origin)
        table = self.tables
        if ranked is None:
            positions = self._positions_under_switch.get(origin)
            if positions is None:
                raise SimulationError(f"unknown origin {origin}")
            ranked = rank_by_utilisation(positions, table.used, table.capacities)
            self._origin_rank_cache[origin] = ranked
        head = table._user_head.get(user, NO_SLOT)
        down = self._down_positions
        if head == NO_SLOT and not down:
            return ranked[0] if ranked else None
        # Walk the user's (replication-factor short) chain per candidate
        # instead of materialising a holder set.
        user_next = table._user_next
        server = table._server
        for position in ranked:
            if position in down:
                continue
            slot = head
            while slot != NO_SLOT:
                if server[slot] == position:
                    break
                slot = user_next[slot]
            if slot == NO_SLOT:
                return position
        return None

    def admission_threshold_under(self, origin: int) -> float:
        """Lowest admission threshold among the servers under ``origin``.

        Brokers learn thresholds through piggybacking and keep the lowest
        value per region; the cache is invalidated at every maintenance tick
        when thresholds are recomputed.
        """
        cached = self._threshold_cache.get(origin)
        if cached is not None:
            return cached
        positions = self.positions_under(origin)
        if not positions:
            value = INFINITE_UTILITY
        else:
            thresholds = self.tables.admission_thresholds
            value = min(thresholds[position] for position in positions)
        self._threshold_cache[origin] = value
        return value

    # =====================================================================
    # Request execution
    # =====================================================================
    def _ensure_user(self, user: int) -> None:
        """Allocate a view and proxies for a user unknown to the store.

        New users are placed on the least-loaded server of the cluster and
        their proxies on the closest broker (paper section 3.3, "Managing the
        social network").
        """
        table = self.tables
        if user in table._user_head:
            return
        position = pick_least_loaded(
            table.used, self._down_positions, capacities=table.capacities
        )
        if position is None:
            raise SimulationError("no storage server is available")
        table.allocate(user, position)
        self.proxies.place_both(user, self._broker_of_position[position])
        self._invalidate_ranks(position)

    def execute_read(
        self, user: int, now: float, targets: tuple[int, ...] | None = None
    ) -> None:
        self._require_deployed()
        if targets is None:
            if not self.graph.has_user(user):
                return
            targets = tuple(self.graph.following(user))
        table = self.tables
        if user not in table._user_head:
            self._ensure_user(user)
        broker = self.proxies.read_broker(user)
        if broker is None:
            broker = self._broker_of_position[table._server[table._user_head[user]]]
            self.proxies.read_proxy[user] = broker

        transfers: dict[int, float] = {}
        # Local bindings: this loop runs once per followed user per read and
        # dominates the simulator's wall clock.  The closest-replica walk is
        # inlined: most views have a single replica, so the common case is
        # one chain hop through two flat columns.
        ensure_user = self._ensure_user
        user_head = table._user_head
        user_next = table._user_next
        server_column = table._server
        device_of_position = self._device_of_position
        distance_row = self.topology.distance_row
        record_roundtrip = self.accountant.record_roundtrip
        origin_of = self.topology.origin_of
        record_read = table.stats.record_read
        for target in targets:
            slot = user_head.get(target, NO_SLOT)
            if slot == NO_SLOT:
                ensure_user(target)
                slot = user_head[target]
            following = user_next[slot]
            if following == NO_SLOT:
                position = server_column[slot]
            else:
                # Replicated view: pick the replica closest to the broker
                # (distance, ties on device index — the routing policy).
                distances = distance_row(broker)
                best_distance = best_device = float("inf")
                position = -1
                walk = slot
                while walk != NO_SLOT:
                    walk_position = server_column[walk]
                    device = device_of_position[walk_position]
                    distance = distances[device]
                    if distance < best_distance or (
                        distance == best_distance and device < best_device
                    ):
                        best_distance = distance
                        best_device = device
                        slot_found = walk
                        position = walk_position
                    walk = user_next[walk]
                slot = slot_found
            device = device_of_position[position]
            record_roundtrip(
                broker, device, MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE, now
            )
            transfers[device] = transfers.get(device, 0.0) + 1.0

            origin = origin_of(device, broker)
            record_read(slot, origin, now)
            self._consider_replication(slot, position, now)

        if transfers:
            best = optimal_proxy_broker(self.topology, transfers, broker)
            if best != broker:
                self.accountant.record(broker, best, MessageKind.PROXY_MIGRATION, now)
                self.proxies.read_proxy[user] = best
                self.counters.read_proxy_migrations += 1

    def execute_write(self, user: int, now: float) -> None:
        self._require_deployed()
        table = self.tables
        if user not in table._user_head:
            self._ensure_user(user)
        broker = self.proxies.write_broker(user)
        if broker is None:
            broker = self._broker_of_position[table._server[table._user_head[user]]]
            self.proxies.write_proxy[user] = broker

        transfers: dict[int, float] = {}
        device_of_position = self._device_of_position
        record_write = table.stats.record_write
        slots = list(table.user_slots(user))
        for slot in slots:
            position = table._server[slot]
            device = device_of_position[position]
            self.accountant.record_roundtrip(
                broker, device, MessageKind.WRITE_UPDATE, MessageKind.WRITE_ACK, now
            )
            transfers[device] = transfers.get(device, 0.0) + 1.0
            record_write(slot, now)

        if transfers:
            best = optimal_proxy_broker(self.topology, transfers, broker)
            if best != broker:
                # Migrating a write proxy notifies every replica of the view.
                for slot in slots:
                    device = device_of_position[table._server[slot]]
                    self.accountant.record(broker, device, MessageKind.PROXY_MIGRATION, now)
                self.proxies.write_proxy[user] = best
                self.counters.write_proxy_migrations += 1

    # =====================================================================
    # Batch kernel (chunk-native request execution)
    # =====================================================================
    def execute_request_batch(self, kinds, users, timestamps) -> None:
        """Fused request kernel over the replica and statistics columns.

        Executes a time-ordered run of reads and writes with byte-identical
        semantics to the per-event :meth:`execute_read` /
        :meth:`execute_write` pair, replacing their per-event costs with
        run-level state:

        * origin labels (a pure topology function of ``(device, broker)``)
          are memoised permanently;
        * request/response roundtrips aggregate into per-path counts
          applied with one multiplied accountant update per distinct path
          and time bucket (warm-up messages only bump the message counter);
        * statistics recording is inlined on the counter-node columns.

        Closest replicas, placement candidates and proxy placement are
        resolved from the live columns every time: placement changes about
        once per event on a steady stream, so nothing keyed on "placement
        unchanged" survives long enough to pay for its invalidation.
        Replication checks (Algorithm 2/3 via :meth:`_consider_replication`)
        fire per recorded read — the decision sequence is semantics, not
        overhead — and protocol messages (proxy migrations, replica
        control/copy, routing updates) go through the accountant's
        write-combining :meth:`~repro.traffic.accounting.TrafficAccountant.record`.
        """
        self._require_deployed()
        require_request_kinds(kinds)
        read_run = self._read_run
        topology = self.topology
        graph = self.graph
        has_user = graph.has_user
        following = graph.following
        table = self.tables
        stats = table.stats
        accountant = self.accountant
        write_run = self._write_run
        read_counts_for = read_run.counts_for
        write_counts_for = write_run.counts_for
        stride = read_run.stride
        read_proxy = self.proxies.read_proxy
        write_proxy = self.proxies.write_proxy
        device_of_position = self._device_of_position
        distance_row = topology.distance_row
        origin_of = topology.origin_of
        broker_of_position = self._broker_of_position
        origin_memo = self._origin_memo
        ensure_user = self._ensure_user
        decide_with_candidates = self._decide_with_candidates
        counters = self.counters
        least_loaded_server_under = self.least_loaded_server_under
        remove_replica = self._remove_replica
        reads_by_origin = stats.reads_by_origin
        eval_candidates = self._eval_candidates
        origin_rank_cache = self._origin_rank_cache
        down_positions = self._down_positions
        user_head = table._user_head
        user_next = table._user_next
        server_column = table._server
        next_closest_column = table._next_closest
        read_head = stats._read_head
        write_node = stats._write_node
        node_next = stats._node_next
        node_origin = stats._node_origin
        node_period = stats._node_period
        node_total = stats._node_total
        node_buckets = stats._node_buckets
        counter_slots = stats.slots
        counter_period = stats.period
        alloc_node = stats._alloc_node
        advance_node = stats._advance_node
        #: scratch: slots of the current write's replica chain
        write_slots: list[int] = []
        KIND_READ_ = KIND_READ

        for kind, user, now in zip(kinds, users, timestamps):
            if kind == KIND_READ_:
                # ---------------------------------------------- read event
                if not has_user(user):
                    continue
                if user not in user_head:
                    ensure_user(user)
                broker = read_proxy.get(user)
                if broker is None:
                    broker = broker_of_position[server_column[user_head[user]]]
                    read_proxy[user] = broker
                origins = origin_memo.get(broker)
                if origins is None:
                    origins = origin_memo[broker] = {}
                base = broker * stride
                counts = read_counts_for(now)
                period_index = int(now // counter_period)
                #: served reads per device, in target order
                transfers: dict[int, float] = {}
                for target in following(user):
                    slot = user_head.get(target, NO_SLOT)
                    if slot == NO_SLOT:
                        ensure_user(target)
                        slot = user_head[target]
                    if user_next[slot] == NO_SLOT:
                        position = server_column[slot]
                    else:
                        # Replicated view: closest replica to the broker,
                        # ties on the device index (the routing policy).
                        distances = distance_row(broker)
                        best_distance = best_device = float("inf")
                        position = -1
                        walk = slot
                        while walk != NO_SLOT:
                            walk_position = server_column[walk]
                            device = device_of_position[walk_position]
                            distance = distances[device]
                            if distance < best_distance or (
                                distance == best_distance and device < best_device
                            ):
                                best_distance = distance
                                best_device = device
                                slot_found = walk
                                position = walk_position
                            walk = user_next[walk]
                        slot = slot_found
                    device = device_of_position[position]
                    key = base + device
                    count = counts.get(key)
                    counts[key] = 1 if count is None else count + 1
                    seen = transfers.get(device)
                    transfers[device] = 1.0 if seen is None else seen + 1.0
                    origin = origins.get(device)
                    if origin is None:
                        origin = origins[device] = origin_of(device, broker)
                    # Inlined ``StatsTable.record_read`` on the node columns.
                    node = read_head[slot]
                    last = NO_SLOT
                    while node != NO_SLOT and node_origin[node] != origin:
                        last = node
                        node = node_next[node]
                    if node == NO_SLOT:
                        node = alloc_node(origin, period_index)
                        if last == NO_SLOT:
                            read_head[slot] = node
                        else:
                            node_next[last] = node
                    elif period_index > node_period[node]:
                        advance_node(node, period_index)
                    node_buckets[
                        node * counter_slots + node_period[node] % counter_slots
                    ] += 1.0
                    node_total[node] += 1.0
                    # Inlined candidate resolution of Algorithms 2+3.
                    # The common steady-state case — no origin offers a
                    # placement candidate because the view already sits
                    # where its readers are — short-circuits: creation
                    # is impossible and migration reduces to the
                    # stay-or-remove check, which for a sole replica is
                    # unconditionally "stay" (the discarded profit is
                    # never computed).  With candidates, the fused
                    # decision method prices the prebuilt list.
                    origins_d = reads_by_origin(slot)
                    eval_candidates.clear()
                    for read_origin in origins_d:
                        # Inlined rank-cache hit path of
                        # ``least_loaded_server_under``.
                        ranked = origin_rank_cache.get(read_origin)
                        if ranked is None:
                            found = least_loaded_server_under(read_origin, target)
                        else:
                            found = None
                            for ranked_position in ranked:
                                if ranked_position in down_positions:
                                    continue
                                chain = user_head[target]
                                while chain != NO_SLOT and server_column[chain] != ranked_position:
                                    chain = user_next[chain]
                                if chain == NO_SLOT:
                                    found = ranked_position
                                    break
                        if found is None:
                            continue
                        found_device = device_of_position[found]
                        if found_device != device:
                            eval_candidates.append((read_origin, found, found_device))
                    if eval_candidates:
                        decide_with_candidates(
                            slot, position, now, target, origins_d, eval_candidates
                        )
                    else:
                        next_closest = next_closest_column[slot]
                        if next_closest != NO_SLOT:
                            # Zero-write fast path: the clamp in the
                            # profit estimate guarantees the read term
                            # is never negative, so a view with no
                            # priced write cost can never price below
                            # zero — the stay-or-remove check is
                            # "stay" without pricing anything.
                            stats_node = write_node[slot]
                            if (
                                stats_node != NO_SLOT
                                and node_total[stats_node] > 0.0
                                and write_proxy.get(target) is not None
                            ):
                                stay_profit = estimate_profit(
                                    topology,
                                    origins_d.items(),
                                    node_total[stats_node],
                                    device,
                                    next_closest,
                                    write_proxy.get(target),
                                )
                                if stay_profit < 0:
                                    remove_replica(target, position, now)
                if transfers:
                    best = optimal_proxy_broker(topology, transfers, broker)
                    if best != broker:
                        accountant.record(
                            broker, best, MessageKind.PROXY_MIGRATION, now
                        )
                        read_proxy[user] = best
                        counters.read_proxy_migrations += 1
            else:
                # --------------------------------------------- write event
                if user not in user_head:
                    ensure_user(user)
                broker = write_proxy.get(user)
                if broker is None:
                    broker = broker_of_position[server_column[user_head[user]]]
                    write_proxy[user] = broker
                base = broker * stride
                counts = write_counts_for(now)
                period_index = int(now // counter_period)
                transfers = {}
                write_slots.clear()
                slot = user_head[user]
                while slot != NO_SLOT:
                    position = server_column[slot]
                    device = device_of_position[position]
                    key = base + device
                    count = counts.get(key)
                    counts[key] = 1 if count is None else count + 1
                    write_slots.append(slot)
                    seen = transfers.get(device)
                    transfers[device] = 1.0 if seen is None else seen + 1.0
                    # Inlined ``StatsTable.record_write`` on the node columns.
                    node = write_node[slot]
                    if node == NO_SLOT:
                        node = alloc_node(NO_SLOT, 0)
                        write_node[slot] = node
                    if period_index > node_period[node]:
                        advance_node(node, period_index)
                    node_buckets[
                        node * counter_slots + node_period[node] % counter_slots
                    ] += 1.0
                    node_total[node] += 1.0
                    slot = user_next[slot]
                if transfers:
                    best = optimal_proxy_broker(topology, transfers, broker)
                    if best != broker:
                        for slot in write_slots:
                            device = device_of_position[server_column[slot]]
                            accountant.record(
                                broker, device, MessageKind.PROXY_MIGRATION, now
                            )
                        write_proxy[user] = best
                        counters.write_proxy_migrations += 1
        read_run.flush()
        write_run.flush()

    # =====================================================================
    # Replication, migration, eviction
    # =====================================================================
    def _consider_replication(self, slot: int, position: int, now: float) -> None:
        """Run Algorithm 2 for a replica; fall back to Algorithm 3 when no
        replica can be created (paper: "When no replicas can be created, the
        server attempts to migrate the view to a more appropriate location")."""
        table = self.tables
        stats = table.stats
        user = table._user[slot]
        origins = stats.reads_by_origin(slot)
        writes = stats.total_writes(slot)
        replica_device = self._device_of_position[position]
        write_broker = self.proxies.write_broker(user)
        # Both algorithms price the same per-origin candidates; resolve them
        # once (nothing changes placement between the two evaluations).  No
        # availability filter is needed: ``least_loaded_server_under`` never
        # returns a position from the down set.
        candidates = origin_candidates(
            user, origins, replica_device, self.least_loaded_server_under,
            self.device_of_position,
        )
        # Algorithm 3 falls back to the replica's own server as reference
        # when the replica is sole — the same reference Algorithm 2 prices
        # against — so it reuses Algorithm 2's per-device prices.
        profits: dict[int, float] = {}
        decision = evaluate_replica_creation(
            self.topology,
            user,
            origins,
            writes,
            replica_device,
            write_broker,
            self.least_loaded_server_under,
            self.admission_threshold_under,
            self.device_of_position,
            candidates=candidates,
            profits=profits,
        )
        if decision.should_replicate and decision.target_position is not None:
            self._create_replica(
                user, decision.target_position, now, requesting_position=position,
                incoming_profit=decision.profit,
            )
            return
        next_device = table._next_closest[slot]
        decision = evaluate_replica_migration(
            self.topology,
            user,
            origins,
            writes,
            replica_device,
            None if next_device == NO_SLOT else next_device,
            write_broker,
            self.least_loaded_server_under,
            self.admission_threshold_under,
            self.device_of_position,
            candidates=candidates,
            profits=profits,
        )
        if decision.action is MigrationAction.REMOVE:
            self._remove_replica(user, position, now)
        elif decision.action is MigrationAction.MOVE and decision.target_position is not None:
            created = self._create_replica(
                user,
                decision.target_position,
                now,
                requesting_position=position,
                incoming_profit=decision.profit,
            )
            if created:
                self._remove_replica(user, position, now)
                self.counters.replicas_migrated += 1

    def _decide_with_candidates(
        self,
        slot: int,
        position: int,
        now: float,
        user: int,
        origins: dict[int, float],
        candidates,
    ) -> None:
        """Fused Algorithms 2+3 of the batch kernel (allocation-free).

        Behaviourally identical to :meth:`_consider_replication` — each
        distinct candidate device priced once with
        :func:`~repro.core.utility.estimate_profit`, in the same per-origin
        order, and the same decision application — but with no closure or
        decision-object allocation per evaluation.  The caller (the request
        kernel) has already resolved the per-origin ``candidates``
        (non-empty) and handles the no-candidate cases inline; the per-event
        path keeps the shared :mod:`~repro.core.replication` /
        :mod:`~repro.core.migration` implementations, which the parity suite
        holds byte-identical to this kernel.

        Once Algorithm 2 has declined, Algorithm 3 is skipped for a sole
        replica, because it cannot act there:

        1. it would price the same candidates against the same reference
           (the replica's own server), so every profit is the one
           Algorithm 2 saw;
        2. Algorithm 2 declined, so no candidate has ``profit > threshold
           and profit > 0``; admission thresholds are ``>= 0``
           (:meth:`ReplicaTable.check_integrity` asserts it), so none has
           ``profit > threshold`` — no move;
        3. the removal is guarded by "not sole" — no removal.
        """
        table = self.tables
        stats = table.stats
        topology = self.topology
        replica_device = self._device_of_position[position]
        admission_threshold_under = self.admission_threshold_under
        write_broker = self.proxies.write_proxy.get(user)

        # Algorithm 2: price a new replica against the current server.
        pairs = origins.items()
        writes = stats.total_writes(slot)
        best_profit = 0.0
        best_position = None
        profits = self._eval_profits
        profits.clear()
        for origin, candidate_position, candidate_device in candidates:
            profit = profits.get(candidate_device)
            if profit is None:
                profit = profits[candidate_device] = estimate_profit(
                    topology, pairs, writes, candidate_device, replica_device, write_broker
                )
            threshold = admission_threshold_under(origin)
            if profit > threshold and profit > best_profit:
                best_position = candidate_position
                best_profit = profit
        if best_position is not None:
            self._create_replica(
                user,
                best_position,
                now,
                requesting_position=position,
                incoming_profit=best_profit,
            )
            return
        # Algorithm 3: migrate (or remove) this replica, priced against the
        # server of its next-closest sibling.  A sole replica has none and
        # cannot act (see the docstring).
        reference = table._next_closest[slot]
        if reference == NO_SLOT:
            return
        profits.clear()
        best_profit = stay_profit = estimate_profit(
            topology, pairs, writes, replica_device, reference, write_broker
        )
        best_position = None
        for origin, candidate_position, candidate_device in candidates:
            profit = profits.get(candidate_device)
            if profit is None:
                profit = profits[candidate_device] = estimate_profit(
                    topology, pairs, writes, candidate_device, reference, write_broker
                )
            threshold = admission_threshold_under(origin)
            if profit > best_profit and profit > threshold:
                best_position = candidate_position
                best_profit = profit
        if best_profit < 0:
            self._remove_replica(user, position, now)
        elif best_position is not None and best_profit > stay_profit:
            created = self._create_replica(
                user,
                best_position,
                now,
                requesting_position=position,
                incoming_profit=best_profit,
            )
            if created:
                self._remove_replica(user, position, now)
                self.counters.replicas_migrated += 1

    def _create_replica(
        self,
        user: int,
        target_position: int,
        now: float,
        requesting_position: int | None = None,
        incoming_profit: float = 0.0,
    ) -> bool:
        """Create a replica of ``user``'s view on ``target_position``.

        Returns True when the replica was created.  The target may refuse
        when it is full and none of its evictable replicas is less useful
        than the incoming view.
        """
        table = self.tables
        device_of_position = self._device_of_position
        target_device = device_of_position[target_position]
        slots, devices = self._replica_chain(user)
        if target_device in devices:
            return False
        if table.used[target_position] >= table.capacities[target_position]:
            if not self._make_room(target_position, incoming_profit, now):
                self.counters.creation_rejected_full += 1
                return False

        # Control traffic: the requesting server notifies the write proxy,
        # which instructs the target server and ships the view data from the
        # closest existing replica.
        write_broker = self.proxies.write_broker(user)
        record = self.accountant.record
        if write_broker is not None:
            if requesting_position is not None:
                record(
                    device_of_position[requesting_position],
                    write_broker,
                    MessageKind.REPLICA_CONTROL,
                    now,
                )
            record(write_broker, target_device, MessageKind.REPLICA_CONTROL, now)
        source_device = self.routing.closest_replica(target_device, devices)
        record(source_device, target_device, MessageKind.REPLICA_COPY, now)

        source_slot = slots[devices.index(source_device)]
        new_slot = table.allocate(user, target_position)
        self._seed_statistics(source_slot, new_slot, source_device, target_device, now)
        self._invalidate_ranks(target_position)
        # The brokers that now route to the new replica: those preferring it
        # to every existing one.
        self._notify_routing(
            write_broker, self.routing.preferring_brokers(target_device, devices), now
        )
        slots.append(new_slot)
        devices.append(target_device)
        self._link_siblings(slots, devices)
        self._refresh_utility(new_slot)
        self.counters.replicas_created += 1
        return True

    def _seed_statistics(
        self, source_slot: int, new_slot: int, source_device: int, target_device: int, now: float
    ) -> None:
        """Seed a freshly created replica's statistics from its source.

        The new replica inherits, from the replica it was copied from, the
        read counts of the origins that will be routed to it (those closer to
        the new location than to the source) and the view's write rate.
        Seeding prevents a cold-start artefact where a new replica — created
        precisely because a region reads the view heavily — would look
        useless at the next maintenance tick simply because its own counters
        are still empty, get evicted, and be re-created on the next read.
        """
        stats = self.tables.stats
        cost_from_origin = self.topology.cost_from_origin
        for origin, reads in stats.reads_by_origin(source_slot).items():
            if cost_from_origin(origin, target_device) < cost_from_origin(
                origin, source_device
            ):
                stats.record_read(new_slot, origin, now, reads)
        writes = stats.total_writes(source_slot)
        if writes:
            stats.record_write(new_slot, now, writes)

    def _make_room(self, target_position: int, incoming_profit: float, now: float) -> bool:
        """Evict the least useful replica of a full server if it is less
        useful than the incoming view.  Returns True when a slot was freed."""
        table = self.tables
        candidates = table.eviction_candidate_slots(target_position)
        if not candidates:
            return False
        victim = candidates[0]
        if table.effective_utility(victim) >= incoming_profit:
            return False
        self._remove_replica(table._user[victim], target_position, now)
        return True

    def _remove_replica(self, user: int, position: int, now: float) -> bool:
        """Remove the replica of ``user`` stored at ``position`` (never the
        last one)."""
        device = self._device_of_position[position]
        slots, devices = self._replica_chain(user)
        if device not in devices or len(slots) <= 1:
            return False
        index = devices.index(device)
        self.tables.free(slots.pop(index))
        del devices[index]
        self._invalidate_ranks(position)

        write_broker = self.proxies.write_broker(user)
        if write_broker is not None:
            self.accountant.record(device, write_broker, MessageKind.REPLICA_CONTROL, now)
        # The brokers that must re-route: those that preferred the removed
        # replica to every survivor.
        self._notify_routing(
            write_broker, self.routing.preferring_brokers(device, devices), now
        )
        self._link_siblings(slots, devices)
        self.counters.replicas_removed += 1
        return True

    def _replica_chain(self, user: int) -> tuple[list[int], list[int]]:
        """Slots and devices of ``user``'s replicas, in placement order.

        The one chain walk of a placement change: the membership check, the
        copy source, the routing fan-out and the next-closest refresh all
        run on these two parallel lists.
        """
        table = self.tables
        user_next = table._user_next
        server_column = table._server
        device_of_position = self._device_of_position
        slots: list[int] = []
        devices: list[int] = []
        slot = table._user_head.get(user, NO_SLOT)
        while slot != NO_SLOT:
            slots.append(slot)
            devices.append(device_of_position[server_column[slot]])
            slot = user_next[slot]
        return slots, devices

    def _notify_routing(
        self, write_broker: int | None, brokers: tuple[int, ...], now: float
    ) -> None:
        """A view's write proxy sends a routing update to each of ``brokers``."""
        if write_broker is None:
            return
        record = self.accountant.record
        for broker in brokers:
            if broker != write_broker:
                record(write_broker, broker, MessageKind.ROUTING_UPDATE, now)

    def _link_siblings(self, slots: list[int], devices: list[int]) -> None:
        """Point every replica of one view (its whole chain, as returned by
        :meth:`_replica_chain`) at its next-closest sibling."""
        table = self.tables
        next_closest = table._next_closest
        if len(slots) == 1:
            next_closest[slots[0]] = NO_SLOT
        elif len(slots) == 2:
            # The common replicated case: each replica's only sibling is
            # the other one.
            next_closest[slots[0]] = devices[1]
            next_closest[slots[1]] = devices[0]
        else:
            routing_next_closest = self.routing.next_closest
            for slot, device in zip(slots, devices):
                next_closest[slot] = routing_next_closest(device, devices)

    # =====================================================================
    # Maintenance tick
    # =====================================================================
    def _on_tick_reference(self, now: float) -> None:
        """Per-slot reference tick: wholesale counter rotation, then a
        utility walk per position.  Never run in production; kept verbatim
        as what ``tests/test_tick.py`` and the tick benchmark compare
        :meth:`on_tick` against (they bind it over ``on_tick`` on the
        instance)."""
        self._require_deployed()
        self._last_tick = now
        self._threshold_cache.clear()

        table = self.tables
        table.stats.check_window_range()
        # Counter rotation is one flat sweep over the statistics columns;
        # the utility refresh then walks each position's chain (Algorithm 1
        # per replica) before its admission threshold is recomputed.  Sole
        # replicas short-circuit to infinite utility without pricing
        # (Algorithm 1 needs a next-closest replica to compare against).
        table.advance_all_counters(now)
        admission_fill = self.config.admission_fill
        stats = table.stats
        srv_head = table._srv_head
        srv_next = table._srv_next
        next_closest = table._next_closest
        utility = table._utility
        server_column = table._server
        user_column = table._user
        write_node = stats._write_node
        node_total = stats._node_total
        origins_of = stats.reads_by_origin
        device_of_position = self._device_of_position
        write_broker_of = self.proxies.write_proxy.get
        topology = self.topology
        for position in range(table.num_positions):
            slot = srv_head[position]
            while slot != NO_SLOT:
                nearest = next_closest[slot]
                if nearest == NO_SLOT:
                    utility[slot] = INFINITE_UTILITY
                else:
                    node = write_node[slot]
                    utility[slot] = estimate_profit(
                        topology,
                        origins_of(slot).items(),
                        node_total[node] if node != NO_SLOT else 0.0,
                        device_of_position[server_column[slot]],
                        nearest,
                        write_broker_of(user_column[slot]),
                    )
                slot = srv_next[slot]
            table.update_admission_threshold(position, admission_fill)

        # Proactive eviction: free memory on servers above the threshold,
        # shedding the least useful replicas first.
        eviction_threshold = self.config.eviction_threshold
        for position in range(table.num_positions):
            if not table.needs_eviction(position, eviction_threshold):
                continue
            excess = table.excess_replicas(position, eviction_threshold)
            for slot in table.eviction_candidate_slots(position):
                if excess <= 0:
                    break
                if self._remove_replica(user_column[slot], position, now):
                    excess -= 1

        # Views with negative utility are removed regardless of memory
        # pressure (their write cost exceeds their read benefit).
        for position in range(table.num_positions):
            for slot in table.position_slots(position):
                if table.effective_utility(slot) < 0:
                    self._remove_replica(user_column[slot], position, now)

    def on_tick(self, now: float) -> None:
        """Hourly maintenance: rotate counters, refresh utilities and
        thresholds, evict, and run the migration sweep (Algorithm 3) — as
        one fused sweep over the placement and statistics columns.

        One chain walk per position does everything the reference tick
        does in three passes: rotates each replica's counter windows (the
        read windows with ``StatsTable._advance_node``'s arithmetic
        inlined — a call per read node made the sweep 17–20 % slower —
        the write window through ``_advance_node`` itself), gathers the
        surviving ``(origin, reads)`` pairs straight off the node columns,
        prices the replica with :func:`~repro.core.utility.estimate_profit`
        over those pairs (no per-slot dict materialisation), and recomputes
        the admission threshold once the chain is done.

        The eviction pass is unchanged (its ``needs_eviction`` gate is
        O(1)); the negative-utility pass only scans positions whose last
        sweep actually produced a negative utility (eviction removals can
        only *raise* effective utilities, never create negatives).

        Byte-identical to :meth:`_on_tick_reference` by construction: same
        per-origin accumulation order, same rotation arithmetic, same
        removal order.
        """
        self._require_deployed()
        self._last_tick = now
        self._threshold_cache.clear()

        table = self.tables
        stats = table.stats
        # The float32 windows' exactness bound, checked once per tick (the
        # end-of-run tick included) instead of once per recorded event.
        stats.check_window_range()
        admission_fill = self.config.admission_fill
        period_index = int(now // stats.period)
        counter_slots = stats.slots

        srv_head = table._srv_head
        srv_next = table._srv_next
        next_closest = table._next_closest
        utility = table._utility
        user_column = table._user
        read_head = stats._read_head
        write_node = stats._write_node
        node_next = stats._node_next
        node_origin = stats._node_origin
        node_period = stats._node_period
        node_total = stats._node_total
        node_buckets = stats._node_buckets
        zero_window = stats._zero_window
        advance_node = stats._advance_node
        device_of_position = self._device_of_position
        write_broker_of = self.proxies.write_proxy.get
        topology = self.topology
        pairs = self._tick_pairs
        has_negative = self._tick_has_negative
        num_positions = table.num_positions
        # Positions added after deployment join the removal-pass gate.
        while len(has_negative) < num_positions:
            has_negative.append(False)

        for position in range(num_positions):
            negative = False
            position_device = device_of_position[position]
            slot = srv_head[position]
            while slot != NO_SLOT:
                pairs.clear()
                node = read_head[slot]
                while node != NO_SLOT:
                    total = node_total[node]
                    current = node_period[node]
                    if current < period_index:
                        # Inlined ``StatsTable._advance_node``; a zero window
                        # total means every bucket is already zero.
                        if total:
                            base = node * counter_slots
                            elapsed = period_index - current
                            if elapsed == 1:
                                # Hourly ticks on an hourly window: exactly
                                # the bucket being re-entered drops out.
                                index = base + period_index % counter_slots
                                dropped = node_buckets[index]
                                if dropped:
                                    node_buckets[index] = 0.0
                                    total -= dropped
                                    node_total[node] = total
                            elif elapsed >= counter_slots:
                                node_buckets[base : base + counter_slots] = zero_window
                                node_total[node] = 0.0
                                total = 0.0
                            else:
                                for step in range(1, elapsed + 1):
                                    index = base + (current + step) % counter_slots
                                    total -= node_buckets[index]
                                    node_buckets[index] = 0.0
                                node_total[node] = total
                        node_period[node] = period_index
                    if total > 0.0:
                        pairs.append((node_origin[node], total))
                    node = node_next[node]
                wtotal = 0.0
                wnode = write_node[slot]
                if wnode != NO_SLOT:
                    advance_node(wnode, period_index)
                    wtotal = node_total[wnode]
                nearest = next_closest[slot]
                if nearest == NO_SLOT:
                    utility[slot] = INFINITE_UTILITY
                else:
                    value = estimate_profit(
                        topology,
                        pairs,
                        wtotal,
                        position_device,
                        nearest,
                        write_broker_of(user_column[slot]),
                    )
                    utility[slot] = value
                    if value < 0.0:
                        negative = True
                slot = srv_next[slot]
            has_negative[position] = negative
            table.update_admission_threshold(position, admission_fill)

        # Proactive eviction, exactly as the reference path (the
        # needs_eviction gate is already O(1) per position).
        eviction_threshold = self.config.eviction_threshold
        for position in range(num_positions):
            if not table.needs_eviction(position, eviction_threshold):
                continue
            excess = table.excess_replicas(position, eviction_threshold)
            for slot in table.eviction_candidate_slots(position):
                if excess <= 0:
                    break
                if self._remove_replica(user_column[slot], position, now):
                    excess -= 1

        # Negative-utility removal, gated on the sweep's verdict: eviction
        # removals only detach slots (utilities and effective utilities of
        # the survivors can only move towards +inf when a sibling leaves),
        # so a position whose sweep saw no negative utility cannot grow one
        # by the time this pass runs.
        for position in range(num_positions):
            if not has_negative[position]:
                continue
            for slot in table.position_slots(position):
                if table.effective_utility(slot) < 0:
                    self._remove_replica(user_column[slot], position, now)

    def _refresh_utility(self, slot: int) -> None:
        """Recompute the cached utility of a replica (Algorithm 1).

        Sole replicas are pinned at infinite utility: Algorithm 1 needs a
        next-closest replica to compare against.
        """
        table = self.tables
        next_closest = table._next_closest[slot]
        if next_closest == NO_SLOT:
            table._utility[slot] = INFINITE_UTILITY
            return
        stats = table.stats
        table._utility[slot] = estimate_profit(
            self.topology,
            stats.reads_by_origin(slot).items(),
            stats.total_writes(slot),
            self._device_of_position[table._server[slot]],
            next_closest,
            self.proxies.write_broker(table._user[slot]),
        )

    # =====================================================================
    # Graph evolution
    # =====================================================================
    def on_edge_added(self, follower: int, followee: int, now: float) -> None:
        """New social connection: make sure both users exist in the store."""
        self._ensure_user(follower)
        self._ensure_user(followee)

    # =====================================================================
    # Server failures and elastic capacity
    # =====================================================================
    def on_server_down(
        self, position: int, now: float, graceful: bool = False
    ) -> RecoveryPlan:
        """Evacuate a departed server and re-place what it held.

        Views replicated elsewhere only need routing updates (the surviving
        replicas keep serving — the paper's fast recovery path).  Views
        whose sole replica lived here are re-created on the least-loaded
        survivor: after a crash the data comes from the persistent store
        through the view's write proxy, on a graceful drain it is copied
        directly from the leaving server (and keeps its access statistics).
        """
        self._begin_server_down(position)
        table = self.tables
        self.counters.servers_lost += 1

        device_of_position = self._device_of_position
        device = device_of_position[position]
        plan = RecoveryPlan(crashed_server=position)
        doomed = table.position_slots(position)
        for slot in doomed:
            user = table._user[slot]
            write_broker = self.proxies.write_broker(user)
            table.detach(slot)
            survivors, survivor_devices = self._replica_chain(user)
            if survivors:
                # Fast path: other replicas keep serving; reroute brokers.
                plan.recoverable_from_memory.append(user)
                self.counters.views_recovered_from_memory += 1
                self._notify_routing(
                    write_broker, self.routing.preferring_brokers(device, survivor_devices), now
                )
                self._link_siblings(survivors, survivor_devices)
                continue
            # Slow path: the sole replica is gone; rebuild it elsewhere.
            target = self._recovery_target()
            target_device = device_of_position[target]
            if graceful:
                plan.recoverable_from_memory.append(user)
                self.counters.views_recovered_from_memory += 1
                source = device
            else:
                plan.recoverable_from_disk.append(user)
                self.counters.views_recovered_from_disk += 1
                # The write proxy pulls the view out of the persistent
                # store and ships it to the new host; the crash wiped the
                # access statistics along with the memory.
                source = (
                    write_broker if write_broker is not None else self._broker_of_position[target]
                )
            self.accountant.record(source, target_device, MessageKind.REPLICA_COPY, now)
            new_slot = table.allocate(user, target)
            if graceful:
                # A drained replica keeps its access history.
                table.stats.move_slot(slot, new_slot)
            self._notify_routing(
                write_broker,
                self.routing.affected_brokers((device,), (target_device,)),
                now,
            )
            self._link_siblings([new_slot], [target_device])

        # Recycle the evacuated slots and leave the departed position with
        # zero capacity (and an infinite admission threshold) while it is
        # away so no decision ever lands on it.
        for slot in doomed:
            table.release(slot)
        table.set_capacity(position, 0)
        table.admission_thresholds[position] = INFINITE_UTILITY
        self._threshold_cache.clear()
        self._origin_rank_cache.clear()
        return plan

    def on_server_up(self, position: int, now: float) -> None:
        """A server rejoins with empty memory and its nominal capacity.

        Nothing is placed on it eagerly: its zero admission threshold makes
        it the most attractive target, so Algorithms 2 and 3 rebalance views
        onto it as traffic flows.
        """
        self._begin_server_up(position)
        table = self.tables
        table.set_capacity(position, self.budget.per_server_capacity()[position])
        table.admission_thresholds[position] = 0.0
        self._threshold_cache.clear()
        self._origin_rank_cache.clear()

    def _recovery_target(self) -> int:
        """Least-loaded in-service server, preferring ones with free slots.

        Recovery must always succeed, so when every survivor is full the
        least-utilised one takes the view anyway (the next maintenance
        tick's eviction pass works the overshoot off).
        """
        table = self.tables
        target = pick_least_loaded(
            table.used, self._down_positions, capacities=table.capacities, skip_full=True
        )
        if target is None:
            target = pick_least_loaded(
                table.used, self._down_positions, capacities=table.capacities
            )
        if target is None:
            raise SimulationError("no storage server is available")
        return target

    # =====================================================================
    # Introspection
    # =====================================================================
    def replica_positions(self, user: int) -> tuple[int, ...]:
        """Storage-server positions holding a replica of ``user``'s view."""
        return self.tables.user_positions(user)

    def memory_capacity(self) -> int:
        """Total capacity of the cluster in views."""
        return sum(self.tables.capacities)

    def server_utilisations(self) -> list[float]:
        """Per-server memory utilisation (O(1) per server from counters)."""
        table = self.tables
        result = []
        for position in range(table.num_positions):
            capacity = table.capacities[position]
            used = table.used[position]
            if capacity == 0:
                result.append(1.0 if used else 0.0)
            else:
                result.append(used / capacity)
        return result


__all__ = ["DynaSoRe", "INITIAL_PLACEMENTS", "InitialAssignment"]
