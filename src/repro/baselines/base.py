"""Placement-strategy interface and the static strategies' shared kernel.

Every view-management protocol evaluated in the paper — Random, METIS,
hierarchical METIS, SPAR and DynaSoRe itself — is a *placement strategy*: it
decides where view replicas live, which broker executes each request, and it
is driven by the same trace-driven simulator.  This module defines the
interface (:class:`PlacementStrategy`, which also owns the one placement
store of all seven — a :class:`~repro.store.tables.ReplicaTable`, the
position → device and → proxy-broker columns, the down set and the routing
service, the table-backed introspection — and their one deployment step)
and the one class of the four strategies whose placement ignores request
traffic (:class:`StaticPlacementStrategy`: a fixed master placement from a
named partitioner of :data:`~repro.baselines.placements.INITIAL_PLACEMENTS`,
proxies on the broker of the rack hosting the master, and the footprint
kernel; SPAR subclasses it to add co-located copies).

Request execution is **batch-first**: the simulator segments event streams
into runs of requests (reads and writes, bounded by graph mutations, faults
and maintenance ticks) and hands whole runs to
:meth:`PlacementStrategy.execute_request_batch`; read-only runs can also be
dispatched through :meth:`~PlacementStrategy.execute_read_batch`.  The base
class implements both as per-event loops over the scalar entry points, so every
strategy — including user subclasses — is batch-dispatchable by
construction.  Two kernels override
``execute_request_batch`` with byte-identical results: DynaSoRe's
(:mod:`repro.core.engine`, per event — its requests feed back into
placement) and :class:`StaticPlacementStrategy`'s, which *counts requests
and settles once*: paper section 4.1 makes Random, METIS and hMETIS static
and SPAR reactive "to changes of the social graph, not to request traffic", so
between two such changes a request is a fixed tuple of ``(broker, device)``
paths: requests are tallied at C speed and multiplied into paths on demand.
``execute_read`` / ``execute_write`` stay as the per-event reference, which
the base-class loop reaches; ``tests/test_batching.py`` holds the
differential property between the two.  Every kernel rejects a kind column
holding anything but reads and writes (:func:`require_request_kinds`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Sequence
from operator import add

from ..exceptions import ConfigurationError, SimulationError
from ..persistence.recovery import RecoveryPlan
from ..socialgraph.graph import SocialGraph
from ..store.memory import MemoryBudget
from ..store.tables import ReplicaTable, pick_least_loaded
from ..topology.base import ClusterTopology
from ..traffic.accounting import TrafficAccountant
from ..traffic.messages import MessageKind
from ..workload.stream import KIND_READ, KIND_WRITE
from .placements import INITIAL_PLACEMENTS, InitialAssignment, fit_assignment_to_capacity

#: One-byte kind column the read-run wrapper tiles to the run length.
_READ_KINDS = bytes([KIND_READ])

#: A request's traffic footprint: one flat path key per roundtrip.
Footprint = tuple[int, ...]

#: The two request roundtrips.  The footprint kernel books both into the
#: top-switch series with one count, so they must weigh the same.
_READ_ROUNDTRIP = (MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE)
_WRITE_ROUNDTRIP = (MessageKind.WRITE_UPDATE, MessageKind.WRITE_ACK)
if [(k.default_size, k.message_class) for k in _READ_ROUNDTRIP] != [
    (k.default_size, k.message_class) for k in _WRITE_ROUNDTRIP
]:
    raise SimulationError("read and write roundtrips must be accounted alike")
#: The footprint kernel keys a request by ``2 * user + kind``.
if (KIND_READ, KIND_WRITE) != (0, 1):
    raise SimulationError("request keys need the read/write kinds to be 0 and 1")


def require_request_kinds(kinds: Sequence[int]) -> None:
    """Reject a request run whose kind column holds anything but
    :data:`~repro.workload.stream.KIND_READ` / :data:`KIND_WRITE` — a
    kernel would otherwise run the stray event as a write (one C-speed
    scan of the column)."""
    if max(kinds, default=KIND_READ) > KIND_WRITE:
        raise SimulationError(
            f"request batch holds event kind {max(kinds)}; only reads "
            f"({KIND_READ}) and writes ({KIND_WRITE}) can be executed"
        )


class PlacementStrategy(ABC):
    """A view-placement protocol driven by the cluster simulator.

    A strategy is constructed with its seed and its ``initializer`` — a
    name of :data:`~repro.baselines.placements.INITIAL_PLACEMENTS`, looked
    up now, or a callable of the same signature that returns a fresh dict,
    which the strategy takes over uncopied — and deployed once, by
    :meth:`bind`; until then its request entry points, fault handlers and
    (DynaSoRe's) ticks raise "not been deployed" (:meth:`_require_deployed`).
    """

    #: Human-readable name used in experiment reports.
    name: str = "strategy"

    #: Whether request execution is a *pure measurement* over placement
    #: state that only system events (edges, faults, ticks) mutate.  Pure
    #: strategies may have their request stream partitioned across shard
    #: workers: each worker replays every system event (keeping placement
    #: replicated and identical) but only its owned requests, and the merged
    #: traffic is byte-identical to the single-process run.  Only shard 0
    #: keeps the single messages of :meth:`TrafficAccountant.record`, so a
    #: pure strategy calls ``record`` from system events alone (the four
    #: here: from ``on_server_down`` only).  ``False`` (the
    #: safe default) means reads/writes feed back into placement decisions —
    #: DynaSoRe's per-replica statistics and Algorithms 2/3 — so the sharded
    #: runner refuses the strategy.
    shard_requests_pure: bool = False

    def __init__(self, initializer: str | InitialAssignment = "random", seed: int = 7) -> None:
        named = isinstance(initializer, str)
        if named and initializer not in INITIAL_PLACEMENTS:
            raise ConfigurationError(
                f"unknown initial placement {initializer!r}; "
                f"expected one of {sorted(INITIAL_PLACEMENTS)} or a callable"
            )
        self._initializer = INITIAL_PLACEMENTS[initializer] if named else initializer
        self.initializer_name = initializer if named else getattr(initializer, "__name__", "custom")
        #: the strategy's only seed (assignment, SPAR's edge shuffle)
        self.seed = seed
        self.topology: ClusterTopology | None = None
        self.graph: SocialGraph | None = None
        self.accountant: TrafficAccountant | None = None
        self.budget: MemoryBudget | None = None
        #: the placement store: empty until :meth:`_deploy_table` installs
        #: the deployed one
        self.tables = ReplicaTable(with_stats=False)
        #: per-position leaf device index, and its rack's (proxy) broker
        self._device_of_position: list[int] = []
        self._broker_of_position: list[int] = []
        #: server positions currently out of service
        self._down_positions: set[int] = set()
        #: closest-replica resolution (a ``RoutingService`` once deployed)
        self.routing = None

    # ------------------------------------------------------------------ setup
    def bind(
        self,
        topology: ClusterTopology,
        graph: SocialGraph,
        accountant: TrafficAccountant,
        budget: MemoryBudget,
    ) -> None:
        """Attach the strategy to a cluster, graph, accountant and budget,
        and deploy its initial placement there (paper section 3.1).

        Bind a strategy once: it is either unbound or deployed.
        """
        self.topology = topology
        self.graph = graph
        self.accountant = accountant
        self.budget = budget
        self.build_initial_placement()

    @abstractmethod
    def build_initial_placement(self) -> None:
        """Build the strategy's table and deploy the initial assignment in
        it (:meth:`_deploy_assignment`), then the strategy's own state;
        :meth:`bind` calls it."""

    def _deploy_assignment(
        self, table: ReplicaTable, assignment: dict[int, int]
    ) -> dict[int, int]:
        """The one deployment step of all seven strategies: check that
        ``assignment`` places every graph user, fit it to capacity
        (:func:`fit_assignment_to_capacity`, which also refuses a position
        outside the cluster), install ``table`` (:meth:`_deploy_table`) and
        allocate each user at her position, in assignment order; return the
        fitted assignment, which may be ``assignment`` itself."""
        missing = set(self.graph.users).difference(assignment)
        if missing:
            raise SimulationError(f"{self.name} assignment misses {len(missing)} users")
        assignment = fit_assignment_to_capacity(assignment, self._deploy_table(table))
        for user, position in assignment.items():
            table.allocate(user, position)
        return assignment

    def _deploy_table(self, table: ReplicaTable) -> list[int]:
        """Install ``table`` (one position per server) as the placement store.

        Sets the budget's per-server capacities on it, fills the position →
        device and position → proxy-broker columns, empties the down set
        and builds the routing service; returns the capacities.
        """
        # ``repro.core`` imports this module through its public API.
        from ..core.routing import RoutingService

        servers = self.topology.servers
        capacities = self.budget.per_server_capacity()
        if len(capacities) != len(servers):
            raise SimulationError("memory budget does not match the number of servers")
        for position, capacity in enumerate(capacities):
            table.set_capacity(position, capacity)
        self.tables = table
        self._device_of_position = [server.index for server in servers]
        self._broker_of_position = [
            self.topology.proxy_broker_for_server(server.index) for server in servers
        ]
        self._down_positions = set()
        self.routing = RoutingService(self.topology)
        return capacities

    def _require_deployed(self) -> None:
        """Raise when the strategy has not been bound, so nothing is deployed.

        The one deployment guard, called on entry by the request entry
        points, the fault handlers and DynaSoRe's ticks — by the batch
        kernels once per run, never per event.
        """
        if self.routing is None:
            raise SimulationError("the placement has not been deployed yet")

    # -------------------------------------------------------------- execution
    @abstractmethod
    def execute_read(
        self, user: int, now: float, targets: tuple[int, ...] | None = None
    ) -> None:
        """Execute a read request: fetch the views of everyone ``user`` follows.

        ``targets`` overrides the target list (the public key-value API passes
        an explicit list, exactly like the paper's ``Read(u, L)``); when it is
        ``None`` the strategy reads the views of every user ``user`` follows
        in the bound social graph.
        """

    @abstractmethod
    def execute_write(self, user: int, now: float) -> None:
        """Execute a write request: update every replica of ``user``'s view."""

    def execute_request_batch(
        self,
        kinds: Sequence[int],
        users: Sequence[int],
        timestamps: Sequence[float],
    ) -> None:
        """Execute a time-ordered run of read/write requests.

        ``kinds`` holds one :data:`~repro.workload.stream.KIND_READ` /
        :data:`~repro.workload.stream.KIND_WRITE` code per event (the
        simulator passes a chunk's kind column as ``bytes``).  The default
        loops over the scalar entry points, so batch dispatch is
        semantically identical to per-event dispatch for every strategy.
        Columnar strategies override this with a fused kernel that hoists
        state lookups out of the loop and aggregates traffic accounting —
        still byte-identical, just faster.  Any other kind raises
        :class:`SimulationError` before an event runs.
        """
        require_request_kinds(kinds)
        execute_read = self.execute_read
        execute_write = self.execute_write
        for kind, user, now in zip(kinds, users, timestamps):
            if kind == KIND_READ:
                execute_read(user, now)
            else:
                execute_write(user, now)

    def execute_read_batch(
        self, users: Sequence[int], timestamps: Sequence[float]
    ) -> None:
        """Execute a time-ordered run of read requests (one-kind batch)."""
        self.execute_request_batch(_READ_KINDS * len(users), users, timestamps)

    def on_tick(self, now: float) -> None:
        """Periodic maintenance hook (counter rotation, thresholds, eviction)."""

    def on_edge_added(self, follower: int, followee: int, now: float) -> None:
        """The social graph gained an edge (already applied to ``self.graph``)."""

    def on_edge_removed(self, follower: int, followee: int, now: float) -> None:
        """The social graph lost an edge (already applied to ``self.graph``)."""

    # ------------------------------------------------------------------ faults
    def on_server_down(
        self, position: int, now: float, graceful: bool = False
    ) -> RecoveryPlan:
        """A storage server left the cluster; evacuate and re-place its views.

        ``graceful=False`` models a crash: the server's memory is gone, and
        views without a surviving replica must be re-fetched from the
        persistent store (the returned plan's ``recoverable_from_disk``).
        ``graceful=True`` models a planned drain: views are copied out over
        the network before shutdown, so nothing touches the disk.

        Strategies that cannot survive failures keep this default, which
        refuses the event with a clear error.
        """
        raise SimulationError(
            f"strategy {self.name!r} does not support server failures"
        )

    def on_server_up(self, position: int, now: float) -> None:
        """A previously departed server rejoined (with empty memory)."""
        raise SimulationError(
            f"strategy {self.name!r} does not support server recovery"
        )

    def _begin_server_down(self, position: int) -> None:
        """Shared guard of every ``on_server_down``: refuse an undeployed
        placement, validate the position and register it.

        At least one server must stay in service — the cluster can shrink,
        never vanish.
        """
        self._check_position(position)
        down_positions = self._down_positions
        if position in down_positions:
            raise SimulationError(f"server position {position} is already down")
        if len(down_positions) + 1 >= len(self._device_of_position):
            raise SimulationError("cannot take down the last available server")
        down_positions.add(position)

    def _begin_server_up(self, position: int) -> None:
        """Shared guard of every ``on_server_up``: refuse an undeployed
        placement, validate the position and deregister it."""
        self._check_position(position)
        if position not in self._down_positions:
            raise SimulationError(f"server position {position} is not down")
        self._down_positions.discard(position)

    def _check_position(self, position: int) -> None:
        """Refuse an undeployed placement or a position outside the cluster."""
        self._require_deployed()
        if not 0 <= position < len(self._device_of_position):
            raise SimulationError(f"invalid server position {position}")

    def position_available(self, position: int) -> bool:
        """True when the storage server at ``position`` is in service (the
        down set is the one record of availability; the simulator's
        ``server_up`` reads it)."""
        return position not in self._down_positions

    # ------------------------------------------------------------ introspection
    # Every figure is read off the table's counters and chains; before
    # deployment the empty table answers (0, ``{}``, 0.0, ``False``).
    def replica_locations(self) -> dict[int, set[int]]:
        """Map of every user to the *leaf device indices* storing her view."""
        table = self.tables
        device_of_position = self._device_of_position
        return {
            user: {device_of_position[p] for p in table.user_positions(user)}
            for user in table.users()
        }

    def replica_count(self, user: int) -> int:
        """Number of replicas of one user's view."""
        return self.tables.user_replica_count(user)

    def total_replicas(self) -> int:
        """Total number of replicas stored in the cluster."""
        return self.tables.active_count

    def memory_in_use(self) -> int:
        """Total view slots in use (equals :meth:`total_replicas`)."""
        return self.tables.active_count

    def has_any_replica(self, user: int) -> bool:
        """Whether ``user``'s view is stored anywhere (the simulator's
        end-of-run audit asks this for every graph user)."""
        return self.tables.has_user(user)

    def replication_factor(self) -> float:
        """Average number of replicas per stored view (0.0 when none is)."""
        views = len(self.tables.users())
        return self.tables.active_count / views if views else 0.0

    def device_of_position(self, position: int) -> int:
        """Leaf device index of the ``position``-th storage server."""
        return self._device_of_position[position]


class _Memo(dict):
    """``key -> value``, built by the strategy on first use.

    ``dict.__getitem__`` calls :meth:`__missing__` from C, so the kernel's
    ``map(memo.__getitem__, ...)`` stays a C loop that only re-enters Python
    at a key's first occurrence since it was last dropped.
    """

    __slots__ = ("_build",)

    def __init__(self, build: Callable[[Hashable], object]) -> None:
        super().__init__()
        self._build = build

    def __missing__(self, key: Hashable) -> object:
        value = self[key] = self._build(key)
        return value


class StaticPlacementStrategy(PlacementStrategy):
    """A strategy whose placement changes only on graph and fault events.

    Random, METIS and hMETIS store exactly one replica per view, never move
    it during the run, and deploy both proxies of a user on the broker
    associated with the server holding her view (paper section 4.1); SPAR
    (:class:`~repro.baselines.spar.SparPlacement`) is the same placement
    plus co-located copies.  ``initializer`` is resolved as DynaSoRe's is
    (:class:`PlacementStrategy`), and its name names the strategy.  Every
    initial graph user gets a *master* replica at the position it gives
    (:meth:`compute_assignment`, fitted to capacity); later arrivals are
    placed lazily on the least-loaded server.  Only edge events (SPAR) and
    server departures move a view.

    Placement lives in the base's table, deployed statistics-free (its
    ``used`` counters are the per-position loads), plus a ``user -> master
    position`` map.  Reads go to the closest replica of each target view;
    writes update every replica of the written view.

    Between two graph or fault events a request is a fixed *traffic
    footprint* of its issuer — the ``(broker, device)`` path of every
    roundtrip it causes — so a run of requests is **counted**, not
    executed: :meth:`footprint` builds it, memoised footprints are dropped
    where they go stale (:meth:`_drop_footprints`);
    :meth:`execute_request_batch` tallies *request keys* and books the one
    per-bucket quantity, the top-switch series; :meth:`_settle` multiplies
    the tally into per-path counts — when a tallied footprint is dropped
    and when anything reads the accountant — so a switch path is walked
    once per settle, not once per hour.

    A request key is the int ``2 * user + kind`` (kinds are 0 and 1; the
    memo decodes ``key & 1, key >> 1``), built per segment at C speed, so
    the memo, the top-crossing counts and the tally are dicts over ints.
    Path keys come from the *key rows* :meth:`_reset_footprints` builds —
    one list per proxy broker, ``row[device] == broker * stride + device``
    (the accountant's flat path key), and the same int objects gathered by
    server position — so every footprint is a C-level gather of shared
    ints.  It is exact because

    * the tally pulls requests in stream order, in one pass over reads and
      writes alike, so a footprint is built at the first occurrence of its
      key and the lazy placements it triggers (``footprint`` places users
      exactly as ``execute_read`` / ``execute_write`` do) happen in the
      per-event order;
    * whatever a memoised footprint read changes only at events that end a
      run — edge mutations (:meth:`on_edge_added`, :meth:`on_edge_removed`)
      and faults — and the footprints concerned are settled, then dropped,
      there.  Placing a *new* user never stales anything: every user a
      memoised footprint mentions was placed when it was built;
    * accounting segments are cut with the accountant's own predicate
      (:meth:`~repro.traffic.accounting.RoundtripRun.segment_end`), and all
      volumes are integer-valued floats, so per-device totals are plain
      sums that need no time axis and tally order is immaterial.

    Requests are pure measurements here, so the sharded runner may partition
    the request stream (lazy placement only fires for users *outside* the
    initial graph, which the shard workers' closed-universe guard excludes).

    Memory: a read footprint holds one pointer per followed edge and a
    write footprint one per replica, into the key rows (``brokers * stride``
    int objects, shared by all footprints); a tallied request adds one
    counter and one top-crossing count, each keyed by one int.
    """

    shard_requests_pure = True

    def __init__(self, initializer: str | InitialAssignment = "random", seed: int = 7) -> None:
        super().__init__(initializer, seed)
        self.name = self.initializer_name
        #: user -> server position of the master replica (0 .. servers - 1)
        self._master: dict[int, int] = {}
        #: ``request key -> footprint`` memo, and how many of a footprint's
        #: roundtrips cross the top switch (dropped together)
        self._footprints = _Memo(lambda request: self.footprint(request & 1, request >> 1))
        self._top_crossings = _Memo(
            lambda request: sum(map(self._crosses_top.__getitem__, self._footprints[request]))
        )
        #: proxy broker -> its key row (the only place path keys are made),
        #: and per position its proxy broker's row gathered by position
        self._key_rows: dict[int, list[int]] = {}
        self._position_key_rows: list[list[int]] = []
        #: whether each path key crosses the top switch
        self._crosses_top = _Memo(
            lambda key: self.accountant.crosses_top(*divmod(key, self._segments.stride))
        )
        #: ``request key -> measured requests`` since the last settle
        self._tally: Counter[int] = Counter()
        #: segment cutter (set when the placement is deployed)
        self._segments = None

    def _reset_footprints(self) -> None:
        """(Re)build the kernel state; call once the table is deployed."""
        self._segments = self.accountant.roundtrip_run(*_READ_ROUNDTRIP)
        self.accountant.on_settle(self._settle)
        stride = self._segments.stride
        self._key_rows = {
            broker: list(range(broker * stride, (broker + 1) * stride))
            for broker in set(self._broker_of_position)
        }
        by_position = {
            broker: list(map(row.__getitem__, self._device_of_position))
            for broker, row in self._key_rows.items()
        }
        self._position_key_rows = [by_position[broker] for broker in self._broker_of_position]
        self._crosses_top.clear()
        self._drop_footprints()

    def _footprint_of(self, broker: int, devices: Iterable[int]) -> Footprint:
        """Keys of roundtrips from ``broker`` to each of ``devices``, taken
        from the broker's key row (``broker * stride + device``)."""
        return tuple(map(self._key_rows[broker].__getitem__, devices))

    def execute_request_batch(
        self,
        kinds: Sequence[int],
        users: Sequence[int],
        timestamps: Sequence[float],
    ) -> None:
        """Count the run's requests; footprints are multiplied at the settle."""
        self._require_deployed()
        require_request_kinds(kinds)
        segments = self._segments
        accountant = self.accountant
        measure_from = accountant.measure_from
        double = (2).__mul__
        start = 0
        end = len(timestamps)
        while start < end:
            # One accounting segment: same warm-up side, same time bucket.
            # Both branches touch the footprints in stream order.
            cut = segments.segment_end(timestamps, start, end)
            requests = list(map(add, map(double, users[start:cut]), kinds[start:cut]))
            if timestamps[start] < measure_from:
                footprints = map(self._footprints.__getitem__, requests)
                accountant.count_messages(2 * sum(map(len, footprints)))
            else:
                accountant.record_top_crossings(
                    sum(map(self._top_crossings.__getitem__, requests)),
                    *_READ_ROUNDTRIP,
                    int(timestamps[start] // accountant.bucket_width),
                )
                self._tally.update(requests)
            start = cut

    def _settle(self, requests: Iterable[int] | None = None) -> None:
        """Multiply the tally of ``requests`` (default: all) into per-path
        counts and record them; their footprints must still be memoised."""
        tally = self._tally
        if not tally:
            return
        reads: dict[int, int] = {}
        writes: dict[int, int] = {}
        for request in list(tally) if requests is None else requests:
            count = tally.pop(request, 0)
            if count:
                paths = writes if request & 1 else reads
                for key in self._footprints[request]:
                    paths[key] = paths.get(key, 0) + count
        for paths, roundtrip in ((reads, _READ_ROUNDTRIP), (writes, _WRITE_ROUNDTRIP)):
            if paths:
                self.accountant.record_roundtrip_batch(paths, *roundtrip, None)

    def _drop_footprints(self, requests: Iterable[int] | None = None) -> None:
        """Forget the footprints of ``requests`` (default: all) — after
        settling what was tallied against them."""
        self._settle(requests)
        if requests is None:
            self._footprints.clear()
            self._top_crossings.clear()
        else:
            for request in requests:
                self._footprints.pop(request, None)
                self._top_crossings.pop(request, None)

    def on_edge_added(self, follower: int, followee: int, now: float) -> None:
        """Drop the read footprints the new edge stales: the follower's
        (one more target) and the followee's — she may just have become a
        graph user, which turns her ``()`` into a placement."""
        self._drop_footprints([2 * follower + KIND_READ, 2 * followee + KIND_READ])

    def on_edge_removed(self, follower: int, followee: int, now: float) -> None:
        """Drop the follower's read footprint (one target fewer)."""
        self._drop_footprints([2 * follower + KIND_READ])

    # ----------------------------------------------------------- assignment
    def compute_assignment(self) -> dict[int, int]:
        """The initializer's user → server-position assignment for the
        bound graph."""
        return self._initializer(self.graph, self.topology, self.seed)

    def build_initial_placement(self) -> None:
        table = ReplicaTable(positions=len(self.topology.servers), with_stats=False)
        self._master = self._deploy_assignment(table, self.compute_assignment())
        self._reset_footprints()

    def assignment(self) -> dict[int, int]:
        """Copy of the user → master-position assignment."""
        return dict(self._master)

    def server_position_of(self, user: int) -> int:
        """Server position of a user's master replica, placing it lazily for
        users that joined after the initial placement."""
        position = self._master.get(user)
        if position is None:
            position = self._place_master(user)
        return position

    def _place_master(self, user: int) -> int:
        """Put the user's master replica on the least-loaded survivor."""
        position = pick_least_loaded(self.tables.used, self._down_positions)
        if position is None:
            raise SimulationError("no storage server is available")
        self._master[user] = position
        self.tables.allocate(user, position)
        return position

    # ---------------------------------------------------------------- faults
    def on_server_down(
        self, position: int, now: float, graceful: bool = False
    ) -> RecoveryPlan:
        """Evacuate a departed server.

        Masters with a surviving copy are promoted in place (fast path, the
        data is already in memory); masters without one are re-created on
        the least-loaded survivor — after a crash from the persistent store
        (the new host's rack broker fetches the view with a
        :data:`REPLICA_COPY` message), on a graceful drain by direct copy
        from the leaving server.  Lost co-located copies are dropped.
        """
        self._begin_server_down(position)
        table = self.tables

        plan = RecoveryPlan(crashed_server=position)
        source_device = self._device_of_position[position]
        affected = set(table.users_at(position))
        for user, master in self._master.items():
            if user not in affected:
                continue
            table.free(table.slot_of(user, position))
            if master != position:
                continue  # a lost co-located copy; the master survives
            remaining = table.user_positions(user)
            if remaining:
                # Promote the surviving replica at the lowest position.
                self._master[user] = min(remaining)
                plan.recoverable_from_memory.append(user)
                continue
            target = self._place_master(user)
            target_device = self._device_of_position[target]
            if graceful:
                plan.recoverable_from_memory.append(user)
                source = source_device
            else:
                plan.recoverable_from_disk.append(user)
                source = self._broker_of_position[target]
            self.accountant.record(
                source, target_device, MessageKind.REPLICA_COPY, now
            )
        self._drop_footprints()  # views moved: every footprint is stale
        return plan

    def on_server_up(self, position: int, now: float) -> None:
        """The server rejoins empty; only new placements refill it."""
        self._begin_server_up(position)

    # -------------------------------------------------------------- proxies
    def proxy_broker(self, user: int) -> int:
        """Broker hosting both proxies of a user (rack of her master)."""
        return self._broker_of_position[self.server_position_of(user)]

    # ------------------------------------------------------------ execution
    def execute_read(
        self, user: int, now: float, targets: tuple[int, ...] | None = None
    ) -> None:
        self._require_deployed()
        if targets is None:
            if not self.graph.has_user(user):
                return
            targets = tuple(self.graph.following(user))
        broker = self.proxy_broker(user)
        for target in targets:
            self.server_position_of(target)
            replicas = {self._device_of_position[p] for p in self.tables.user_positions(target)}
            server = self.routing.closest_replica(broker, replicas)
            self.accountant.record_roundtrip(
                broker, server, MessageKind.READ_REQUEST, MessageKind.READ_RESPONSE, now
            )

    def execute_write(self, user: int, now: float) -> None:
        self._require_deployed()
        broker = self.proxy_broker(user)
        self.server_position_of(user)
        for position in self.tables.user_positions(user):
            self.accountant.record_roundtrip(
                broker,
                self._device_of_position[position],
                MessageKind.WRITE_UPDATE,
                MessageKind.WRITE_ACK,
                now,
            )

    def footprint(self, kind: int, user: int) -> Footprint:
        """Flat path keys of the roundtrips one request of ``user`` causes.

        From the broker of the user's master rack: a read reaches each
        followee's view (:meth:`_read_footprint`), a write every replica of
        her own.  Keys are gathered from the key rows — by server position
        from ``_position_key_rows``, by device with :meth:`_footprint_of`.
        Users without a replica are placed lazily, in the order
        ``execute_read`` / ``execute_write`` would place them; a read by a
        user unknown to the graph is ``()``.
        """
        if kind == KIND_READ and not self.graph.has_user(user):
            return ()
        position = self.server_position_of(user)  # the issuer is placed first
        if kind == KIND_READ:
            return self._read_footprint(user, position)
        row = self._position_key_rows[position]
        return tuple(map(row.__getitem__, self.tables.user_positions(user)))

    def _read_footprint(self, user: int, position: int) -> Footprint:
        """One roundtrip per followee to her master, the only replica a
        static strategy keeps: a C-level gather over the master map."""
        row = self._position_key_rows[position]
        following = self.graph.following(user)
        try:
            return tuple(map(row.__getitem__, map(self._master.__getitem__, following)))
        except KeyError:
            # A followee joined after the initial placement: place every
            # unassigned one in ``following`` order, as ``execute_read`` does.
            return tuple(row[self.server_position_of(t)] for t in following)


__all__ = ["PlacementStrategy", "StaticPlacementStrategy"]
