"""Struct-of-arrays placement state: flat replica and statistics tables.

This module is the storage substrate every placement layer shares since the
array-backed state refactor.  Instead of one ``ViewReplica`` object per
replica inside per-server dicts — plus per-user ``dict``/``set`` location
maps and a tree of ``AccessStatistics``/``RotatingCounter`` objects — all
placement-relevant state lives in a handful of flat, parallel columns
indexed by an integer **replica id** (a *slot*):

``ReplicaTable`` (one row per replica slot)
    ===============  ==========  ===================================================
    column           type        meaning
    ===============  ==========  ===================================================
    ``_user``        int64       user whose view this replica stores
    ``_server``      int64       storage-server *position* hosting it (-1 = free)
    ``_utility``     float64     cached utility (Algorithm 1), ``inf`` when sole
    ``_next_closest``int64       device of the next-closest sibling replica (-1 = sole)
    ``_user_next``   int64       next slot of the *same user* (also the free list)
    ``_srv_prev``    int64       previous slot in the *same position's* chain
    ``_srv_next``    int64       next slot in the *same position's* chain
    ===============  ==========  ===================================================

    The per-user and per-server indexes are CSR-in-spirit: instead of
    materialised offset arrays (which would need rebuilding under churn)
    each dimension keeps head pointers — ``_user_head`` (user id → first
    slot) and ``_srv_head``/``_srv_tail`` (position → chain ends) — and the
    rows chain through the link columns above.  Walking a chain touches
    only flat arrays; per-user chains are replication-factor short, and
    per-server chains preserve **insertion order** exactly like the dicts
    they replace (appends go to the tail, removals unlink in place), which
    the eviction tie-breaking relies on.

    Freed slots are recycled through a free list threaded through
    ``_user_next``; allocation therefore never shifts live rows, so a
    replica id stays valid from ``allocate`` until ``free`` — the
    *replica-id contract* that all seven strategies (through the one table
    :class:`~repro.baselines.base.PlacementStrategy` owns) and the
    simulator rely on.  Per-position occupancy lives in ``_used``/``_capacity``
    counters, making ``memory_in_use``/``server_utilisations`` O(1) reads.

``StatsTable`` (rotating access windows as numeric columns)
    The per-replica read/write statistics of the paper's Algorithms 1–3.
    Rotating windows are rows of a shared **counter-node pool**: flattened
    bucket columns (``_node_buckets``, stride = ``slots``), a running
    window total, the node's current rotation period and its origin label.
    A replica's per-origin read counters form a chain through
    ``_node_next`` in **first-record order** (the order Algorithm 2
    iterates candidate origins in), its write window is a single lazily
    allocated node, and freed nodes recycle through their own free list.
    The arithmetic is a verbatim port of
    :class:`~repro.store.counters.RotatingCounter`, so window totals are
    bit-for-bit identical to the object path.

    The buckets are ``array('f')``: 4 bytes a slot, 96 per 24-slot window.
    That is exact because every recorded amount is an integral count (the
    kernels add 1.0; seeding copies window totals) and float32 holds every
    integer below ``2**24``; no bucket exceeds its node's total, so keeping
    totals below that bound keeps every bucket exact.  ``_record`` refuses
    a fractional or negative amount, and :meth:`StatsTable.check_window_range`
    (run by every DynaSoRe tick, the end-of-run one included) raises once a
    total reaches the bound.  The totals stay doubles.

The object classes (:class:`~repro.store.view.ViewReplica`,
:class:`~repro.store.stats.AccessStatistics`) are the tables' references,
kept as test oracles.  The decision algorithms in :mod:`repro.core` take
the plain values they read (``reads_by_origin(slot)``,
``total_writes(slot)``, device indexes).
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
from array import array
from collections.abc import Iterator, Sequence
from operator import itemgetter

from ..constants import DEFAULT_COUNTER_PERIOD, DEFAULT_COUNTER_SLOTS
from ..exceptions import StorageError

#: Utility of a replica that must never be evicted (sole replica).
_INF = math.inf

#: First integer float32 cannot hold exactly: window totals must stay below
#: it for the ``array('f')`` buckets to be exact.
WINDOW_LIMIT = 2.0**24

#: Sentinel for "no slot / no node / no value" in the int64 link columns.
NO_SLOT = -1

#: Utility sort key of the eviction candidate scan.  Sorting the ``(utility,
#: slot)`` pairs on the utility *alone* keeps the sort stable on chain
#: insertion order — slot ids are recycled through the free list, so they
#: are not monotone in insertion order and must never act as a tie-breaker.
_UTILITY_KEY = itemgetter(0)


def check_tables_enabled() -> bool:
    """True when the ``REPRO_CHECK_TABLES`` environment flag is set.

    The one reader of the flag; any value but ``""``, ``0``, ``false``,
    ``no`` or ``off`` (case-insensitive) turns it on.  It enables the
    simulator's table audits after every run of ticks and every fault.
    """
    return os.environ.get("REPRO_CHECK_TABLES", "").strip().lower() not in (
        "",
        "0",
        "false",
        "no",
        "off",
    )


# ---------------------------------------------------------------------------
# Shared least-loaded helpers (deduplicated from the engine and baselines)
# ---------------------------------------------------------------------------
def pick_least_loaded(
    loads: Sequence[int],
    down: Sequence[int] | set[int] = (),
    capacities: Sequence[int] | None = None,
    skip_full: bool = False,
) -> int | None:
    """Least-loaded in-service position, ties broken on the position index.

    With ``capacities`` the key is the memory *utilisation* (``load /
    capacity``; an empty zero-capacity server counts as 0.0, a non-empty one
    as 1.0);
    without, the key is the absolute load.  ``skip_full`` additionally
    requires a free slot.  This is the single implementation behind the
    engine's recovery/new-user targeting and the static/SPAR baselines'
    placement, which each used to carry their own copy.
    """
    best = None
    best_key: tuple[float, int] | None = None
    for position in range(len(loads)):
        if position in down:
            continue
        load = loads[position]
        if capacities is not None:
            capacity = capacities[position]
            if skip_full and load >= capacity:
                continue
            if capacity > 0:
                key_load = load / capacity
            else:
                key_load = 1.0 if load else 0.0
        else:
            if skip_full:
                raise StorageError("skip_full requires capacities")
            key_load = load
        key = (key_load, position)
        if best_key is None or key < best_key:
            best = position
            best_key = key
    return best


def rank_by_utilisation(
    positions: Sequence[int], loads: Sequence[int], capacities: Sequence[int]
) -> tuple[int, ...]:
    """Positions with a free slot, least utilised first (ties on position).

    The ranking the engine caches per origin between occupancy changes;
    replica creation never evicts on the spot, so full servers are skipped.
    """
    ranked: list[tuple[float, int]] = []
    for position in positions:
        capacity = capacities[position]
        used = loads[position]
        if used < capacity:
            ranked.append((used / capacity, position))
    ranked.sort()
    return tuple(position for _, position in ranked)


# ---------------------------------------------------------------------------
# StatsTable: rotating access windows as numeric columns
# ---------------------------------------------------------------------------
class StatsTable:
    """Per-slot access statistics stored as flat counter-node columns.

    See the module docstring for the layout.  All mutation entry points
    mirror :class:`~repro.store.stats.AccessStatistics` one-to-one; window
    arithmetic is a verbatim port of
    :class:`~repro.store.counters.RotatingCounter`.
    """

    __slots__ = (
        "slots",
        "period",
        "_read_head",
        "_write_node",
        "_node_origin",
        "_node_next",
        "_node_period",
        "_node_total",
        "_node_buckets",
        "_zero_window",
        "_node_alloc",
        "_node_free",
        "_node_count",
    )

    def __init__(
        self,
        slots: int = DEFAULT_COUNTER_SLOTS,
        period: float = DEFAULT_COUNTER_PERIOD,
    ) -> None:
        if slots < 1:
            raise StorageError("a rotating counter needs at least one slot")
        if period <= 0:
            raise StorageError("the rotation period must be positive")
        self.slots = slots
        self.period = period
        # Per replica-slot columns (kept in lockstep with the ReplicaTable).
        # Plain lists, not ``array``: the hot path reads these once per
        # event, and list indexing avoids re-boxing the value every access.
        self._read_head: list[int] = []
        self._write_node: list[int] = []
        # Counter-node pool: one row per rotating window.  The bucket matrix
        # is an ``array('f')`` — it is the bulk of the statistics memory
        # (``slots`` floats per window) and holds integral counts below
        # ``WINDOW_LIMIT``, which float32 stores exactly (module docstring).
        self._node_origin: list[int] = []
        self._node_next: list[int] = []
        self._node_period: list[int] = []
        self._node_total: list[float] = []
        self._node_buckets = array("f")
        #: one all-zero window, slice-assigned over a node's buckets to clear them
        self._zero_window = array("f", bytes(4 * slots))
        # Allocation bitmap of the node pool: pool sweeps must skip free
        # nodes (their windows are zeroed, and ``_alloc_node`` re-stamps the
        # period on reuse, so touching them is pure waste).
        self._node_alloc = bytearray()
        self._node_free = NO_SLOT
        self._node_count = 0

    # ------------------------------------------------------------- lifecycle
    def append_slot(self) -> None:
        """Grow the per-slot columns by one fresh row."""
        self._read_head.append(NO_SLOT)
        self._write_node.append(NO_SLOT)

    def reset_slot(self, slot: int) -> None:
        """Return a slot's counter nodes to the pool and zero its state."""
        node = self._read_head[slot]
        nnext = self._node_next
        while node != NO_SLOT:
            following = nnext[node]
            self._free_node(node)
            node = following
        self._read_head[slot] = NO_SLOT
        write_node = self._write_node[slot]
        if write_node != NO_SLOT:
            self._free_node(write_node)
            self._write_node[slot] = NO_SLOT

    def move_slot(self, source: int, target: int) -> None:
        """Transfer all statistics of ``source`` onto the fresh ``target``.

        The graceful-drain path: a replica keeps its access history when it
        is copied off a leaving server.  ``target`` must be freshly
        allocated (no counters of its own yet).
        """
        if self._read_head[target] != NO_SLOT or self._write_node[target] != NO_SLOT:
            raise StorageError("cannot move statistics onto a used slot")
        self._read_head[target] = self._read_head[source]
        self._write_node[target] = self._write_node[source]
        self._read_head[source] = NO_SLOT
        self._write_node[source] = NO_SLOT

    # ----------------------------------------------------------- node pool
    def _alloc_node(self, origin: int, period_index: int) -> int:
        node = self._node_free
        if node != NO_SLOT:
            self._node_free = self._node_next[node]
        else:
            node = len(self._node_origin)
            self._node_origin.append(0)
            self._node_next.append(NO_SLOT)
            self._node_period.append(0)
            self._node_total.append(0.0)
            self._node_buckets.extend(self._zero_window)
            self._node_alloc.append(0)
        self._node_alloc[node] = 1
        self._node_origin[node] = origin
        self._node_next[node] = NO_SLOT
        self._node_period[node] = period_index
        self._node_total[node] = 0.0
        self._node_count += 1
        return node

    def _free_node(self, node: int) -> None:
        # Zero the window now so recycled nodes start clean (amounts are
        # non-negative, so a zero total means every bucket already is zero).
        if self._node_total[node]:
            base = node * self.slots
            self._node_buckets[base : base + self.slots] = self._zero_window
            self._node_total[node] = 0.0
        self._node_alloc[node] = 0
        self._node_next[node] = self._node_free
        self._node_free = node
        self._node_count -= 1

    # -------------------------------------------------- window arithmetic
    def _advance_node(self, node: int, period_index: int) -> None:
        """Port of ``RotatingCounter.advance`` on the flat columns."""
        current = self._node_period[node]
        if period_index <= current:
            return
        total = self._node_total[node]
        # Amounts are non-negative, so a zero window total means every
        # bucket is already zero — only the period needs stamping.
        if total:
            slots = self.slots
            base = node * slots
            elapsed = period_index - current
            if elapsed >= slots:
                self._node_buckets[base : base + slots] = self._zero_window
                total = 0.0
            else:
                buckets = self._node_buckets
                for step in range(1, elapsed + 1):
                    index = base + (current + step) % slots
                    total -= buckets[index]
                    buckets[index] = 0.0
            self._node_total[node] = total
        self._node_period[node] = period_index

    def _record(self, node: int, timestamp: float, amount: float) -> None:
        """Port of ``RotatingCounter.record`` on the flat columns.

        Only non-negative integral amounts are accepted: the float32
        buckets are exact for counts alone (module docstring).
        """
        if not (amount >= 0 and amount % 1 == 0):
            raise StorageError(
                f"window amounts must be non-negative integers, got {amount!r}"
            )
        period_index = int(timestamp // self.period)
        if period_index > self._node_period[node]:
            self._advance_node(node, period_index)
        self._node_buckets[node * self.slots + self._node_period[node] % self.slots] += amount
        self._node_total[node] += amount

    # ------------------------------------------------------------ recording
    def record_read(self, slot: int, origin: int, timestamp: float, amount: float = 1.0) -> None:
        """Record a read of ``slot``'s view coming from ``origin``."""
        node = self._read_head[slot]
        nnext = self._node_next
        norigin = self._node_origin
        last = NO_SLOT
        while node != NO_SLOT:
            if norigin[node] == origin:
                break
            last = node
            node = nnext[node]
        if node == NO_SLOT:
            # New origins start their window at the first read's timestamp,
            # appended at the tail so first-record order is preserved.
            node = self._alloc_node(origin, int(timestamp // self.period))
            if last == NO_SLOT:
                self._read_head[slot] = node
            else:
                nnext[last] = node
        self._record(node, timestamp, amount)

    def record_write(self, slot: int, timestamp: float, amount: float = 1.0) -> None:
        """Record a write (writes always come from the view's write proxy)."""
        node = self._write_node[slot]
        if node == NO_SLOT:
            # Write windows are allocated lazily; period 0 matches the
            # object path, whose write counter is created at time 0.
            node = self._alloc_node(NO_SLOT, 0)
            self._write_node[slot] = node
        self._record(node, timestamp, amount)

    def advance_slot(self, slot: int, timestamp: float) -> None:
        """Rotate every window of ``slot`` so it is current with ``timestamp``."""
        period_index = int(timestamp // self.period)
        node = self._read_head[slot]
        nnext = self._node_next
        while node != NO_SLOT:
            self._advance_node(node, period_index)
            node = nnext[node]
        write_node = self._write_node[slot]
        if write_node != NO_SLOT:
            self._advance_node(write_node, period_index)

    def advance_pool(self, timestamp: float) -> None:
        """Column sweep: rotate **every** window in the pool to ``timestamp``.

        The maintenance tick's replacement for per-replica ``advance``
        calls: one flat pass over the node columns, no chain walks.  Free
        nodes are skipped through the allocation bitmap — their windows are
        zeroed on recycling and ``_alloc_node`` re-stamps the period on
        reuse, so even stamping them here would be wasted work.
        """
        period_index = int(timestamp // self.period)
        nalloc = self._node_alloc
        advance = self._advance_node
        for node in range(len(nalloc)):
            if nalloc[node]:
                advance(node, period_index)

    def check_window_range(self) -> None:
        """Raise once any window total reaches :data:`WINDOW_LIMIT`.

        Past that bound the float32 buckets would round; one C-level
        ``max`` over the totals covers every bucket (no bucket exceeds its
        node's total).
        """
        totals = self._node_total
        if totals and max(totals) >= WINDOW_LIMIT:
            raise StorageError(
                f"a statistics window total reached {max(totals):.0f}; the "
                f"float32 buckets are exact only below {WINDOW_LIMIT:.0f}"
            )

    # -------------------------------------------------------------- queries
    def reads_by_origin(self, slot: int) -> dict[int, float]:
        """Window read totals keyed by origin, in first-record order.

        A fresh dict on every call, built off the node columns (origins
        whose window is empty are left out); callers may keep or mutate it.
        """
        origins: dict[int, float] = {}
        node = self._read_head[slot]
        nnext = self._node_next
        norigin = self._node_origin
        ntotal = self._node_total
        while node != NO_SLOT:
            total = ntotal[node]
            if total > 0:
                origins[norigin[node]] = total
            node = nnext[node]
        return origins

    def total_reads(self, slot: int) -> float:
        """Total window reads of ``slot``, all origins combined."""
        total = 0.0
        node = self._read_head[slot]
        while node != NO_SLOT:
            total += self._node_total[node]
            node = self._node_next[node]
        return total

    def total_writes(self, slot: int) -> float:
        """Total window writes of ``slot``."""
        node = self._write_node[slot]
        return self._node_total[node] if node != NO_SLOT else 0.0

    def reads_from(self, slot: int, origin: int) -> float:
        """Window reads of ``slot`` recorded from one origin."""
        node = self._read_head[slot]
        while node != NO_SLOT:
            if self._node_origin[node] == origin:
                return self._node_total[node]
            node = self._node_next[node]
        return 0.0

    # ----------------------------------------------- object-path interop
    def export(self, slot: int):
        """Materialise ``slot``'s statistics as a standalone object copy."""
        from .counters import RotatingCounter
        from .stats import AccessStatistics

        stats = AccessStatistics(self.slots, self.period)
        node = self._read_head[slot]
        while node != NO_SLOT:
            stats._reads[self._node_origin[node]] = self._export_counter(node, RotatingCounter)
            node = self._node_next[node]
        write_node = self._write_node[slot]
        if write_node != NO_SLOT:
            stats._writes = self._export_counter(write_node, RotatingCounter)
        return stats

    def _export_counter(self, node: int, counter_class):
        counter = counter_class(self.slots, self.period)
        base = node * self.slots
        counter._buckets = list(self._node_buckets[base : base + self.slots])
        counter._current_period = self._node_period[node]
        counter._total = self._node_total[node]
        return counter

    # ----------------------------------------------------------------- digest
    def state_digest(self) -> str:
        """Order-insensitive sha256 of every slot's logical statistics.

        The sharded runner's cross-worker consistency audit: workers that
        replayed the same decision-plane history must produce equal digests.
        Covers, per slot, the read counters keyed by origin (period, total,
        bucket windows) and the write counter — but *not* node ids or free-list layout, which depend on allocation
        history rather than logical content.
        """
        hasher = hashlib.sha256()
        slots = self.slots
        buckets = self._node_buckets
        for slot in range(len(self._read_head)):
            reads = []
            node = self._read_head[slot]
            while node != NO_SLOT:
                base = node * slots
                reads.append(
                    (
                        self._node_origin[node],
                        self._node_period[node],
                        self._node_total[node],
                        tuple(buckets[base : base + slots]),
                    )
                )
                node = self._node_next[node]
            reads.sort()
            write_node = self._write_node[slot]
            if write_node == NO_SLOT:
                writes = None
            else:
                base = write_node * slots
                writes = (
                    self._node_period[write_node],
                    self._node_total[write_node],
                    tuple(buckets[base : base + slots]),
                )
            hasher.update(
                repr((slot, reads, writes)).encode()
            )
        return hasher.hexdigest()


# ---------------------------------------------------------------------------
# ReplicaTable: the flat placement-state table
# ---------------------------------------------------------------------------
class ReplicaTable:
    """Flat replica-slot table with per-user and per-server chain indexes.

    See the module docstring for the column layout and the replica-id
    contract.  ``with_stats=False`` builds a table without the statistics
    columns: the static baselines and SPAR track placement only.
    """

    def __init__(
        self,
        positions: int = 0,
        counter_slots: int = DEFAULT_COUNTER_SLOTS,
        counter_period: float = DEFAULT_COUNTER_PERIOD,
        with_stats: bool = True,
    ) -> None:
        # Slot columns.  Plain lists: every hot path indexes these several
        # times per event, and list indexing returns the stored object
        # without re-boxing (an ``array`` materialises a fresh int per
        # read).  The referenced ints are shared with the social graph and
        # the user index, so the per-slot cost stays one machine word.
        self._user: list[int] = []
        self._server: list[int] = []
        self._utility: list[float] = []
        self._next_closest: list[int] = []
        self._user_next: list[int] = []  # doubles as the free-list link
        self._srv_prev: list[int] = []
        self._srv_next: list[int] = []
        # Per-user index: user id -> head slot (insertion order of this dict
        # is first-placement order, which replica_locations() preserves).
        self._user_head: dict[int, int] = {}
        # Per-position index and counters.
        self._srv_head: list[int] = [NO_SLOT] * positions
        self._srv_tail: list[int] = [NO_SLOT] * positions
        self._used: list[int] = [0] * positions
        self._capacity: list[int] = [0] * positions
        self._admission: list[float] = [0.0] * positions
        # Reusable scratch heap of the admission-threshold top-k selection.
        self._threshold_scratch: list[float] = []
        self._free_head = NO_SLOT
        self._active = 0
        self.stats: StatsTable | None = (
            StatsTable(counter_slots, counter_period) if with_stats else None
        )

    # ------------------------------------------------------------ positions
    @property
    def num_positions(self) -> int:
        """Number of storage-server positions the table spans."""
        return len(self._srv_head)

    def set_capacity(self, position: int, capacity: int) -> None:
        """Set the nominal capacity of a position (0 while it is down)."""
        if capacity < 0:
            raise StorageError("server capacity cannot be negative")
        self._capacity[position] = capacity

    def capacity_of(self, position: int) -> int:
        """Nominal capacity of a position in views."""
        return self._capacity[position]

    def used_of(self, position: int) -> int:
        """Replicas currently stored at a position (O(1) counter)."""
        return self._used[position]

    @property
    def used(self) -> list[int]:
        """Per-position occupancy counters (read-only by convention)."""
        return self._used

    @property
    def capacities(self) -> list[int]:
        """Per-position capacities (read-only by convention)."""
        return self._capacity

    @property
    def admission_thresholds(self) -> list[float]:
        """Per-position admission thresholds (read-only by convention)."""
        return self._admission

    @property
    def active_count(self) -> int:
        """Total live replicas across every position (O(1))."""
        return self._active

    # ------------------------------------------------------------ allocation
    def allocate(self, user: int, position: int) -> int:
        """Create a replica of ``user``'s view at ``position``; returns its slot.

        Capacity is *not* enforced here — admission policy belongs to the
        callers (the engine allows controlled overflow during recovery).
        """
        slot = self._free_head
        if slot != NO_SLOT:
            self._free_head = self._user_next[slot]
            self._user[slot] = user
            self._server[slot] = position
            self._utility[slot] = 0.0
            self._next_closest[slot] = NO_SLOT
            self._user_next[slot] = NO_SLOT
        else:
            slot = len(self._user)
            self._user.append(user)
            self._server.append(position)
            self._utility.append(0.0)
            self._next_closest.append(NO_SLOT)
            self._user_next.append(NO_SLOT)
            self._srv_prev.append(NO_SLOT)
            self._srv_next.append(NO_SLOT)
            if self.stats is not None:
                self.stats.append_slot()
        # Link at the tail of the user chain.
        head = self._user_head.get(user, NO_SLOT)
        if head == NO_SLOT:
            self._user_head[user] = slot
        else:
            while self._user_next[head] != NO_SLOT:
                head = self._user_next[head]
            self._user_next[head] = slot
        # Link at the tail of the position chain (insertion order).
        tail = self._srv_tail[position]
        self._srv_prev[slot] = tail
        self._srv_next[slot] = NO_SLOT
        if tail == NO_SLOT:
            self._srv_head[position] = slot
        else:
            self._srv_next[tail] = slot
        self._srv_tail[position] = slot
        self._used[position] += 1
        self._active += 1
        return slot

    def detach(self, slot: int) -> None:
        """Unlink a slot from both indexes without recycling it yet.

        The evacuation path detaches first so the slot's statistics stay
        readable while the replica is re-homed, then calls :meth:`release`.
        """
        user = self._user[slot]
        position = self._server[slot]
        # User chain.
        head = self._user_head[user]
        if head == slot:
            following = self._user_next[slot]
            if following == NO_SLOT:
                del self._user_head[user]
            else:
                self._user_head[user] = following
        else:
            previous = head
            while self._user_next[previous] != slot:
                previous = self._user_next[previous]
            self._user_next[previous] = self._user_next[slot]
        self._user_next[slot] = NO_SLOT
        # Position chain.
        previous, following = self._srv_prev[slot], self._srv_next[slot]
        if previous == NO_SLOT:
            self._srv_head[position] = following
        else:
            self._srv_next[previous] = following
        if following == NO_SLOT:
            self._srv_tail[position] = previous
        else:
            self._srv_prev[following] = previous
        self._srv_prev[slot] = NO_SLOT
        self._srv_next[slot] = NO_SLOT
        self._used[position] -= 1
        self._active -= 1

    def release(self, slot: int) -> None:
        """Recycle a detached slot through the free list."""
        if self.stats is not None:
            self.stats.reset_slot(slot)
        self._server[slot] = NO_SLOT
        self._user_next[slot] = self._free_head
        self._free_head = slot

    def free(self, slot: int) -> None:
        """Remove a replica: detach from the indexes and recycle the slot."""
        self.detach(slot)
        self.release(slot)

    # --------------------------------------------------------------- queries
    def user_of(self, slot: int) -> int:
        """User whose view the slot stores."""
        return self._user[slot]

    def position_of(self, slot: int) -> int:
        """Position hosting the slot (-1 when the slot is free)."""
        return self._server[slot]

    def has_user(self, user: int) -> bool:
        """True when at least one replica of the user's view exists."""
        return user in self._user_head

    def users(self):
        """Live users in first-placement order."""
        return self._user_head.keys()

    def user_slots(self, user: int) -> list[int]:
        """Slots of one user's replicas, placement order."""
        result: list[int] = []
        slot = self._user_head.get(user, NO_SLOT)
        user_next = self._user_next
        while slot != NO_SLOT:
            result.append(slot)
            slot = user_next[slot]
        return result

    def user_positions(self, user: int) -> tuple[int, ...]:
        """Positions storing the user's view, placement order."""
        result: list[int] = []
        slot = self._user_head.get(user, NO_SLOT)
        user_next = self._user_next
        server = self._server
        while slot != NO_SLOT:
            result.append(server[slot])
            slot = user_next[slot]
        return tuple(result)

    def user_replica_count(self, user: int) -> int:
        """Number of replicas of one user's view."""
        count = 0
        slot = self._user_head.get(user, NO_SLOT)
        while slot != NO_SLOT:
            count += 1
            slot = self._user_next[slot]
        return count

    def slot_of(self, user: int, position: int) -> int | None:
        """Slot of the user's replica at ``position`` (None when absent)."""
        slot = self._user_head.get(user, NO_SLOT)
        while slot != NO_SLOT:
            if self._server[slot] == position:
                return slot
            slot = self._user_next[slot]
        return None

    def position_slots(self, position: int) -> list[int]:
        """Snapshot of a position's slots in insertion order."""
        result: list[int] = []
        slot = self._srv_head[position]
        while slot != NO_SLOT:
            result.append(slot)
            slot = self._srv_next[slot]
        return result

    def iter_position(self, position: int) -> Iterator[int]:
        """Iterate a position's slots in insertion order (no snapshot)."""
        slot = self._srv_head[position]
        while slot != NO_SLOT:
            yield slot
            slot = self._srv_next[slot]

    def users_at(self, position: int) -> list[int]:
        """Users with a replica at ``position``, insertion order."""
        return [self._user[slot] for slot in self.iter_position(position)]

    # ------------------------------------------------------ replica columns
    def effective_utility(self, slot: int) -> float:
        """Eviction utility: infinite for sole replicas."""
        if self._next_closest[slot] == NO_SLOT:
            return _INF
        return self._utility[slot]

    # ------------------------------------------------- thresholds/eviction
    def update_admission_threshold(self, position: int, admission_fill: float) -> float:
        """Recompute a position's admission threshold (paper section 3.2).

        The threshold is the utility of the replica sitting at the
        admission-fill boundary: the ``fill_slots``-th most useful replica
        of the position.  Instead of materialising and fully sorting every
        utility, the boundary value — the maximum of the ``used -
        fill_slots + 1`` *least* useful replicas — is selected in one chain
        pass over a reusable bounded heap (the admission fill factor keeps
        that heap at ~10% of the chain length).  Selection is value-
        identical to the historical sort-and-index implementation.
        """
        capacity = self._capacity[position]
        if capacity == 0:
            self._admission[position] = _INF
            return _INF
        fill_slots = int(admission_fill * capacity)
        used = self._used[position]
        if used <= fill_slots or fill_slots == 0:
            self._admission[position] = 0.0
            return 0.0
        # Max-heap (negated min-heap) of the (used - fill_slots + 1) lowest
        # effective utilities; its maximum is the boundary utility.
        heap = self._threshold_scratch
        heap.clear()
        keep = used - fill_slots + 1
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        slot = self._srv_head[position]
        srv_next = self._srv_next
        next_closest = self._next_closest
        utility = self._utility
        while slot != NO_SLOT:
            negated = -_INF if next_closest[slot] == NO_SLOT else -utility[slot]
            if len(heap) < keep:
                heappush(heap, negated)
            elif negated > heap[0]:
                heapreplace(heap, negated)
            slot = srv_next[slot]
        threshold = -heap[0]
        # Boundary on a sole replica: the infinite threshold collapses to
        # 0.0 (admit everything).  Nobody endorsed that reading of paper
        # section 3.2; it is what the seed implementation did, and it is a
        # candidate fidelity defect kept for ROADMAP item 3, step 3b.  What
        # pins it: ``test_admission_threshold_boundary_semantics`` (both
        # branches) and, in tests/golden_tables.json, the mem0/mem30
        # DynaSoRe crash cells and the ``fill=0.5,evict=0.8`` cells — no
        # default-config cell at 60 % extra memory or above reaches it.
        value = 0.0 if threshold == _INF else max(0.0, threshold)
        self._admission[position] = value
        return value

    def eviction_target(self, position: int, eviction_threshold: float) -> int:
        """Occupancy the proactive eviction pass aims for at ``position``."""
        capacity = self._capacity[position]
        if capacity <= 1:
            return capacity
        return min(capacity - 1, math.ceil(eviction_threshold * capacity))

    def needs_eviction(self, position: int, eviction_threshold: float) -> bool:
        """True when occupancy exceeds the proactive eviction target."""
        if self._capacity[position] == 0:
            return self._used[position] > 0
        return self._used[position] > self.eviction_target(position, eviction_threshold)

    def excess_replicas(self, position: int, eviction_threshold: float) -> int:
        """Replicas to shed at ``position`` to get under the eviction target."""
        if self._capacity[position] == 0:
            return self._used[position]
        return max(0, self._used[position] - self.eviction_target(position, eviction_threshold))

    def eviction_candidate_slots(self, position: int) -> list[int]:
        """Evictable slots, least useful first (stable on insertion order).

        One chain pass computing each effective utility exactly once; the
        pairs are sorted on the utility alone (never the slot id — recycled
        ids are not monotone in insertion order), so ``list.sort`` stability
        preserves the chain insertion order between equal utilities, the
        historical tie-breaking the proactive eviction pass relies on.
        """
        pairs: list[tuple[float, int]] = []
        slot = self._srv_head[position]
        srv_next = self._srv_next
        next_closest = self._next_closest
        utility = self._utility
        while slot != NO_SLOT:
            if next_closest[slot] != NO_SLOT:
                value = utility[slot]
                if value != _INF:
                    pairs.append((value, slot))
            slot = srv_next[slot]
        pairs.sort(key=_UTILITY_KEY)
        return [pair[1] for pair in pairs]

    # ----------------------------------------------------------- maintenance
    def advance_all_counters(self, timestamp: float) -> None:
        """Column sweep: rotate every replica's windows to ``timestamp``."""
        if self.stats is not None:
            self.stats.advance_pool(timestamp)

    # ----------------------------------------------------------------- digest
    def state_digest(self) -> str:
        """Order-insensitive sha256 of the logical placement state.

        The sharded runner's cross-worker consistency audit: every worker
        replays the full system-event stream, so their placement tables must
        be logically identical at the end of the run.  Covers each user's
        sorted replica positions (with the per-slot routing columns) and the
        per-position ``used``/``capacity``/``admission`` counters — but *not*
        slot ids, chain layout or the free list, which are allocation-history
        artefacts.
        """
        hasher = hashlib.sha256()
        user_next = self._user_next
        for user in sorted(self._user_head):
            rows = []
            slot = self._user_head[user]
            while slot != NO_SLOT:
                rows.append(
                    (
                        self._server[slot],
                        self._utility[slot],
                        self._next_closest[slot],
                    )
                )
                slot = user_next[slot]
            rows.sort()
            hasher.update(repr((user, rows)).encode())
        hasher.update(
            repr((self._used, self._capacity, self._admission, self._active)).encode()
        )
        if self.stats is not None:
            hasher.update(self.stats.state_digest().encode())
        return hasher.hexdigest()

    # ------------------------------------------------------------- integrity
    def check_integrity(self) -> None:
        """Validate the chain indexes, counters, free list and statistics pool.

        Raises :class:`~repro.exceptions.StorageError` on the first
        inconsistency; used by the property tests to audit random churn.
        """
        total_slots = len(self._user)
        seen: set[int] = set()
        # Position chains: doubly linked, counts match, server column agrees.
        for position in range(len(self._srv_head)):
            count = 0
            previous = NO_SLOT
            slot = self._srv_head[position]
            while slot != NO_SLOT:
                if slot in seen:
                    raise StorageError(f"slot {slot} linked twice")
                seen.add(slot)
                if self._server[slot] != position:
                    raise StorageError(f"slot {slot} chained under wrong position")
                if self._srv_prev[slot] != previous:
                    raise StorageError(f"slot {slot} has a broken prev link")
                previous = slot
                slot = self._srv_next[slot]
                count += 1
            if self._srv_tail[position] != previous:
                raise StorageError(f"position {position} has a broken tail")
            if count != self._used[position]:
                raise StorageError(
                    f"position {position} used counter {self._used[position]} != {count}"
                )
        if len(seen) != self._active:
            raise StorageError(f"active counter {self._active} != {len(seen)}")
        # User chains cover exactly the live slots.
        covered: set[int] = set()
        for user, head in self._user_head.items():
            slot = head
            if slot == NO_SLOT:
                raise StorageError(f"user {user} indexed with no replica")
            while slot != NO_SLOT:
                if slot in covered:
                    raise StorageError(f"slot {slot} in two user chains")
                covered.add(slot)
                if self._user[slot] != user:
                    raise StorageError(f"slot {slot} chained under wrong user")
                slot = self._user_next[slot]
        if covered != seen:
            raise StorageError("user chains and position chains disagree")
        # Free list covers exactly the remaining slots.
        free: set[int] = set()
        slot = self._free_head
        while slot != NO_SLOT:
            if slot in free or slot in seen:
                raise StorageError(f"slot {slot} both free and live")
            if self._server[slot] != NO_SLOT:
                raise StorageError(f"free slot {slot} still claims a position")
            free.add(slot)
            slot = self._user_next[slot]
        if len(free) + len(seen) != total_slots:
            raise StorageError(
                f"slot leak: {len(free)} free + {len(seen)} live != {total_slots}"
            )
        # Admission thresholds are never negative (or NaN): the decision
        # kernel's sole-replica elision rests on it.
        for position, threshold in enumerate(self._admission):
            if not threshold >= 0.0:
                raise StorageError(
                    f"position {position} has admission threshold {threshold}"
                )
        # Statistics node pool: the free list and the allocation bitmap must
        # partition the pool, and free nodes must hold zeroed windows (the
        # invariant the batched tick sweep and ``advance_pool`` rely on to
        # skip them).  Live windows must sum to their totals, and the totals
        # stay below ``WINDOW_LIMIT`` (the float32 buckets' exactness rule).
        stats = self.stats
        if stats is not None:
            slots = stats.slots
            buckets = stats._node_buckets
            zero_window = stats._zero_window
            free_nodes: set[int] = set()
            node = stats._node_free
            while node != NO_SLOT:
                if node in free_nodes:
                    raise StorageError(f"node {node} linked twice in the free list")
                if stats._node_alloc[node]:
                    raise StorageError(f"free node {node} flagged as allocated")
                if stats._node_total[node] != 0.0:
                    raise StorageError(f"free node {node} holds a nonzero total")
                base = node * slots
                if buckets[base : base + slots] != zero_window:
                    raise StorageError(f"free node {node} holds a nonzero window")
                free_nodes.add(node)
                node = stats._node_next[node]
            for node, allocated_flag in enumerate(stats._node_alloc):
                if not allocated_flag:
                    continue
                total = stats._node_total[node]
                base = node * slots
                window = sum(buckets[base : base + slots])
                if window != total:
                    raise StorageError(
                        f"node {node} total {total} != window sum {window}"
                    )
                if total >= WINDOW_LIMIT:
                    raise StorageError(
                        f"node {node} total {total} reached the float32 "
                        f"window limit {WINDOW_LIMIT:.0f}"
                    )
            allocated = sum(stats._node_alloc)
            if allocated != stats._node_count:
                raise StorageError(
                    f"node count {stats._node_count} != bitmap total {allocated}"
                )
            if allocated + len(free_nodes) != len(stats._node_origin):
                raise StorageError(
                    f"node leak: {allocated} allocated + {len(free_nodes)} free "
                    f"!= {len(stats._node_origin)}"
                )


__all__ = [
    "NO_SLOT",
    "ReplicaTable",
    "StatsTable",
    "pick_least_loaded",
    "rank_by_utilisation",
]
