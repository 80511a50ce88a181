"""Committed goldens and property tests of the placement tables.

Three layers of protection for the one world of placement state
(:mod:`repro.store.tables`):

* **Committed goldens** — ``tests/golden_tables.json`` holds the
  ``parity.golden_digest`` of 156 small runs (220 users, 12 servers, half a
  day): matrix A is every strategy x {plain, diurnal, crash} x extra memory
  {0, 30, 60, 150} % through the per-event path, matrix B is six
  non-default ``DynaSoReConfig``\\ s x {dynasore_hmetis, dynasore_random} x
  the three scenarios, through the per-event path (``tracked2``) and
  through the batch kernel (``tracked0``).  The 120 cells that track two
  views (A and ``tracked2``) are replayed once more through the batch
  kernel, against the same digests: tracked views do not cut runs.
* **Properties** — random create/remove/migrate churn against a dict/set
  reference model, with free-list reuse and chain-index integrity audited
  after every step, plus a windows-arithmetic equivalence check of
  :class:`~repro.store.tables.StatsTable` against ``AccessStatistics``.
* **Counter regressions** — crash → evacuate → restore must leave the O(1)
  per-server counters (``memory_in_use``/``server_utilisations``) exactly
  consistent with a from-scratch recount.

**Where the goldens come from.**  They were harvested once, at the last
commit that still carried the frozen seed object world
(``src/repro/legacy/``, the pre-table implementation of every strategy):
each cell was replayed through both worlds and recorded only after
``canonical_result_bytes`` of the two results compared equal — 156 cells,
none differed.  The object world and its 21-cell twin comparison
(``test_byte_identical_with_seed_object_path``, all at 60 % memory with the
default config) were deleted in the same change; the ``A/*/mem60`` row is
those 21 cells.  Matrix B's other four configurations (``min_replicas=2``,
``check_interval=3``, ``no_proxy_migration``, ``no_view_migration``; 48
cells) went later with the config fields they switched; the 108 digests of
matrix A and of ``counter_slots=6``/``fill=0.5,evict=0.8`` are the
harvested ones, unchanged.  The other four configurations of matrix B
(``counter_slots=1``, ``counter_slots=4,period=1800``,
``fill=0.8,evict=0.8``, ``evict=1.0``; 48 cells) were recorded from the
table world when they were added, with no object world left to compare
against: they pin the remaining paper parameters, ``counter_period``
included, against regressions rather than against the seed.

**What the file catches.**  Failing cells per mutant, as *A's 84 / the
deleted 21-cell suite run at its last commit against the same mutant / B's
36 ``tracked0`` / B's 36 ``tracked2``*.  Measured on the 156-cell file;
every cell a mutant failed on the 108-cell file still fails:

* ``update_admission_threshold`` keeps the infinite threshold on a
  sole-replica boundary (no collapse to 0.0): 6 / **0** / 8 / 8;
* ``eviction_candidate_slots`` sorts on ``(utility, slot)``: 29 / 9 / 36 / 36;
* ``_decide_with_candidates``, Algorithm 2 admits at ``profit >=
  threshold`` (batch kernel only): 0 / 0 / 25 / 0;
* ``_decide_with_candidates``, Algorithm 3 removes at ``best_profit <= 0``
  (batch kernel only): 0 / 0 / 13 / 0, six of them ``fill=0.8,evict=0.8``
  and five ``fill=0.5,evict=0.8``;
* ``core/replication.py``, Algorithm 2 admits at ``profit >= threshold``
  (per-event reference only): 20 / 8 / 0 / 25.

Every cell the old suite failed is failed by its ``A/*/mem60`` successor,
and the two halves of matrix B pin different code.

Regenerate (only for an intended, explained result change — e.g. a
fidelity fix under ROADMAP item 2 — in a change that does nothing else):
``PYTHONPATH=src python tests/test_tables.py``.
"""

from __future__ import annotations

import inspect
import json
import math
import random
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

import parity
from parity import (
    SCENARIOS,
    golden_digest,
    parity_cluster,
    parity_graph,
    parity_stream,
    run_strategy,
    spy_batch_calls,
)
from repro.config import DynaSoReConfig, SimulationConfig
from repro.exceptions import StorageError
# The golden matrix spans the run registry, so a newly registered strategy
# joins it (and fails loudly until its cells are recorded).
from repro.runtime.spec import STRATEGY_KEYS, build_strategy
from repro.simulator.engine import ClusterSimulator
from repro.store.stats import AccessStatistics
from repro.store.tables import ReplicaTable, StatsTable, pick_least_loaded


# ---------------------------------------------------------------------------
# Committed goldens of the placement layer (tests/golden_tables.json)
# ---------------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).parent / "golden_tables.json"

#: Matrix A: extra memory, in percent.  At 0 and 30 servers fill up, so
#: admission thresholds and eviction decide; 60 was the old parity matrix.
MEMORY_PCTS = (0, 30, 60, 150)

#: Matrix B: non-default values of the four paper parameters.  Every entry
#: yields 12 digests unlike the default's and every other entry's.
DYNASORE_CONFIGS = {
    "counter_slots=6": DynaSoReConfig(counter_slots=6),
    "fill=0.5,evict=0.8": DynaSoReConfig(admission_fill=0.5, eviction_threshold=0.8),
    # A one-hour read window: counters expire within the half-day run.
    "counter_slots=1": DynaSoReConfig(counter_slots=1),
    # Half-hour slots, a two-hour window (the default window outlives the run).
    "counter_slots=4,period=1800": DynaSoReConfig(counter_slots=4, counter_period=1800.0),
    # An empty admission band: the least eviction threshold validation admits.
    "fill=0.8,evict=0.8": DynaSoReConfig(admission_fill=0.8, eviction_threshold=0.8),
    # No proactive eviction below a full server.
    "evict=1.0": DynaSoReConfig(eviction_threshold=1.0),
}


#: ``run_strategy`` keyword arguments per committed digest.
CASES = {
    f"A/{strategy_key}/{scenario_key}/mem{pct}": dict(
        strategy_key=strategy_key, scenario_key=scenario_key, extra_memory_pct=float(pct)
    )
    for strategy_key, scenario_key, pct in product(STRATEGY_KEYS, sorted(SCENARIOS), MEMORY_PCTS)
} | {
    f"B/{name}/{strategy_key}/{scenario_key}/tracked{tracked}": dict(
        strategy_key=strategy_key, scenario_key=scenario_key, tracked=tracked, dynasore=dynasore
    )
    for (name, dynasore), strategy_key, scenario_key, tracked in product(
        DYNASORE_CONFIGS.items(), ("dynasore_hmetis", "dynasore_random"), sorted(SCENARIOS), (2, 0)
    )
}


def _committed() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def test_golden_file_lists_exactly_the_cases():
    assert sorted(_committed()) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_result_matches_committed_golden(key):
    """Same workload, same ``SimulationResult`` as the digest in the tree."""
    assert golden_digest(run_strategy(**CASES[key])) == _committed()[key], key


#: The committed cells that track two views (matrix A and B's ``tracked2``).
TRACKED_CASES = sorted(key for key in CASES if not key.endswith("/tracked0"))


@pytest.mark.parametrize("key", TRACKED_CASES)
def test_tracked_cell_matches_committed_golden_through_batch_kernels(key, monkeypatch):
    """Tracked views do not cut runs: a cell recorded through the per-event
    reference gives the same digest through the strategy's own kernel, and
    the spy proves that kernel ran multi-event runs."""
    spied: list[list[int]] = []

    def build_spied(*args):
        strategy = build_strategy(*args)
        spied.append(spy_batch_calls(strategy))
        return strategy

    monkeypatch.setattr(parity, "build_strategy", build_spied)
    result = run_strategy(**CASES[key], per_event=False)
    assert golden_digest(result) == _committed()[key], key
    (calls,) = spied
    assert max(calls, default=0) > 1


def test_parity_runs_exercise_dynamic_placement():
    """Sanity: the parity workload actually replicates and recovers."""
    result = run_strategy("dynasore_hmetis", "crash")
    assert result.replication_factor > 1.0
    assert result.fault_records
    assert result.unavailable_views == 0
    assert all(timeline.replica_counts for timeline in result.tracked_views.values())


# ---------------------------------------------------------------------------
# ReplicaTable properties under random churn
# ---------------------------------------------------------------------------
class ReferenceModel:
    """Dict/set shadow of a ReplicaTable, the pre-refactor representation."""

    def __init__(self, positions: int) -> None:
        self.by_user: dict[int, list[int]] = {}
        self.by_position: dict[int, list[int]] = {p: [] for p in range(positions)}

    def add(self, user: int, position: int) -> None:
        self.by_user.setdefault(user, []).append(position)
        self.by_position[position].append(user)

    def remove(self, user: int, position: int) -> None:
        self.by_user[user].remove(position)
        if not self.by_user[user]:
            del self.by_user[user]
        self.by_position[position].remove(user)


def test_replica_table_random_churn_matches_reference_model():
    rng = random.Random(20260728)
    positions = 6
    table = ReplicaTable(positions=positions, counter_slots=4, counter_period=10.0)
    model = ReferenceModel(positions)
    live: list[tuple[int, int]] = []

    for step in range(2000):
        action = rng.random()
        if action < 0.5 or not live:
            user = rng.randrange(40)
            position = rng.randrange(positions)
            if table.slot_of(user, position) is not None:
                continue
            table.allocate(user, position)
            model.add(user, position)
            live.append((user, position))
        elif action < 0.8:
            user, position = live.pop(rng.randrange(len(live)))
            slot = table.slot_of(user, position)
            assert slot is not None
            table.free(slot)
            model.remove(user, position)
        else:
            # Migrate: move a replica to a random other position.
            index = rng.randrange(len(live))
            user, position = live[index]
            target = rng.randrange(positions)
            if target == position or table.slot_of(user, target) is not None:
                continue
            table.free(table.slot_of(user, position))
            model.remove(user, position)
            table.allocate(user, target)
            model.add(user, target)
            live[index] = (user, target)

        if step % 50 == 0:
            table.check_integrity()
            assert sorted(map(tuple, (sorted(v) for v in model.by_user.values()))) == sorted(
                tuple(sorted(table.user_positions(u))) for u in model.by_user
            )
    # Final audit: per-user and per-position views agree with the model.
    table.check_integrity()
    assert set(table.users()) == set(model.by_user)
    for user, posns in model.by_user.items():
        assert sorted(table.user_positions(user)) == sorted(posns)
    for position, users in model.by_position.items():
        assert sorted(table.users_at(position)) == sorted(users)
        assert table.used_of(position) == len(users)
    assert table.active_count == len(live)


def test_free_list_recycles_slots():
    table = ReplicaTable(positions=2, counter_slots=4, counter_period=10.0)
    first = table.allocate(1, 0)
    second = table.allocate(2, 1)
    table.stats.record_read(first, origin=9, timestamp=1.0)
    table.stats.record_write(first, 1.0)
    table.free(first)
    # The freed slot is reused before the columns grow...
    reused = table.allocate(3, 0)
    assert reused == first
    # ...and comes back with pristine statistics and links.
    assert table.stats.total_reads(reused) == 0.0
    assert table.stats.total_writes(reused) == 0.0
    assert table.stats.reads_by_origin(reused) == {}
    assert table.position_of(reused) == 0
    assert table.user_of(reused) == 3
    assert table.slot_of(2, 1) == second
    table.check_integrity()


def test_check_integrity_detects_corruption():
    table = ReplicaTable(positions=2, counter_slots=4, counter_period=10.0)
    slot = table.allocate(1, 0)
    table.allocate(2, 1)
    table._server[slot] = 1  # corrupt: chained under position 0, claims 1
    with pytest.raises(StorageError):
        table.check_integrity()


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_check_integrity_detects_negative_admission_threshold(bad):
    """Thresholds >= 0 is what lets the decision kernel skip Algorithm 3 on
    a sole replica once Algorithm 2 declined."""
    table = ReplicaTable(positions=2, counter_slots=4, counter_period=10.0)
    table.allocate(1, 0)
    table.update_admission_threshold(0, admission_fill=0.9)
    table.check_integrity()
    table.admission_thresholds[1] = float("inf")  # a departed server's value
    table.check_integrity()
    table.admission_thresholds[0] = bad
    with pytest.raises(StorageError, match="admission threshold"):
        table.check_integrity()


def test_detach_keeps_statistics_until_release():
    table = ReplicaTable(positions=2, counter_slots=4, counter_period=10.0)
    slot = table.allocate(1, 0)
    table.stats.record_read(slot, origin=3, timestamp=1.0)
    table.detach(slot)
    assert table.stats.total_reads(slot) == 1.0  # still readable
    target = table.allocate(1, 1)
    table.stats.move_slot(slot, target)
    table.release(slot)
    assert table.stats.reads_from(target, 3) == 1.0
    assert table.user_positions(1) == (1,)
    table.check_integrity()


def test_placement_state_stays_under_260_bytes_per_view():
    """Absolute ceiling on what one single-replica view costs the table.

    209 B/view measured here (195 B/view at one million); the seed's
    ``ViewReplica``-per-dict world cost about 4.5x that, which is what the
    struct-of-arrays layout was for.  A column that turns into a list of
    objects, or a per-replica dict, breaks the ceiling.
    """
    views, positions = 100_000, 64
    tracemalloc.start()
    try:
        table = ReplicaTable(positions=positions, counter_slots=24, counter_period=3600.0)
        for position in range(positions):
            table.set_capacity(position, views // positions + 1)
        for user in range(views):
            table.allocate(user, user % positions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.active_count == views
    assert peak <= 260 * views, f"{peak / views:.0f} bytes per view"


def test_pick_least_loaded_matches_min_semantics():
    loads = [3, 1, 1, 5]
    assert pick_least_loaded(loads) == 1  # ties break on the lower position
    assert pick_least_loaded(loads, down={1}) == 2
    caps = [4, 2, 8, 8]
    # Utilisation keys: 3/4, 1/2, 1/8, 5/8 -> position 2.
    assert pick_least_loaded(loads, capacities=caps) == 2
    assert pick_least_loaded([2, 2], capacities=[2, 2], skip_full=True) is None
    assert pick_least_loaded([0, 0], down={0, 1}) is None


# ---------------------------------------------------------------------------
# StatsTable windows == AccessStatistics windows, op for op
# ---------------------------------------------------------------------------
def test_stats_table_matches_access_statistics_under_random_ops():
    rng = random.Random(42)
    stats_table = StatsTable(slots=4, period=10.0)
    table_slots = 3
    for _ in range(table_slots):
        stats_table.append_slot()
    objects = [AccessStatistics(slots=4, period=10.0) for _ in range(table_slots)]

    clock = 0.0
    for _ in range(3000):
        clock += rng.random() * 7.0
        slot = rng.randrange(table_slots)
        op = rng.random()
        if op < 0.6:
            origin = rng.randrange(5)
            stats_table.record_read(slot, origin, clock)
            objects[slot].record_read(origin, clock)
        elif op < 0.8:
            stats_table.record_write(slot, clock)
            objects[slot].record_write(clock)
        elif op < 0.95:
            stats_table.advance_slot(slot, clock)
            objects[slot].advance(clock)
        else:
            stats_table.advance_pool(clock)
            for obj in objects:
                obj.advance(clock)
        assert stats_table.reads_by_origin(slot) == objects[slot].reads_by_origin()
        assert stats_table.total_reads(slot) == objects[slot].total_reads()
        assert stats_table.total_writes(slot) == objects[slot].total_writes()
    for slot in range(table_slots):
        exported = stats_table.export(slot)
        assert exported.reads_by_origin() == objects[slot].reads_by_origin()
        assert exported.total_writes() == objects[slot].total_writes()


# ---------------------------------------------------------------------------
# Crash -> evacuate -> restore counter consistency (O(1) counters regression)
# ---------------------------------------------------------------------------
def _recounted_state(strategy):
    """Recount occupancy from the authoritative replica locations."""
    locations = strategy.replica_locations()
    total = sum(len(devices) for devices in locations.values())
    per_position = [0] * strategy.tables.num_positions
    for devices in locations.values():
        for device in devices:
            per_position[strategy._position_of_device[device]] += 1
    return total, per_position


def assert_counters_consistent(strategy):
    table = strategy.tables
    total, per_position = _recounted_state(strategy)
    assert strategy.memory_in_use() == total
    assert table.active_count == total
    assert list(table.used) == per_position
    utilisations = strategy.server_utilisations()
    for position, used in enumerate(per_position):
        capacity = table.capacities[position]
        expected = (used / capacity) if capacity else (1.0 if used else 0.0)
        assert utilisations[position] == pytest.approx(expected)
    table.check_integrity()


def test_crash_evacuate_restore_leaves_counters_consistent():
    topology, _ = parity_cluster()
    graph = parity_graph(users=150)
    stream = parity_stream(graph, days=0.2)
    strategy = build_strategy("dynasore_hmetis", 7, DynaSoReConfig())
    simulator = ClusterSimulator(
        topology, graph, strategy, config=SimulationConfig(extra_memory_pct=80.0, seed=7)
    )
    simulator.prepare()
    simulator.run(stream)
    assert_counters_consistent(strategy)

    crashed = simulator.available_server_positions()[2]
    simulator.crash_server(crashed, now=1_000_000.0)
    assert strategy.tables.capacity_of(crashed) == 0
    assert strategy.tables.used[crashed] == 0
    assert_counters_consistent(strategy)

    # Traffic while degraded, then the server rejoins empty.
    for index, user in enumerate(list(graph.users)[:40]):
        strategy.execute_read(user, now=1_000_100.0 + index)
        strategy.execute_write(user, now=1_000_100.5 + index)
    assert_counters_consistent(strategy)

    simulator.restore_server(crashed, now=1_100_000.0)
    assert strategy.tables.capacity_of(crashed) > 0
    assert strategy.tables.used[crashed] == 0
    for index, user in enumerate(list(graph.users)[:40]):
        strategy.execute_read(user, now=1_100_100.0 + index)
    strategy.on_tick(1_200_000.0)
    assert_counters_consistent(strategy)
    assert simulator._count_unavailable_views() == 0


def test_spar_crash_counters_consistent():
    topology, _ = parity_cluster()
    graph = parity_graph(users=150)
    strategy = build_strategy("spar", 7)
    simulator = ClusterSimulator(
        topology, graph, strategy, config=SimulationConfig(extra_memory_pct=80.0, seed=7)
    )
    simulator.prepare()
    table = strategy.tables
    before = table.active_count
    assert strategy.memory_in_use() == before

    crashed = simulator.available_server_positions()[0]
    simulator.crash_server(crashed, now=10.0)
    assert table.used[crashed] == 0
    locations = strategy.replica_locations()
    assert sum(len(d) for d in locations.values()) == table.active_count
    assert all(devices for devices in locations.values())
    table.check_integrity()
    simulator.restore_server(crashed, now=20.0)
    table.check_integrity()


def _assert_audit_matches_locations(strategy, graph) -> None:
    """The O(1) end-of-run figures equal the ones materialised from
    ``replica_locations()``, exactly as the simulator once computed them."""
    locations = strategy.replica_locations()
    expected = (
        sum(len(devices) for devices in locations.values()) / len(locations)
        if locations
        else 0.0
    )
    assert strategy.replication_factor() == expected
    for user in graph.users:
        assert strategy.has_any_replica(user) == bool(locations.get(user))


@pytest.mark.parametrize("strategy_key", STRATEGY_KEYS)
def test_end_of_run_audit_matches_replica_locations(strategy_key):
    """``replication_factor``/``has_any_replica`` of every strategy, checked
    mid-crash (from a pre-tick hook) and at the end of a crash-recover run;
    the result carries the same figures."""
    topology, _ = parity_cluster()
    graph = parity_graph(users=120)
    strategy = build_strategy(strategy_key, 7, DynaSoReConfig())
    simulator = ClusterSimulator(
        topology,
        graph,
        strategy,
        config=SimulationConfig(extra_memory_pct=60.0, seed=7),
        scenario=SCENARIOS["crash"](),
    )
    degraded = []

    def audit(now):
        if not all(simulator.server_up):
            degraded.append(now)
            _assert_audit_matches_locations(strategy, graph)

    simulator.add_pre_tick_hook(audit)
    result = simulator.run(parity_stream(graph, days=0.25))
    assert degraded
    _assert_audit_matches_locations(strategy, graph)
    assert result.replication_factor == strategy.replication_factor()
    assert result.unavailable_views == 0


# ---------------------------------------------------------------------------
# Maintenance-tick primitives: pool rotation, thresholds, eviction ordering
# ---------------------------------------------------------------------------
def _churned_stats_pair(seed: int):
    """Two StatsTables driven through identical record/alloc/free churn."""
    rng = random.Random(seed)
    pooled = StatsTable(slots=6, period=10.0)
    scalar = StatsTable(slots=6, period=10.0)
    live: list[int] = []
    cleared: list[int] = []
    total_slots = 0
    clock = 0.0
    for _ in range(400):
        clock += rng.random() * 9.0
        op = rng.random()
        if op < 0.15 or not live:
            pooled.append_slot()
            scalar.append_slot()
            live.append(total_slots)
            total_slots += 1
        elif op < 0.25 and len(live) > 1:
            # Free a slot mid-stream: its counter nodes go to the free list
            # (the pool sweep must skip them via the allocation bitmap).
            slot = live.pop(rng.randrange(len(live)))
            pooled.reset_slot(slot)
            scalar.reset_slot(slot)
            cleared.append(slot)
        elif op < 0.35 and cleared:
            # Revive a cleared slot so freed nodes get recycled too.
            slot = cleared.pop()
            live.append(slot)
        elif op < 0.75:
            slot = rng.choice(live)
            origin = rng.randrange(5)
            pooled.record_read(slot, origin, clock)
            scalar.record_read(slot, origin, clock)
        else:
            slot = rng.choice(live)
            pooled.record_write(slot, clock)
            scalar.record_write(slot, clock)
    return pooled, scalar, total_slots, clock


@pytest.mark.parametrize("seed", range(6))
def test_advance_pool_equals_per_slot_advance_after_churn(seed):
    """Pool rotation == per-slot rotation on every column, after churn.

    Regression for the pool sweep walking recycled (free-listed) counter
    nodes: after random record/alloc/free churn, ``advance_pool`` must
    leave byte-identical node columns to advancing every slot through
    ``advance_slot`` — including the windows of freed nodes, which neither
    path may touch.
    """
    rng = random.Random(1000 + seed)
    pooled, scalar, total_slots, clock = _churned_stats_pair(seed)
    horizon = clock + rng.random() * 130.0
    pooled.advance_pool(horizon)
    for slot in range(total_slots):
        scalar.advance_slot(slot, horizon)
    assert list(pooled._node_period) == list(scalar._node_period)
    assert list(pooled._node_total) == list(scalar._node_total)
    assert list(pooled._node_buckets) == list(scalar._node_buckets)
    assert list(pooled._node_alloc) == list(scalar._node_alloc)
    for slot in range(total_slots):
        assert list(pooled.reads_by_origin(slot).items()) == list(
            scalar.reads_by_origin(slot).items()
        )
        assert pooled.total_writes(slot) == scalar.total_writes(slot)


def _threshold_fixture(utilities):
    """Replica table (one position, capacity 3) holding ``utilities``.

    Each entry is ``(utility, sole)``; sole replicas have no next-closest
    sibling and price as infinitely useful at the admission boundary.
    """
    table = ReplicaTable(positions=1)
    table.set_capacity(0, 3)
    for user, (utility, sole) in enumerate(utilities):
        slot = table.allocate(user, 0)
        if not sole:
            table._next_closest[slot] = 7
            table._utility[slot] = utility
    return table


@pytest.mark.parametrize(
    "utilities, expected",
    [
        # Fill boundary (capacity 3, fill 0.67 -> 2nd most useful) lands on
        # a sole replica: the infinite threshold collapses to 0.0 ("admit
        # everything").  Pinned here and by the mem0/mem30 DynaSoRe cells
        # of tests/golden_tables.json as what the code does, not as what
        # paper section 3.2 asks for: a candidate fidelity defect kept for
        # ROADMAP item 2 (the boundary replica cannot be displaced anyway,
        # so a 0.0 threshold only ever under-filters).
        ([(0.0, True), (0.0, True), (5.0, False)], 0.0),
        # Finite boundary: plain 2nd-largest utility.
        ([(0.0, True), (7.0, False), (5.0, False)], 7.0),
        ([(9.0, False), (7.0, False), (5.0, False)], 7.0),
        # Negative boundary clamps at zero.
        ([(0.0, True), (-3.0, False), (-5.0, False)], 0.0),
    ],
)
def test_admission_threshold_boundary_semantics(utilities, expected):
    """Top-k selection == sort-and-index, including the collapse."""
    table = _threshold_fixture(utilities)
    assert table.update_admission_threshold(0, admission_fill=0.67) == expected
    assert table.admission_thresholds[0] == expected


def test_admission_threshold_under_fill_and_zero_capacity():
    table = ReplicaTable(positions=1)
    # Zero capacity (a crashed server): infinite threshold, admit nothing.
    assert table.update_admission_threshold(0, admission_fill=0.9) == math.inf
    # Below the fill boundary: threshold 0, admit everything.
    table.set_capacity(0, 3)
    table.allocate(1, 0)
    assert table.update_admission_threshold(0, admission_fill=0.9) == 0.0


def test_eviction_candidates_stable_on_insertion_order_with_recycled_slots():
    """Equal utilities keep chain insertion order, not slot-id order.

    Recycled slot ids are not monotone in insertion order, so the sort key
    must never tie-break on the slot: after freeing and re-allocating the
    middle slot, the chain reads [0, 2, 1] and the candidate list must too.
    """
    table = ReplicaTable(positions=1)
    table.set_capacity(0, 4)
    slots = [table.allocate(user, 0) for user in (10, 11, 12)]
    table.free(slots[1])
    recycled = table.allocate(13, 0)  # reuses slot id 1, chained at the tail
    assert recycled == slots[1]
    chain = table.position_slots(0)
    assert chain == [slots[0], slots[2], recycled]
    for slot in chain:
        table._next_closest[slot] = 7
        table._utility[slot] = 3.0
    assert table.eviction_candidate_slots(0) == chain
    # Sole replicas and infinite utilities never become candidates.
    table._next_closest[slots[2]] = -1
    assert table.eviction_candidate_slots(0) == [slots[0], recycled]
    table._utility[recycled] = math.inf
    assert table.eviction_candidate_slots(0) == [slots[0]]


def test_eviction_candidates_sort_on_utility_first():
    table = ReplicaTable(positions=1)
    table.set_capacity(0, 4)
    values = {20: 5.0, 21: -2.0, 22: 1.0}
    for user, value in values.items():
        slot = table.allocate(user, 0)
        table._next_closest[slot] = 9
        table._utility[slot] = value
    ordered = [table.user_of(slot) for slot in table.eviction_candidate_slots(0)]
    assert ordered == [21, 22, 20]


# ---------------------------------------------------------------------------
# Float32 statistics windows: integral amounts below 2**24 only
# ---------------------------------------------------------------------------
#: The first integer float32 cannot hold exactly; window totals stay below it.
WINDOW_LIMIT = 2.0**24


@pytest.mark.parametrize("amount", [0.5, 2.25, -1.0, float("nan"), float("inf")])
def test_fractional_or_negative_amounts_are_refused(amount):
    """Float32 buckets are exact for counts alone, so nothing else goes in."""
    stats = StatsTable(slots=4, period=10.0)
    stats.append_slot()
    with pytest.raises(StorageError, match="non-negative integers"):
        stats.record_read(0, origin=3, timestamp=1.0, amount=amount)
    with pytest.raises(StorageError, match="non-negative integers"):
        stats.record_write(0, timestamp=1.0, amount=amount)
    stats.record_read(0, origin=3, timestamp=1.0, amount=3)
    stats.record_write(0, timestamp=1.0, amount=2.0)
    assert stats.total_reads(0) == 3.0
    assert stats.total_writes(0) == 2.0


def test_windows_are_exact_up_to_the_float32_limit():
    stats = StatsTable(slots=4, period=10.0)
    stats.append_slot()
    stats.record_write(0, timestamp=1.0, amount=WINDOW_LIMIT - 2)
    stats.record_write(0, timestamp=2.0)
    assert stats.total_writes(0) == WINDOW_LIMIT - 1
    assert list(stats._node_buckets[:4]) == [WINDOW_LIMIT - 1, 0.0, 0.0, 0.0]
    stats.check_window_range()
    stats.record_write(0, timestamp=3.0)
    with pytest.raises(StorageError, match="exact only below 16777216"):
        stats.check_window_range()


@pytest.mark.parametrize("reference", [False, True], ids=["sweep", "reference"])
def test_window_total_at_the_limit_raises_at_the_next_tick(reference):
    """Both DynaSoRe ticks (the end-of-run one included) refuse a total
    that float32 buckets can no longer hold exactly."""
    topology, _ = parity_cluster()
    graph = parity_graph(users=40)
    strategy = build_strategy("dynasore_random", 7, DynaSoReConfig())
    if reference:
        strategy.on_tick = strategy._on_tick_reference
    simulator = ClusterSimulator(topology, graph, strategy, config=SimulationConfig(seed=7))
    simulator.prepare()
    stats = strategy.tables.stats
    slot = strategy.tables.user_slots(next(iter(graph.users)))[0]
    stats.record_write(slot, timestamp=10.0, amount=WINDOW_LIMIT - 1)
    strategy.on_tick(3600.0)
    stats.record_write(slot, timestamp=20.0)
    with pytest.raises(StorageError, match="window total reached 16777216"):
        strategy.on_tick(3600.0)


def test_window_bucket_slot_costs_four_bytes():
    """96 B per 24-slot window (``array('f')``), not the 192 of doubles."""
    nodes = 20_000
    stats = StatsTable(slots=24, period=3600.0)
    source, first = inspect.getsourcelines(StatsTable._alloc_node)
    (offset,) = [
        index for index, line in enumerate(source) if "_node_buckets.extend" in line
    ]
    tracemalloc.start()
    try:
        for slot in range(nodes):
            stats.append_slot()
            stats.record_write(slot, timestamp=0.0)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    (bucket_stat,) = [
        stat
        for stat in snapshot.statistics("lineno")
        if stat.traceback[0].filename == inspect.getsourcefile(StatsTable)
        and stat.traceback[0].lineno == first + offset
    ]
    assert stats._node_count == nodes
    # ``array`` over-allocates by 1/16 on growth.
    assert 96 * nodes <= bucket_stat.size <= 96 * nodes * 17 // 16 + 64


def test_check_integrity_audits_the_statistics_pool():
    """Live windows sum to their totals below the limit; free ones are zero."""
    def fresh():
        table = ReplicaTable(positions=1, counter_slots=4, counter_period=10.0)
        live = table.allocate(1, 0)
        table.stats.record_read(live, origin=3, timestamp=1.0, amount=2)
        freed = table.allocate(2, 0)
        table.stats.record_write(freed, timestamp=1.0)
        table.free(freed)
        table.check_integrity()
        stats = table.stats
        return table, stats, stats._read_head[live], stats._node_free

    table, stats, live_node, _ = fresh()
    stats._node_buckets[live_node * 4 + 1] = 1.0
    with pytest.raises(StorageError, match="window sum"):
        table.check_integrity()

    table, stats, _, free_node = fresh()
    stats._node_buckets[free_node * 4] = 1.0
    with pytest.raises(StorageError, match="nonzero window"):
        table.check_integrity()

    table, stats, live_node, _ = fresh()
    stats._node_total[live_node] = WINDOW_LIMIT
    stats._node_buckets[live_node * 4] = WINDOW_LIMIT
    with pytest.raises(StorageError, match="float32 window limit"):
        table.check_integrity()

if __name__ == "__main__":
    digests = {key: golden_digest(run_strategy(**kwargs)) for key, kwargs in CASES.items()}
    GOLDEN_PATH.write_text(
        json.dumps({"digests": dict(sorted(digests.items()))}, indent=1) + "\n"
    )
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
