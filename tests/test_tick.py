"""Batched vs per-slot maintenance tick parity (the fused column sweep).

``DynaSoRe.on_tick`` is the fused column sweep (rotation + utility refresh
+ threshold recompute in one chain walk per position);
``DynaSoRe._on_tick_reference`` is the per-slot tick it replaced, kept as
the reference.  The contract is that both produce **byte-identical**
:class:`SimulationResult`\\ s for every DynaSoRe flavour, scenario and
fault/tick interleaving; a run takes the reference by binding it over
``on_tick`` on the strategy instance (:func:`_use_reference_tick`) — there
is no option.  This suite pins that contract:

* the DynaSoRe × scenario matrix, sweep against reference (the other
  strategies have one tick, so there is nothing to compare);
* property tests over random interleavings of faults, maintenance ticks and
  replay modes (the per-event reference loop is bound at random, so the
  tick sweep is exercised against both the batch and the per-event
  kernels);
* convergence: ticks with no traffic in between leave every utility and
  admission threshold unchanged;
* the negative-utility removal pass and the proactive eviction pass
  interact deterministically across both tick paths;
* ``reads_by_origin`` hands out an independent dict per call, and a full
  run audited under ``REPRO_CHECK_TABLES=1`` through the batched sweep is
  byte-identical to an unaudited one.
"""

from __future__ import annotations

import random

import pytest

from parity import (
    SCENARIOS,
    canonical_result_bytes,
    observe_per_event,
    parity_cluster,
    parity_graph,
    parity_stream,
)
from repro.config import ClusterSpec, DynaSoReConfig, SimulationConfig
from repro.constants import HOUR
from repro.runtime.spec import STRATEGY_KEYS, build_strategy
from repro.simulator.engine import ClusterSimulator
from repro.store.tables import NO_SLOT
from repro.topology.tree import TreeTopology

from test_batching import _RandomFaultScenario, _random_stream


#: The strategies that have a second tick to compare against.
DYNASORE_KEYS = [key for key in STRATEGY_KEYS if key.startswith("dynasore_")]


def _use_reference_tick(strategy) -> None:
    """Make every tick of this strategy instance the per-slot reference."""
    strategy.on_tick = strategy._on_tick_reference


def _run_tick_matrix(strategy_key: str, scenario_key: str, reference: bool):
    topology, _ = parity_cluster()
    graph = parity_graph(users=120)
    stream = parity_stream(graph, days=0.25)
    strategy = build_strategy(strategy_key, 7, DynaSoReConfig())
    if reference:
        _use_reference_tick(strategy)
    config = SimulationConfig(extra_memory_pct=60.0, seed=7)
    simulator = ClusterSimulator(
        topology, graph, strategy, config=config, scenario=SCENARIOS[scenario_key]()
    )
    return simulator.run(stream)


@pytest.mark.parametrize("scenario_key", sorted(SCENARIOS))
@pytest.mark.parametrize("strategy_key", DYNASORE_KEYS)
def test_batched_tick_byte_identical(strategy_key, scenario_key):
    """The fused sweep must not change a single byte of the result."""
    batched = _run_tick_matrix(strategy_key, scenario_key, reference=False)
    per_slot = _run_tick_matrix(strategy_key, scenario_key, reference=True)
    assert canonical_result_bytes(batched) == canonical_result_bytes(per_slot)


def _interleaving_run(seed: int, reference: bool):
    """Random workload, faults, tick cadence and replay mode; tick toggled."""
    rng = random.Random(seed)
    spec = ClusterSpec(
        intermediate_switches=2,
        racks_per_intermediate=2,
        machines_per_rack=3,
        brokers_per_rack=1,
    )
    topology = TreeTopology(spec)
    graph = parity_graph(users=80, seed=seed)
    horizon = rng.uniform(4 * HOUR, 30 * HOUR)
    stream = _random_stream(rng, users=80, horizon=horizon)
    strategy_key = rng.choice(DYNASORE_KEYS)
    strategy = build_strategy(strategy_key, 7, DynaSoReConfig())
    if reference:
        _use_reference_tick(strategy)
    config = SimulationConfig(
        extra_memory_pct=rng.choice([40.0, 60.0, 100.0]),
        tick_period=rng.choice([HOUR / 2, HOUR, 2 * HOUR]),
        measure_from=rng.choice([0.0, HOUR]),
        seed=7,
    )
    per_event = rng.random() >= 0.5
    scenario = _RandomFaultScenario(
        seed=seed, horizon=horizon, servers=len(topology.servers)
    )
    simulator = ClusterSimulator(
        topology, graph, strategy, config=config, scenario=scenario
    )
    if per_event:
        observe_per_event(simulator)
    result = simulator.run(stream)
    return result, simulator.accountant.snapshot()


@pytest.mark.parametrize("seed", range(8))
def test_random_tick_interleavings_byte_identical(seed):
    """Faults, tick cadence and replay mode never separate the two ticks.

    Each seed draws a random DynaSoRe flavour, workload, fault schedule,
    tick period and replay mode (batched or per-event); swapping only the
    tick must leave the result and the traffic snapshot byte-identical.
    """
    result_a, snapshot_a = _interleaving_run(seed, reference=False)
    result_b, snapshot_b = _interleaving_run(seed, reference=True)
    assert canonical_result_bytes(result_a) == canonical_result_bytes(result_b)
    assert snapshot_a == snapshot_b


# ---------------------------------------------------------------------------
# Quiet ticks: nothing to re-price, nothing moves
# ---------------------------------------------------------------------------
def test_quiet_ticks_change_nothing():
    """Ticks with no traffic in between leave utilities and thresholds alone.

    The sweep visits every position on every tick; within one counter
    window (the workload spans ~2.4 hours, windows hold 24) a quiet tick
    rotates only zero buckets, so every utility and admission threshold
    must come out exactly as it went in.
    """
    topology, _ = parity_cluster()
    graph = parity_graph(users=80)
    stream = parity_stream(graph, days=0.1)
    strategy = build_strategy("dynasore_hmetis", 7, DynaSoReConfig())
    simulator = ClusterSimulator(
        topology, graph, strategy, config=SimulationConfig(seed=7)
    )
    simulator.run(stream)

    # The run's final tick may still evict; one quiet settling tick later
    # the placement is converged.
    strategy.on_tick(strategy._last_tick + HOUR)
    fingerprint = _placement_fingerprint(strategy)
    for _ in range(3):
        strategy.on_tick(strategy._last_tick + HOUR)
        assert _placement_fingerprint(strategy) == fingerprint


# ---------------------------------------------------------------------------
# Negative-utility removal x proactive eviction, across both tick paths
# ---------------------------------------------------------------------------
def _placement_fingerprint(strategy):
    table = strategy.tables
    return (
        [(user, table.user_positions(user)) for user in sorted(table.users())],
        list(table.admission_thresholds),
        [table._utility[slot] for slot in range(len(table._utility))
         if table._server[slot] != NO_SLOT],
    )


def _negative_utility_course(reference: bool):
    """Drive a replica from creation to negative-utility removal by hand.

    A remote reader's traffic replicates an author's view near the reader;
    the reads then stop while the author keeps writing, so once the read
    windows rotate out, the replica's upkeep cost exceeds its benefit and
    the tick's negative-utility pass must drop it — at the same tick on
    both paths.
    """
    topology, _ = parity_cluster()
    graph = parity_graph(users=40)
    strategy = build_strategy("dynasore_random", 7, DynaSoReConfig())
    if reference:
        _use_reference_tick(strategy)
    simulator = ClusterSimulator(
        topology,
        graph,
        strategy,
        config=SimulationConfig(extra_memory_pct=200.0, seed=7),
    )
    simulator.prepare()
    table = strategy.tables
    users = list(graph.users)
    # Find a reader whose proxy sits away from the author's replica, so the
    # read traffic actually motivates a second replica (Algorithm 2).
    author = None
    for candidate_author in users:
        for candidate_reader in users:
            if candidate_reader == candidate_author:
                continue
            for step in range(6):
                strategy.execute_read(
                    candidate_reader, 60.0 * step, targets=(candidate_author,)
                )
            if table.user_replica_count(candidate_author) > 1:
                author = candidate_author
                break
        if author is not None:
            break
    assert author is not None, "no read pattern produced a replication"

    course = [_placement_fingerprint(strategy)]
    for hour in range(1, 30):
        now = hour * HOUR
        # Steady writes keep the upkeep cost alive while the reads decay.
        for burst in range(5):
            strategy.execute_write(author, now - 1800.0 + burst * 60.0)
        strategy.on_tick(now)
        course.append(_placement_fingerprint(strategy))
    return course, table.user_replica_count(author)


def test_negative_removal_and_eviction_interact_deterministically():
    """Both tick paths walk the same removal course, tick for tick."""
    course_batched, final_batched = _negative_utility_course(reference=False)
    course_reference, final_reference = _negative_utility_course(reference=True)
    assert course_batched == course_reference
    # The decayed replica was actually removed by the negative pass.
    assert final_batched == 1
    assert final_reference == 1


# ---------------------------------------------------------------------------
# Origin dicts and audited runs (REPRO_CHECK_TABLES)
# ---------------------------------------------------------------------------
def test_reads_by_origin_returns_an_independent_dict():
    """Each call builds a fresh dict: mutating one changes nothing else."""
    from repro.store.tables import ReplicaTable

    table = ReplicaTable(positions=1)
    slot = table.allocate(1, 0)
    table.stats.record_read(slot, origin=3, timestamp=0.0)
    table.stats.record_read(slot, origin=5, timestamp=10.0)
    first = table.stats.reads_by_origin(slot)
    first[3] = 99.0
    first[7] = 1.0
    del first[5]
    second = table.stats.reads_by_origin(slot)
    assert second is not first
    assert list(second.items()) == [(3, 1.0), (5, 1.0)]
    assert table.stats.reads_from(slot, 3) == 1.0
    assert table.stats.total_reads(slot) == 2.0


def test_audit_mode_prices_through_readonly_views(monkeypatch):
    """A crash run completes with the table audits on."""
    monkeypatch.setenv("REPRO_CHECK_TABLES", "1")
    topology, _ = parity_cluster()
    graph = parity_graph(users=80)
    stream = parity_stream(graph, days=0.25)
    strategy = build_strategy("dynasore_hmetis", 7, DynaSoReConfig())
    simulator = ClusterSimulator(
        topology,
        graph,
        strategy,
        config=SimulationConfig(seed=7),
        scenario=SCENARIOS["crash"](),
    )
    assert simulator._check_tables
    result = simulator.run(stream)
    assert result.requests_executed > 0


def test_audited_batched_tick_matches_unaudited(monkeypatch):
    """The audits are observation-only: results stay byte-identical."""

    def run(audit: bool):
        if audit:
            monkeypatch.setenv("REPRO_CHECK_TABLES", "1")
        else:
            monkeypatch.delenv("REPRO_CHECK_TABLES", raising=False)
        return _run_tick_matrix("dynasore_metis", "plain", reference=False)

    assert canonical_result_bytes(run(True)) == canonical_result_bytes(run(False))
