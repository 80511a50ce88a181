"""Shared harness of the golden and parity suites.

Builds the small simulation runs the committed goldens
(``tests/golden_tables.json``, ``tests/golden_digests.json``) and the
batch/tick/shard parity suites replay, and canonicalises
:class:`~repro.simulator.results.SimulationResult`\\ s into bytes and digests
so they can assert **byte-identical** outcomes.  Kept outside the test
modules so every suite builds the exact same cluster, graph and stream.

The replay hands every request run to the strategy's
``execute_request_batch``.  :func:`observe_per_event` shadows that method
with the base-class loop over ``execute_read``/``execute_write`` — the
per-event reference; tracked views are sampled at run boundaries and do not
change the path.  :func:`spy_batch_calls` and :func:`spy_scalar_calls`
prove which path a run took.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

from repro.baselines.base import PlacementStrategy
from repro.config import ClusterSpec, DynaSoReConfig, SimulationConfig
from repro.constants import HOUR
from repro.runtime.spec import build_strategy
from repro.scenarios import CrashRecoverScenario, DiurnalLoadScenario
from repro.simulator.engine import ClusterSimulator
from repro.socialgraph.generators import dataset_preset, generate_social_graph
from repro.topology.tree import TreeTopology
from repro.workload.synthetic import SyntheticWorkloadConfig, SyntheticWorkloadGenerator


#: Scenario factories of the parity matrix (fresh instance per run).
SCENARIOS = {
    "plain": lambda: None,
    "diurnal": lambda: DiurnalLoadScenario(trough_fraction=0.3),
    "crash": lambda: CrashRecoverScenario(
        crash_time=2 * HOUR, recover_time=5 * HOUR, count=2
    ),
}


def parity_cluster() -> tuple[TreeTopology, int]:
    """Small 2x2x3 tree (12 servers) shared by every parity run."""
    spec = ClusterSpec(
        intermediate_switches=2,
        racks_per_intermediate=2,
        machines_per_rack=3,
        brokers_per_rack=1,
    )
    return TreeTopology(spec), 12


def parity_graph(users: int = 220, seed: int = 7):
    """Community-structured graph small enough to replay the full matrix."""
    return generate_social_graph(dataset_preset("facebook", users=users), seed=seed)


def parity_stream(graph, days: float = 0.5, seed: int = 7):
    """Synthetic event stream (reads, writes and graph churn) for one run."""
    config = SyntheticWorkloadConfig(days=days, seed=seed)
    return SyntheticWorkloadGenerator(graph, config).stream()


def observe_per_event(simulator: ClusterSimulator) -> None:
    """Shadow the strategy's ``execute_request_batch`` with the base-class
    loop over ``execute_read``/``execute_write``, so the replay drives the
    per-event strategy methods — the reference the batch kernels are
    compared against.  Call it before :func:`spy_batch_calls`, which then
    wraps the shadowing loop."""
    strategy = simulator.strategy
    strategy.execute_request_batch = PlacementStrategy.execute_request_batch.__get__(
        strategy
    )


def spy_batch_calls(strategy) -> list[int]:
    """Record the length of every ``execute_request_batch`` call."""
    calls: list[int] = []
    original = strategy.execute_request_batch

    def spy(kinds, users, timestamps):
        calls.append(len(users))
        return original(kinds, users, timestamps)

    strategy.execute_request_batch = spy
    return calls


def spy_scalar_calls(strategy) -> list[str]:
    """Record the kind (``"read"``/``"write"``) of every ``execute_read`` /
    ``execute_write`` call, in order."""
    calls: list[str] = []
    read, write = strategy.execute_read, strategy.execute_write

    def spy_read(user, now, targets=None):
        calls.append("read")
        return read(user, now, targets)

    def spy_write(user, now):
        calls.append("write")
        return write(user, now)

    strategy.execute_read = spy_read
    strategy.execute_write = spy_write
    return calls


def run_strategy(
    strategy_key: str,
    scenario_key: str,
    *,
    users: int = 220,
    extra_memory_pct: float = 60.0,
    tracked: int = 2,
    dynasore: DynaSoReConfig | None = None,
    per_event: bool | None = None,
):
    """One simulation run of the parity matrix; returns a SimulationResult.

    ``per_event`` replays through ``execute_read``/``execute_write`` under
    :func:`observe_per_event`, otherwise the run goes through the
    ``execute_request_batch`` kernels.  It defaults to ``tracked > 0``, the
    path each committed golden of ``tests/golden_tables.json`` was recorded
    on (tracked views once cut every run to one event).
    """
    topology, _ = parity_cluster()
    graph = parity_graph(users=users)
    stream = parity_stream(graph)
    strategy = build_strategy(strategy_key, 7, dynasore or DynaSoReConfig())
    config = SimulationConfig(extra_memory_pct=extra_memory_pct, seed=7)
    simulator = ClusterSimulator(
        topology,
        graph,
        strategy,
        config=config,
        scenario=SCENARIOS[scenario_key](),
    )
    if per_event is None:
        per_event = tracked > 0
    if per_event:
        observe_per_event(simulator)
    for user in list(graph.users)[:tracked]:
        simulator.track_view(user)
    return simulator.run(stream)


def canonical_result_bytes(result) -> bytes:
    """Canonical byte serialisation of a SimulationResult.

    ``pickle`` of the plain-data tree is deterministic here: every container
    is built in the same order by both paths when their decision sequences
    match, and all arithmetic is exact (integer-valued floats), so equal
    behaviour implies equal bytes — and any drift shows up as a diff.
    """
    tree = dataclasses.asdict(result)
    return pickle.dumps(tree, protocol=4)


def golden_digest(result) -> str:
    """sha256 of a result's canonical JSON, as committed in
    ``tests/golden_tables.json`` and ``tests/golden_digests.json`` (the
    rendering ``bench/driver.py`` uses: independent of pickle and of dict
    insertion order)."""
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
