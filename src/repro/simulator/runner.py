"""Convenience wrappers to run one or several strategies on a scenario.

These are thin forwarding layers over the experiment runtime
(:mod:`repro.runtime`): :func:`run_simulation` materialises factory-built
components and hands them to the runtime's shared execution core, and
:func:`run_comparison` replays a scenario identically against several
strategies.  Declarative code should prefer
:class:`~repro.runtime.spec.RunSpec` +
:class:`~repro.runtime.executor.RuntimeExecutor`, which add process-level
parallelism and result caching on top of the same core.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING

from ..baselines.base import PlacementStrategy
from ..config import SimulationConfig
from ..exceptions import SimulationError
from ..persistence.backend import PersistentStore
from ..runtime.executor import run_materialised
from ..socialgraph.graph import SocialGraph
from ..topology.base import ClusterTopology
from ..workload.stream import EventStream
from .results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scenarios.base import Scenario

#: A strategy factory: builds a fresh, unbound strategy instance per run.
StrategyFactory = Callable[[], PlacementStrategy]


def run_simulation(
    topology_factory: Callable[[], ClusterTopology],
    graph_factory: Callable[[], SocialGraph],
    strategy_factory: StrategyFactory,
    log: EventStream,
    config: SimulationConfig,
    tracked_views: tuple[int, ...] = (),
    scenario: "Scenario | None" = None,
    persistent_store: PersistentStore | None = None,
) -> SimulationResult:
    """Run one strategy on a fresh topology/graph pair and return the result.

    Topology and graph are rebuilt per run because strategies mutate the
    graph (edge events) and attach state to the topology-derived structures;
    rebuilding guarantees runs are independent and comparable.  ``log`` is
    re-iterable, so the same stream can be passed to several runs.
    """
    return run_materialised(
        topology_factory(),
        graph_factory(),
        strategy_factory(),
        log,
        config,
        tracked_views=tracked_views,
        scenario=scenario,
        persistent_store=persistent_store,
    )


def run_comparison(
    topology_factory: Callable[[], ClusterTopology],
    graph_factory: Callable[[], SocialGraph],
    strategies: Mapping[str, StrategyFactory],
    log: EventStream,
    config: SimulationConfig,
    scenario: "Scenario | None" = None,
    store_factory: Callable[[], PersistentStore] | None = None,
) -> dict[str, SimulationResult]:
    """Run several strategies on the same scenario.

    Returns a mapping from the strategy label (the mapping key, not the
    strategy's own name) to its result.  ``store_factory`` builds a fresh
    persistent store per strategy (stores are mutated by write mirroring
    and recovery, so they cannot be shared between runs).
    """
    results: dict[str, SimulationResult] = {}
    for label, factory in strategies.items():
        results[label] = run_simulation(
            topology_factory,
            graph_factory,
            factory,
            log,
            config,
            scenario=scenario,
            persistent_store=store_factory() if store_factory is not None else None,
        )
    return results


def normalise_results(
    results: Mapping[str, SimulationResult], baseline_label: str = "random"
) -> dict[str, float]:
    """Top-switch traffic of every run divided by the baseline's traffic.

    Raises :class:`SimulationError` when the baseline is missing or recorded
    no top-switch traffic — a zero baseline means the comparison scenario is
    degenerate (empty log, warm-up window covering the whole run, …) and
    silently returning zeros would hide that.
    """
    baseline = results.get(baseline_label)
    if baseline is None:
        raise SimulationError(
            f"baseline {baseline_label!r} is not among the results "
            f"({', '.join(sorted(results)) or 'none'})"
        )
    reference = baseline.top_switch_traffic
    if reference <= 0:
        raise SimulationError(
            f"baseline {baseline_label!r} recorded no top-switch traffic; "
            "cannot normalise against it (is the request log empty or the "
            "measurement window after every request?)"
        )
    return {
        label: result.top_switch_traffic / reference
        for label, result in results.items()
    }


__all__ = ["StrategyFactory", "normalise_results", "run_comparison", "run_simulation"]
