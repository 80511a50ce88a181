"""Figure 7 — crash-and-recover comparison (extension beyond the paper).

The paper evaluates DynaSoRe only under benign dynamics (flash crowds, edge
churn).  This experiment injects infrastructure faults: partway through a
synthetic day, several storage servers crash; later they rejoin empty.
Every strategy replays the *same* workload under the *same* fault stream
(scenario randomness derives from the profile seed), and we compare

* top-switch traffic, normalised against the Random baseline, as in the
  rest of the evaluation — recovery copies and re-convergence system
  traffic are part of the bill;
* how each strategy recovered the crashed servers' views: from surviving
  in-memory replicas (fast path) vs. from the WAL-backed persistent store
  (slow path).  DynaSoRe's adaptive replication keeps popular views
  replicated, so a large fraction recovers from memory; single-replica
  baselines always pay the slow path;
* availability: after the run every view must have at least one replica
  (``unavailable_views == 0``) and memory must be back within budget.

Expected shape (:func:`crash_recovery_claims`): every strategy ends with no
view lost and memory within budget; Random recovers nothing from memory;
DynaSoRe recovers part of the crash from memory and still crosses the top
switch less than Random.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ExperimentProfile
from ..constants import DAY
from ..runtime.executor import RuntimeExecutor
from ..runtime.grid import RunGrid
from ..runtime.spec import ScenarioSpec
from ..simulator.results import FaultRecord, SimulationResult
from ..simulator.runner import normalise_results
from .claims import Claim, compare
from .common import (
    default_executor,
    graph_spec,
    simulation_config,
    synthetic_workload_spec,
    topology_spec,
)

#: Strategies compared under faults (the paper's main contenders).
FIGURE7_STRATEGIES = ("random", "spar", "dynasore_hmetis")


@dataclass
class StrategyFaultOutcome:
    """Traffic and recovery behaviour of one strategy under the fault stream."""

    top_switch_traffic: float
    normalised_traffic: float
    views_recovered_from_memory: int
    views_recovered_from_disk: int
    unavailable_views: int
    memory_in_use: int
    memory_capacity: int
    fault_records: list[FaultRecord] = field(default_factory=list)

    @property
    def memory_recovery_fraction(self) -> float:
        """Fraction of crashed views recovered without touching the disk."""
        total = self.views_recovered_from_memory + self.views_recovered_from_disk
        if total == 0:
            return 1.0
        return self.views_recovered_from_memory / total

    @property
    def fully_recovered(self) -> bool:
        """True when no view was lost and memory is back within budget."""
        return (
            self.unavailable_views == 0
            and self.memory_in_use <= self.memory_capacity
        )


@dataclass
class CrashRecoveryComparison:
    """Result of the crash-and-recover experiment."""

    dataset: str
    extra_memory_pct: float
    crashes: int
    crash_time: float
    recover_time: float
    outcomes: dict[str, StrategyFaultOutcome] = field(default_factory=dict)


def _outcome(
    result: SimulationResult, normalised: float, capacity: int
) -> StrategyFaultOutcome:
    return StrategyFaultOutcome(
        top_switch_traffic=result.top_switch_traffic,
        normalised_traffic=normalised,
        views_recovered_from_memory=sum(
            r.views_from_memory for r in result.fault_records
        ),
        views_recovered_from_disk=sum(
            r.views_from_disk for r in result.fault_records
        ),
        unavailable_views=result.unavailable_views,
        memory_in_use=result.memory_in_use,
        memory_capacity=capacity,
        fault_records=list(result.fault_records),
    )


def run_figure7(
    profile: ExperimentProfile,
    dataset: str = "facebook",
    extra_memory_pct: float = 50.0,
    crashes: int = 2,
    strategies: tuple[str, ...] | None = None,
    executor: RuntimeExecutor | None = None,
) -> CrashRecoveryComparison:
    """Run the crash-and-recover comparison at the profile's scale.

    ``crashes`` servers fail 35% into the trace and rejoin at 70%; the
    crashed positions are drawn deterministically from the profile seed
    (which every spec of the grid shares), so every strategy faces the
    identical fault stream.
    """
    if strategies is None:
        strategies = FIGURE7_STRATEGIES
    duration = profile.synthetic_days * DAY
    crash_time = duration * 0.35
    recover_time = duration * 0.70
    scenario = ScenarioSpec.of(
        "crash_recover",
        crash_time=crash_time,
        recover_time=recover_time,
        count=crashes,
    )

    grid = RunGrid.product(
        topology_spec(profile),
        graph_spec(profile, dataset),
        synthetic_workload_spec(profile),
        simulation_config(profile, extra_memory_pct),
        strategies,
        scenarios=[scenario],
    )
    runs = grid.run(default_executor(executor)).by_strategy()
    normalised = normalise_results(runs)
    # Memory budget of the runs (rebuilt here; every run shares it because
    # graph size and extra memory are identical across strategies).
    from ..store.memory import MemoryBudget

    topology = topology_spec(profile).build()
    capacity = MemoryBudget(
        # The generator creates exactly the requested number of users, so
        # the spec's count matches every run's graph without rebuilding it.
        views=graph_spec(profile, dataset).users,
        extra_memory_pct=extra_memory_pct,
        servers=len(topology.servers),
    ).total_capacity

    comparison = CrashRecoveryComparison(
        dataset=dataset,
        extra_memory_pct=extra_memory_pct,
        crashes=crashes,
        crash_time=crash_time,
        recover_time=recover_time,
    )
    for label, result in runs.items():
        comparison.outcomes[label] = _outcome(result, normalised[label], capacity)
    return comparison


def crash_recovery_claims(result: CrashRecoveryComparison) -> list[Claim]:
    """The shapes of the crash-and-recover comparison."""
    ref = "figure 7 (beyond the paper)"

    def measured(label: str, attribute: str) -> float | None:
        outcome = result.outcomes.get(label)
        return None if outcome is None else getattr(outcome, attribute)

    claims: list[Claim] = []
    for label in FIGURE7_STRATEGIES:
        lost = measured(label, "unavailable_views")
        in_use = measured(label, "memory_in_use")
        capacity = measured(label, "memory_capacity")
        claims += [
            compare(f"no_view_lost@{label}", ref, lost, "<=", 0, "views without a replica"),
            compare(f"memory_within_budget@{label}", ref, in_use, "<=", capacity, "capacity"),
        ]
    random = measured("random", "views_recovered_from_memory")
    dynasore = measured("dynasore_hmetis", "views_recovered_from_memory")
    traffic = measured("dynasore_hmetis", "normalised_traffic")
    note = "views recovered from memory"
    claims += [
        compare("random_recovers_from_disk_only", ref, random, "<=", 0, note),
        compare("dynasore_recovers_from_memory", ref, dynasore, ">", 0, note),
        compare("dynasore_below_random", ref, traffic, "<", 1.0, "Random, recovery included"),
    ]
    return claims


__all__ = [
    "FIGURE7_STRATEGIES",
    "CrashRecoveryComparison",
    "StrategyFaultOutcome",
    "crash_recovery_claims",
    "run_figure7",
]
