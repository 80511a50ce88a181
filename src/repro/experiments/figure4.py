"""Figure 4 — top-switch traffic over time with the real request trace.

The paper's Figure 4 replays the Yahoo! News Activity trace on the Facebook
graph with 50% extra memory and plots, per day, the top-switch traffic of
Random, SPAR and DynaSoRe (initialised from Random and from METIS),
normalised by Random.  The traffic follows the daily request pattern of
Figure 2, and DynaSoRe stays well below both baselines throughout.

Expected shape (:func:`traffic_over_time_claims`): DynaSoRe from METIS is
below SPAR and below Random on every day of the trace and clearly below
Random over the whole run; DynaSoRe from a random placement is no worse
than the Random baseline it started from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ExperimentProfile
from ..constants import DAY
from ..runtime.executor import RuntimeExecutor
from ..runtime.grid import RunGrid
from ..simulator.results import SimulationResult
from .claims import Claim, compare, ratio
from .common import (
    default_executor,
    graph_spec,
    simulation_config,
    topology_spec,
    trace_workload_spec,
)

#: Strategies plotted in Figure 4.
FIGURE4_STRATEGIES = ("random", "spar", "dynasore_random", "dynasore_metis")


@dataclass
class TrafficOverTime:
    """Per-day top-switch traffic series of every strategy."""

    dataset: str
    extra_memory_pct: float
    #: strategy label -> {day -> absolute top-switch traffic}
    series: dict[str, dict[int, float]] = field(default_factory=dict)
    #: strategy label -> total top-switch traffic over the whole run
    totals: dict[str, float] = field(default_factory=dict)

    def normalised_series(self, baseline: str = "random") -> dict[str, dict[int, float]]:
        """Every strategy's per-day traffic divided by the baseline's."""
        reference = self.series.get(baseline, {})
        normalised: dict[str, dict[int, float]] = {}
        for label, days in self.series.items():
            normalised[label] = {
                day: (value / reference[day] if reference.get(day) else 0.0)
                for day, value in days.items()
            }
        return normalised

    def normalised_totals(self, baseline: str = "random") -> dict[str, float]:
        """Total traffic of every strategy divided by the baseline's total."""
        reference = self.totals.get(baseline, 0.0)
        return {
            label: (value / reference if reference else 0.0)
            for label, value in self.totals.items()
        }


def _per_day_series(result: SimulationResult) -> dict[int, float]:
    """Collapse the bucketed top-switch series into per-day totals."""
    buckets_per_day = max(1, int(round(DAY / result.bucket_width)))
    per_day: dict[int, float] = {}
    for bucket, total in result.top_switch_series(split=False).items():
        day = bucket // buckets_per_day
        per_day[day] = per_day.get(day, 0.0) + total
    return per_day


def run_figure4(
    profile: ExperimentProfile,
    dataset: str = "facebook",
    extra_memory_pct: float = 50.0,
    strategies: tuple[str, ...] = FIGURE4_STRATEGIES,
    executor: RuntimeExecutor | None = None,
) -> TrafficOverTime:
    """Replay the real-trace experiment behind Figure 4."""
    grid = RunGrid.product(
        topology_spec(profile),
        graph_spec(profile, dataset),
        trace_workload_spec(profile),
        simulation_config(profile, extra_memory_pct),
        strategies,
    )
    runs = grid.run(default_executor(executor)).by_strategy()
    result = TrafficOverTime(dataset=dataset, extra_memory_pct=extra_memory_pct)
    for label, run in runs.items():
        result.series[label] = _per_day_series(run)
        result.totals[label] = run.top_switch_traffic
    return result


def traffic_over_time_claims(result: TrafficOverTime) -> list[Claim]:
    """The shapes of Figure 4, day by day and over the whole trace."""
    ref = "figure 4"
    claims: list[Claim] = []
    baseline = result.series.get("random", {})
    for day in sorted(baseline):
        dynasore = ratio(result.series.get("dynasore_metis", {}).get(day), baseline[day])
        spar = ratio(result.series.get("spar", {}).get(day), baseline[day])
        claims += [
            compare(f"dynasore_below_spar@day{day}", ref, dynasore, "<", spar, "SPAR"),
            compare(f"dynasore_below_random@day{day}", ref, dynasore, "<", 1.0, "Random"),
        ]
    reference = result.totals.get("random")
    from_metis = ratio(result.totals.get("dynasore_metis"), reference)
    from_random = ratio(result.totals.get("dynasore_random"), reference)
    claims += [
        compare("dynasore_total_clearly_below_random", ref, from_metis, "<", 0.9),
        compare("random_init_at_most_random", ref, from_random, "<=", 1.05, "Random + 0.05"),
    ]
    return claims


__all__ = [
    "FIGURE4_STRATEGIES",
    "TrafficOverTime",
    "run_figure4",
    "traffic_over_time_claims",
]
