"""Figure 6 — convergence: application versus system traffic over time.

The paper's Figure 6 runs DynaSoRe on the Facebook graph with 150% extra
memory, starting from a random placement and from an hMETIS placement, with
synthetic (6a) and real (6b) request logs.  It plots the top-switch traffic
split into *application* traffic (reads/writes and their answers) and
*system* traffic (replication, routing updates and other protocol messages),
both normalised by the Random baseline's application traffic.

Expected shape (:func:`convergence_claims`): the system traffic spikes early
while DynaSoRe replicates aggressively, then decays as the placement
converges; the application traffic drops quickly and reaches a stable plateau
within roughly a day of simulated traffic; starting from hMETIS converges
faster and produces less system traffic than starting from Random.  The
first hour holds the bootstrap burst, which on its own would satisfy any
"later is lower" comparison, so every claim leaves it out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ExperimentProfile
from ..constants import DAY, HOUR
from ..runtime.executor import RuntimeExecutor
from ..runtime.grid import RunGrid
from ..simulator.results import SimulationResult
from .claims import Claim, compare, mean, ratio
from .common import (
    default_executor,
    graph_spec,
    simulation_config,
    synthetic_workload_spec,
    topology_spec,
    trace_workload_spec,
)

#: Strategies whose convergence is studied (plus the normalising baseline).
FIGURE6_STRATEGIES = ("random", "dynasore_random", "dynasore_hmetis")


@dataclass
class ConvergenceSeries:
    """Application/system traffic per time bucket for one strategy."""

    strategy: str
    #: bucket day -> application traffic (normalised by Random's total rate)
    application: dict[float, float] = field(default_factory=dict)
    #: bucket day -> system traffic (same normalisation)
    system: dict[float, float] = field(default_factory=dict)


def _mean_between(series: dict[float, float], start: float, end: float) -> float | None:
    """Mean of the buckets starting in ``[start, end)`` (times in days)."""
    # Bucket starts are multiples of the bucket width; half a minute of
    # slack keeps a float boundary on the right side.
    slack = 30.0 / DAY
    return mean([v for day, v in series.items() if start - slack <= day < end - slack])


def _decay_ratio(series: dict[float, float], daily_cycle: bool) -> float | None:
    """Late traffic over early traffic, the first hour left out of both.

    Without a daily cycle: the run's last quarter over hours 1-6.  With one
    the two windows must sit at the same time of day: day 2 over day 1.
    """
    if not series:
        return None
    if daily_cycle:
        late = _mean_between(series, 1.0, 2.0)
        early = _mean_between(series, HOUR / DAY, 1.0)
    else:
        last = max(series)
        late = _mean_between(series, max(0.75 * last, 7 * HOUR / DAY), last + 1.0)
        early = _mean_between(series, HOUR / DAY, 7 * HOUR / DAY)
    return ratio(late, early)


@dataclass
class ConvergenceResult:
    """Reproduction of Figure 6a or 6b."""

    workload: str
    extra_memory_pct: float
    series: dict[str, ConvergenceSeries] = field(default_factory=dict)


def _bucketed(result: SimulationResult, reference_rate: float) -> ConvergenceSeries:
    series = ConvergenceSeries(strategy=result.strategy_name)
    for bucket, (application, system) in result.top_switch_series(split=True).items():
        day = bucket * result.bucket_width / DAY
        series.application[day] = application / reference_rate if reference_rate else 0.0
        series.system[day] = system / reference_rate if reference_rate else 0.0
    return series


def run_convergence(
    profile: ExperimentProfile,
    workload: str,
    dataset: str = "facebook",
    extra_memory_pct: float = 150.0,
    strategies: tuple[str, ...] = FIGURE6_STRATEGIES,
    executor: RuntimeExecutor | None = None,
) -> ConvergenceResult:
    """Run the convergence experiment with ``workload`` in {synthetic, real}."""
    workload_spec = (
        synthetic_workload_spec(profile)
        if workload == "synthetic"
        else trace_workload_spec(profile)
    )
    grid = RunGrid.product(
        topology_spec(profile),
        graph_spec(profile, dataset),
        workload_spec,
        simulation_config(profile, extra_memory_pct),
        strategies,
    )
    runs = grid.run(default_executor(executor)).by_strategy()

    baseline = runs["random"]
    buckets = max(1, len(baseline.top_switch_series(split=False)))
    reference_rate = baseline.top_switch_traffic / buckets

    result = ConvergenceResult(workload=workload, extra_memory_pct=extra_memory_pct)
    for label, run in runs.items():
        if label == "random":
            continue
        result.series[label] = _bucketed(run, reference_rate)
    return result


def run_figure6a(profile: ExperimentProfile, **kwargs) -> ConvergenceResult:
    """Figure 6a: convergence with synthetic requests."""
    return run_convergence(profile, "synthetic", **kwargs)


def run_figure6b(profile: ExperimentProfile, **kwargs) -> ConvergenceResult:
    """Figure 6b: convergence with real (trace-like) requests."""
    return run_convergence(profile, "real", **kwargs)


def convergence_claims(result: ConvergenceResult) -> list[Claim]:
    """The shapes of Figure 6, per DynaSoRe flavour, first hour excluded.

    The real request log follows a daily cycle, so figure 6b compares day 2
    with day 1; the synthetic log of figure 6a has none and compares the
    last quarter of the run with hours 1-6.
    """
    daily_cycle = result.workload != "synthetic"
    ref = "figure 6b" if daily_cycle else "figure 6a"
    windows = "day 2 / day 1 after its first hour" if daily_cycle else "last quarter / hours 1-6"
    claims: list[Claim] = []
    empty = ConvergenceSeries(strategy="")
    for label in FIGURE6_STRATEGIES[1:]:
        series = result.series.get(label, empty)
        application = _decay_ratio(series.application, daily_cycle)
        system = _decay_ratio(series.system, daily_cycle)
        claims += [
            compare(f"application_traffic_settles@{label}", ref, application, "<=", 0.8, windows),
            compare(f"system_traffic_decays@{label}", ref, system, "<=", 0.8, windows),
        ]
    totals = {label: sum(series.system.values()) for label, series in result.series.items()}
    relative = ratio(totals.get("dynasore_hmetis"), totals.get("dynasore_random"))
    note = "hMETIS start / Random start, whole run"
    claims.append(compare("hmetis_start_less_system_traffic", ref, relative, "<=", 1.0, note))
    return claims


__all__ = [
    "ConvergenceResult",
    "ConvergenceSeries",
    "FIGURE6_STRATEGIES",
    "convergence_claims",
    "run_convergence",
    "run_figure6a",
    "run_figure6b",
]
