"""Figure 5 — flash events (paper section 4.6).

At day 2 a randomly chosen user gains 100 random followers; at day 7 they
unfollow.  The paper repeats this 100 times on the Facebook graph with 30%
extra memory and plots the average number of replicas of the hot view and
the average number of reads each replica serves per 10 minutes.

Expected shape (:func:`flash_event_claims`): the replica count rises from ≈1
after the followers arrive, stabilises (the paper converges near 5, one
replica per intermediate switch), the per-replica read load stays close to
the pre-event level, and the extra replicas are evicted shortly after the
followers leave.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ExperimentProfile
from ..constants import DAY
from ..runtime.executor import RuntimeExecutor
from ..runtime.spec import FlashSpec, RunSpec, WorkloadSpec
from .claims import Claim, compare, mean, scaled, shifted
from .common import default_executor, graph_spec, simulation_config, topology_spec


@dataclass
class FlashEventOutcome:
    """Averaged replica-count and read-load timelines across repetitions."""

    repetitions: int
    #: days at which the followers arrive and leave
    start_day: float = 0.0
    end_day: float = 0.0
    #: day -> average number of replicas of the hot view
    replicas_by_day: dict[float, float] = field(default_factory=dict)
    #: day -> average reads per replica per sampling window
    reads_per_replica_by_day: dict[float, float] = field(default_factory=dict)

    def replicas_during(self, start_day: float, end_day: float) -> float | None:
        """Average replica count over a day interval (None without a sample)."""
        return mean(
            [
                value
                for day, value in self.replicas_by_day.items()
                if start_day <= day < end_day
            ]
        )


def flash_run_spec(
    profile: ExperimentProfile,
    dataset: str,
    extra_memory_pct: float,
    followers: int,
    start_day: float,
    end_day: float,
    duration_days: float,
    seed: int,
) -> RunSpec:
    """Declarative spec of one flash-event repetition.

    The flash target is chosen by the workload builder (deterministically
    from ``seed``) and tracked automatically; the strategy is seeded per
    repetition so the repetitions are genuinely independent samples.
    """
    return RunSpec(
        topology=topology_spec(profile),
        graph=graph_spec(profile, dataset),
        workload=WorkloadSpec(
            kind="synthetic",
            days=duration_days,
            seed=seed,
            flash=FlashSpec(followers=followers, start_day=start_day, end_day=end_day),
        ),
        strategy="dynasore_hmetis",
        config=simulation_config(profile, extra_memory_pct),
        strategy_seed=seed,
    )


def _flash_timelines(result) -> tuple[dict[float, float], dict[float, float]]:
    """Extract the tracked flash target's timelines from a run result."""
    timeline = next(iter(result.tracked_views.values()))
    replicas = {time / DAY: float(count) for time, count in timeline.replica_counts}
    reads = {time / DAY: value for time, value in timeline.reads_per_replica}
    return replicas, reads


def run_figure5(
    profile: ExperimentProfile,
    dataset: str = "facebook",
    extra_memory_pct: float = 30.0,
    followers: int = 100,
    start_day: float = 2.0,
    end_day: float = 7.0,
    duration_days: float = 10.0,
    repetitions: int | None = None,
    executor: RuntimeExecutor | None = None,
) -> FlashEventOutcome:
    """Run the flash-event experiment and average across repetitions.

    The repetitions are declared as a grid of independently seeded specs
    and fanned out in one executor call.  The day samples of each
    repetition are rounded to a common grid (half a day) before averaging,
    so repetitions with slightly different sample times aggregate cleanly.
    """
    repetitions = repetitions if repetitions is not None else profile.flash_repetitions
    duration_days = min(duration_days, max(profile.synthetic_days, end_day + 1.0))
    start_day = min(start_day, duration_days / 3.0)
    end_day = min(end_day, duration_days * 0.8)
    if end_day <= start_day:
        end_day = start_day + max(0.5, duration_days / 4.0)

    specs = [
        flash_run_spec(
            profile,
            dataset,
            extra_memory_pct,
            followers,
            start_day,
            end_day,
            duration_days,
            seed=profile.seed + repetition,
        )
        for repetition in range(repetitions)
    ]
    results = default_executor(executor).run(specs)

    grid = 0.5
    replica_acc: dict[float, list[float]] = {}
    reads_acc: dict[float, list[float]] = {}
    for result in results:
        replicas, reads = _flash_timelines(result)
        for day, value in replicas.items():
            bucket = round(day / grid) * grid
            replica_acc.setdefault(bucket, []).append(value)
        for day, value in reads.items():
            bucket = round(day / grid) * grid
            reads_acc.setdefault(bucket, []).append(value)

    outcome = FlashEventOutcome(
        repetitions=repetitions, start_day=start_day, end_day=end_day
    )
    outcome.replicas_by_day = {
        day: sum(values) / len(values) for day, values in sorted(replica_acc.items())
    }
    outcome.reads_per_replica_by_day = {
        day: sum(values) / len(values) for day, values in sorted(reads_acc.items())
    }
    return outcome


def flash_event_claims(outcome: FlashEventOutcome) -> list[Claim]:
    """The shapes of Figure 5: growth with the followers, decay without them."""
    ref = "figure 5, section 4.6"
    timeline = outcome.replicas_by_day
    start, end = outcome.start_day, outcome.end_day
    before = outcome.replicas_during(0.0, start)
    held = outcome.replicas_during(start, end)
    during = [value for day, value in timeline.items() if start <= day <= end]
    peak = max(during) if during else None
    last = timeline[max(timeline)] if timeline else None
    floor = None if before is None else max(1.5, before)
    return [
        compare("replicas_grow", ref, peak, ">=", floor, "1.5 and the pre-event mean"),
        compare("replicas_held", ref, held, ">=", scaled(before, 0.9), "0.9 x pre-event mean"),
        compare("replicas_decay", ref, last, "<=", shifted(before, 0.5), "pre-event mean + 0.5"),
    ]


__all__ = [
    "FlashEventOutcome",
    "flash_event_claims",
    "flash_run_spec",
    "run_figure5",
]
