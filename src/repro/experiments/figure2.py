"""Figure 2 — reads and writes per day in the Yahoo! News Activity trace.

The paper's Figure 2 plots, for the two-week proprietary trace, the number
of read and write requests per day (millions of events) and shows that the
trace is write-heavy with visible day-to-day variation.  This experiment
generates the synthetic analogue of the trace and reports the same per-day
series.

Expected shape (:func:`trace_activity_claims`): write-heavy by roughly the
paper's 17M writes to 9.8M reads, and the busiest day visibly busier than
the quietest.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ExperimentProfile
from ..runtime.executor import RuntimeExecutor
from ..workload.stream import events_per_day
from .claims import Claim, compare, ratio, within
from .common import graph_spec, trace_workload_spec


@dataclass(frozen=True)
class DailyActivity:
    """Read and write counts for one simulated day."""

    day: int
    reads: int
    writes: int


def run_figure2(
    profile: ExperimentProfile,
    dataset: str = "facebook",
    executor: RuntimeExecutor | None = None,
) -> list[DailyActivity]:
    """Generate the trace and return its per-day read/write counts.

    A pure workload characterisation: no simulation runs, so ``executor``
    (accepted for registry uniformity) is unused.  The trace is consumed as
    a chunk stream — the per-day histogram never materialises an event.
    """
    del executor
    graph = graph_spec(profile, dataset).build()
    stream, _ = trace_workload_spec(profile).build_stream(graph)
    per_day = events_per_day(stream)
    return [
        DailyActivity(day=day, reads=counts["reads"], writes=counts["writes"])
        for day, counts in sorted(per_day.items())
    ]


def trace_summary(series: list[DailyActivity]) -> dict[str, float]:
    """Aggregate properties checked against the paper (write-heavy ratio)."""
    total_reads = sum(day.reads for day in series)
    total_writes = sum(day.writes for day in series)
    return {
        "total_reads": float(total_reads),
        "total_writes": float(total_writes),
        "write_read_ratio": (total_writes / total_reads) if total_reads else 0.0,
        "days": float(len(series)),
    }


def trace_activity_claims(series: list[DailyActivity]) -> list[Claim]:
    """The shapes of Figure 2."""
    ref = "figure 2, section 4.2"
    summary = trace_summary(series)
    writes_per_read = ratio(summary["total_writes"], summary["total_reads"])
    daily = [day.reads + day.writes for day in series]
    spread = ratio(max(daily), min(daily)) if daily else None
    return [
        within("write_heavy", ref, writes_per_read, 1.2, 2.6),
        compare("daily_variation", ref, spread, ">", 1.1, "busiest / quietest day"),
    ]


__all__ = ["DailyActivity", "run_figure2", "trace_activity_claims", "trace_summary"]
