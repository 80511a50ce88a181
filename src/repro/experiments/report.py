"""Plain-text rendering of experiment results.

The experiment modules return structured results; this module renders them
as the rows/series the paper reports, so the command-line runner and
EXPERIMENTS.md can show paper-style tables without any plotting dependency.
:func:`render_claims` renders the verdict table printed under every figure
and :func:`render_report` assembles EXPERIMENTS.md itself — nothing in it
depends on the wall clock, so regenerating the file at the same commit on
the same machine reproduces it byte for byte.
"""

from __future__ import annotations

from .claims import Claim, format_value
from .datasets import DatasetRow
from .figure2 import DailyActivity
from .figure3 import MemorySweepResult
from .figure4 import TrafficOverTime
from .figure5 import FlashEventOutcome
from .figure6 import ConvergenceResult
from .figure7 import CrashRecoveryComparison
from .tables import LEVELS, SwitchTrafficTable


def _format_row(cells: list[str], widths: list[int]) -> str:
    return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))


def render_table1(rows: list[DatasetRow]) -> str:
    """Render the reproduced Table 1."""
    lines = ["Table 1 - datasets (paper scale vs generated scale)"]
    header = ["dataset", "paper users", "paper links", "gen users", "gen links", "avg deg"]
    widths = [12, 12, 12, 10, 10, 8]
    lines.append(_format_row(header, widths))
    for row in rows:
        lines.append(
            _format_row(
                [
                    row.dataset,
                    f"{row.paper_users:,}",
                    f"{row.paper_links:,}",
                    f"{row.generated_users:,}",
                    f"{row.generated_links:,}",
                    f"{row.avg_out_degree:.1f}",
                ],
                widths,
            )
        )
    return "\n".join(lines)


def render_figure2(series: list[DailyActivity]) -> str:
    """Render the per-day read/write counts of the trace."""
    lines = ["Figure 2 - trace activity per day", _format_row(["day", "reads", "writes"], [5, 10, 10])]
    for day in series:
        lines.append(_format_row([str(day.day), str(day.reads), str(day.writes)], [5, 10, 10]))
    return "\n".join(lines)


def render_figure3(result: MemorySweepResult) -> str:
    """Render a Figure 3 memory sweep (normalised top-switch traffic)."""
    strategies = sorted({s for values in result.points.values() for s in values})
    lines = [
        f"Figure 3 - top-switch traffic vs extra memory "
        f"({result.dataset}, {result.topology} topology, normalised by Random)"
    ]
    widths = [10] + [18] * len(strategies)
    lines.append(_format_row(["memory"] + strategies, widths))
    for memory in sorted(result.points):
        row = [f"{memory:.0f}%"] + [
            f"{result.points[memory].get(s, float('nan')):.3f}" for s in strategies
        ]
        lines.append(_format_row(row, widths))
    return "\n".join(lines)


def render_switch_table(table: SwitchTrafficTable) -> str:
    """Render Table 2 or Table 3."""
    lines = [f"Switch traffic normalised by Random, {table.extra_memory_pct:.0f}% extra memory"]
    datasets = sorted(table.cells)
    widths = [28] + [12] * len(datasets)
    lines.append(_format_row(["switch level / strategy"] + datasets, widths))
    for level in LEVELS:
        for strategy in ("dynasore_hmetis", "spar"):
            label = f"{level} {strategy}"
            row = [label] + [
                f"{table.value(dataset, strategy, level):.2f}" for dataset in datasets
            ]
            lines.append(_format_row(row, widths))
    return "\n".join(lines)


def render_figure4(result: TrafficOverTime) -> str:
    """Render the per-day normalised traffic of the real-trace experiment."""
    lines = [
        f"Figure 4 - top-switch traffic over time ({result.dataset}, "
        f"{result.extra_memory_pct:.0f}% extra memory, normalised by Random)"
    ]
    normalised = result.normalised_series()
    strategies = sorted(normalised)
    days = sorted({day for series in normalised.values() for day in series})
    widths = [6] + [18] * len(strategies)
    lines.append(_format_row(["day"] + strategies, widths))
    for day in days:
        row = [str(day)] + [
            f"{normalised[s].get(day, float('nan')):.3f}" for s in strategies
        ]
        lines.append(_format_row(row, widths))
    return "\n".join(lines)


def render_figure5(outcome: FlashEventOutcome) -> str:
    """Render the flash-event replica/read-load timelines."""
    lines = [f"Figure 5 - flash event ({outcome.repetitions} repetitions)"]
    widths = [8, 14, 18]
    lines.append(_format_row(["day", "avg replicas", "reads/replica"], widths))
    for day in sorted(outcome.replicas_by_day):
        lines.append(
            _format_row(
                [
                    f"{day:.1f}",
                    f"{outcome.replicas_by_day[day]:.2f}",
                    f"{outcome.reads_per_replica_by_day.get(day, 0.0):.2f}",
                ],
                widths,
            )
        )
    return "\n".join(lines)


def render_figure6(result: ConvergenceResult) -> str:
    """Render the convergence series (application and system traffic)."""
    lines = [
        f"Figure 6 - convergence ({result.workload} requests, "
        f"{result.extra_memory_pct:.0f}% extra memory)"
    ]
    for label, series in sorted(result.series.items()):
        lines.append(f"strategy: {label}")
        widths = [8, 16, 16]
        lines.append(_format_row(["day", "application", "system"], widths))
        for day in sorted(series.application):
            lines.append(
                _format_row(
                    [
                        f"{day:.2f}",
                        f"{series.application[day]:.4f}",
                        f"{series.system.get(day, 0.0):.4f}",
                    ],
                    widths,
                )
            )
    return "\n".join(lines)


def render_figure7(result: CrashRecoveryComparison) -> str:
    """Render the crash-and-recover comparison."""
    from ..constants import HOUR

    lines = [
        f"Figure 7 - crash and recovery ({result.dataset}, "
        f"{result.extra_memory_pct:.0f}% extra memory, {result.crashes} server(s) "
        f"crash at {result.crash_time / HOUR:.1f}h, recover at "
        f"{result.recover_time / HOUR:.1f}h; traffic normalised by Random)"
    ]
    widths = [18, 10, 12, 12, 10, 10]
    lines.append(
        _format_row(
            ["strategy", "traffic", "mem-recov", "disk-recov", "mem-frac", "recovered"],
            widths,
        )
    )
    for label in sorted(result.outcomes):
        outcome = result.outcomes[label]
        lines.append(
            _format_row(
                [
                    label,
                    f"{outcome.normalised_traffic:.3f}",
                    str(outcome.views_recovered_from_memory),
                    str(outcome.views_recovered_from_disk),
                    f"{outcome.memory_recovery_fraction:.0%}",
                    "yes" if outcome.fully_recovered else "NO",
                ],
                widths,
            )
        )
    return "\n".join(lines)


_CLAIM_HEADER = ["claim", "paper", "verdict", "measured", "bound"]


def _claim_row(claim: Claim) -> list[str]:
    verdict = "holds" if claim.holds else "FAILS"
    return [claim.name, claim.paper_ref, verdict, format_value(claim.measured), claim.bound]


def render_claims(claims: list[Claim]) -> str:
    """Render the verdict of every claim about one experiment result."""
    rows = [_CLAIM_HEADER] + [_claim_row(claim) for claim in claims]
    widths = [max(len(row[column]) for row in rows) for column in range(len(_CLAIM_HEADER))]
    failed = sum(not claim.holds for claim in claims)
    lines = [f"Claims - {len(claims)} checked, {failed} failed"]
    lines.extend(_format_row(row, widths).rstrip() for row in rows)
    return "\n".join(lines)


def _markdown_table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    lines.append("")
    return lines


def render_report(
    command: str,
    provenance: dict[str, str],
    sections: list[tuple[str, str, str, list[Claim]]],
) -> str:
    """Assemble EXPERIMENTS.md.

    ``provenance`` is the ordered commit / profile / seed / machine table;
    every section is ``(identifier, description, rendered figure, claims)``.
    """
    checked = sum(len(claims) for _, _, _, claims in sections)
    failing = [
        [identifier, *_claim_row(claim)]
        for identifier, _, _, claims in sections
        for claim in claims
        if not claim.holds
    ]
    lines = [
        "# EXPERIMENTS — what this repository reproduces, and how well",
        "",
        f"Generated by `{command}`; regenerate it, do not edit it.  Every table",
        "below is followed by the claims the paper makes about it (defined once,",
        "next to the experiment's runner in `src/repro/experiments/`), each with",
        "the value measured in this run and the bound it is held to.  Rows that",
        "fail are the reproduction's known distance from the paper, not noise:",
        "runs are deterministic for a fixed seed.",
        "",
    ]
    lines.extend(_markdown_table(["", ""], [[f"**{k}**", v] for k, v in provenance.items()]))
    lines.extend(
        [
            "## Summary",
            "",
            f"{checked} claims over {len(sections)} experiments: "
            f"{checked - len(failing)} hold, {len(failing)} fail.",
            "",
        ]
    )
    if failing:
        lines.extend(_markdown_table(["experiment", *_CLAIM_HEADER], failing))
    for identifier, description, figure, claims in sections:
        lines.extend([f"## {identifier} — {description}", "", "```text"])
        lines.extend(line.rstrip() for line in figure.splitlines())
        lines.extend(["```", ""])
        lines.extend(_markdown_table(_CLAIM_HEADER, [_claim_row(claim) for claim in claims]))
    return "\n".join(lines)


__all__ = [
    "render_claims",
    "render_figure2",
    "render_figure3",
    "render_figure4",
    "render_figure5",
    "render_figure6",
    "render_figure7",
    "render_report",
    "render_switch_table",
    "render_table1",
]
