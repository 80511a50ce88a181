"""Tables 2 and 3 — per-level switch traffic at 30% and 150% extra memory.

The paper's Tables 2 and 3 report, for the three social graphs, the average
traffic of top, intermediate and rack switches under DynaSoRe (initialised
from hMETIS) and SPAR, normalised by the corresponding switch traffic under
the Random baseline.  Table 2 uses 30% extra memory, Table 3 uses 150%.

Expected shape (:func:`switch_traffic_claims`): DynaSoRe's relative traffic
is far below SPAR's at every level, the reduction is strongest at the top
switch, and rack switches benefit the least (paper: top ≈ 0.04–0.07 for
DynaSoRe at 30%).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ExperimentProfile
from ..runtime.executor import RuntimeExecutor
from ..runtime.grid import RunGrid
from .claims import Claim, compare, shifted
from .common import (
    DATASETS,
    convergence_cutoff,
    default_executor,
    graph_spec,
    simulation_config,
    synthetic_workload_spec,
    topology_spec,
)

#: Switch levels reported by the tables.
LEVELS = ("top", "intermediate", "rack")

#: Strategies reported by the tables (normalised against Random).
TABLE_STRATEGIES = ("random", "spar", "dynasore_hmetis")


@dataclass
class SwitchTrafficTable:
    """Reproduction of Table 2 or Table 3."""

    extra_memory_pct: float
    #: dataset -> {(strategy, level) -> normalised traffic}
    cells: dict[str, dict[tuple[str, str], float]] = field(default_factory=dict)

    def value(self, dataset: str, strategy: str, level: str) -> float:
        """One normalised cell of the table."""
        return self.cells[dataset][(strategy, level)]

    def measured(self, dataset: str, strategy: str, level: str) -> float | None:
        """One cell, or None when it was not run or Random saw no traffic."""
        cells = self.cells.get(dataset, {})
        if not cells.get(("random", level)):
            return None
        return cells.get((strategy, level))


def run_switch_traffic_table(
    profile: ExperimentProfile,
    extra_memory_pct: float,
    datasets: tuple[str, ...] = DATASETS,
    executor: RuntimeExecutor | None = None,
) -> SwitchTrafficTable:
    """Run the simulations behind Table 2 (30%) or Table 3 (150%).

    The whole table is one dataset x strategy grid fanned out in a single
    executor call.
    """
    table = SwitchTrafficTable(extra_memory_pct=extra_memory_pct)
    config = simulation_config(
        profile, extra_memory_pct, measure_from=convergence_cutoff(profile)
    )
    grid = RunGrid.product(
        topology_spec(profile),
        [graph_spec(profile, dataset) for dataset in datasets],
        synthetic_workload_spec(profile),
        config,
        TABLE_STRATEGIES,
    )
    outcome = grid.run(default_executor(executor))
    for dataset in datasets:
        runs = outcome.by_strategy(dataset=dataset)
        baseline = runs["random"]
        cells: dict[tuple[str, str], float] = {}
        for label, run in runs.items():
            for level in LEVELS:
                reference = baseline.level_traffic(level)
                cells[(label, level)] = (
                    run.level_traffic(level) / reference if reference else 0.0
                )
        table.cells[dataset] = cells
    return table


def run_table2(
    profile: ExperimentProfile,
    datasets: tuple[str, ...] = DATASETS,
    executor: RuntimeExecutor | None = None,
) -> SwitchTrafficTable:
    """Table 2: per-level switch traffic with 30% extra memory."""
    return run_switch_traffic_table(profile, 30.0, datasets, executor=executor)


def run_table3(
    profile: ExperimentProfile,
    datasets: tuple[str, ...] = DATASETS,
    executor: RuntimeExecutor | None = None,
) -> SwitchTrafficTable:
    """Table 3: per-level switch traffic with 150% extra memory."""
    return run_switch_traffic_table(profile, 150.0, datasets, executor=executor)


def switch_traffic_claims(table: SwitchTrafficTable) -> list[Claim]:
    """The shapes of Tables 2 and 3, per dataset (all three when none ran)."""
    ref = f"table {2 if table.extra_memory_pct <= 30.0 else 3}"
    claims: list[Claim] = []
    for dataset in sorted(table.cells) or list(DATASETS):
        for level in LEVELS:
            name = f"dynasore_at_most_spar@{dataset}/{level}"
            dynasore = table.measured(dataset, "dynasore_hmetis", level)
            limit = shifted(table.measured(dataset, "spar", level), 0.05)
            claims.append(compare(name, ref, dynasore, "<=", limit, "SPAR + 0.05"))
        top = table.measured(dataset, "dynasore_hmetis", "top")
        rack = shifted(table.measured(dataset, "dynasore_hmetis", "rack"), 0.05)
        claims += [
            compare(f"top_benefits_most@{dataset}", ref, top, "<=", rack, "rack + 0.05"),
            compare(f"top_clearly_below_random@{dataset}", ref, top, "<", 0.7),
        ]
    return claims


__all__ = [
    "LEVELS",
    "SwitchTrafficTable",
    "TABLE_STRATEGIES",
    "switch_traffic_claims",
    "run_switch_traffic_table",
    "run_table2",
    "run_table3",
]
