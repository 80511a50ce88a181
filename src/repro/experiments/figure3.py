"""Figure 3 — top-switch traffic versus extra memory capacity.

Figures 3a–3c plot, for the Twitter, LiveJournal and Facebook graphs on the
tree topology, the traffic crossing the top switch (normalised by the Random
baseline) as the cluster's extra memory grows from 0% to 200%.  The curves
compare SPAR against DynaSoRe initialised from Random, METIS and hierarchical
METIS placements.  Figure 3d repeats the Facebook experiment on a flat
topology (every machine is both cache and broker).

Expected shape (:func:`memory_sweep_claims`): at every memory point DynaSoRe
uses the memory more efficiently than SPAR; the static partitioning
initialisations dominate the random initialisation; and all curves decrease
as memory grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ExperimentProfile
from ..runtime.executor import RuntimeExecutor
from ..runtime.grid import RunGrid
from .claims import Claim, compare, scaled, shifted
from .common import (
    convergence_cutoff,
    default_executor,
    graph_spec,
    simulation_config,
    synthetic_workload_spec,
    topology_spec,
)

#: Strategy labels plotted by Figure 3 (plus the normalising Random run).
FIGURE3_STRATEGIES = (
    "random",
    "spar",
    "dynasore_random",
    "dynasore_metis",
    "dynasore_hmetis",
)

#: The flat-topology variant omits hMETIS, as the paper does (no hierarchy).
FIGURE3_FLAT_STRATEGIES = ("random", "spar", "dynasore_random", "dynasore_metis")


@dataclass
class MemorySweepResult:
    """Normalised top-switch traffic per strategy per memory point."""

    dataset: str
    topology: str
    #: extra-memory percentage -> {strategy label -> normalised traffic}
    points: dict[float, dict[str, float]] = field(default_factory=dict)
    #: extra-memory percentage -> {strategy label -> absolute traffic}
    absolute: dict[float, dict[str, float]] = field(default_factory=dict)

    def series(self, strategy: str) -> list[tuple[float, float]]:
        """(extra memory, normalised traffic) series of one strategy."""
        return [
            (memory, values[strategy])
            for memory, values in sorted(self.points.items())
            if strategy in values
        ]


def run_memory_sweep(
    profile: ExperimentProfile,
    dataset: str,
    flat: bool = False,
    memory_points: tuple[float, ...] | None = None,
    strategies: tuple[str, ...] | None = None,
    executor: RuntimeExecutor | None = None,
) -> MemorySweepResult:
    """Run the Figure 3 sweep for one dataset on one topology.

    The sweep is declared as one strategy x memory grid and fanned out in a
    single executor call, so ``--jobs N`` parallelises across *both* axes.
    """
    if strategies is None:
        strategies = FIGURE3_FLAT_STRATEGIES if flat else FIGURE3_STRATEGIES
    if memory_points is None:
        memory_points = profile.memory_sweep

    cutoff = convergence_cutoff(profile)
    grid = RunGrid.product(
        topology_spec(profile, flat=flat),
        graph_spec(profile, dataset),
        synthetic_workload_spec(profile),
        [
            simulation_config(profile, memory, measure_from=cutoff)
            for memory in memory_points
        ],
        strategies,
    )
    outcome = grid.run(default_executor(executor))

    result = MemorySweepResult(dataset=dataset, topology="flat" if flat else "tree")
    for memory in memory_points:
        runs = outcome.by_strategy(extra_memory_pct=memory)
        reference = runs["random"].top_switch_traffic
        result.points[memory] = {
            label: (run.top_switch_traffic / reference if reference else 0.0)
            for label, run in runs.items()
        }
        result.absolute[memory] = {
            label: run.top_switch_traffic for label, run in runs.items()
        }
    return result


#: Sub-figure of each (dataset, topology) panel, for the claims' references.
_PANELS = {
    ("twitter", "tree"): "figure 3a",
    ("livejournal", "tree"): "figure 3b",
    ("facebook", "tree"): "figure 3c",
    ("facebook", "flat"): "figure 3d, section 4.5",
}


def memory_sweep_claims(result: MemorySweepResult) -> list[Claim]:
    """The shapes of Figure 3, checked at every memory point that was run.

    The DynaSoRe curve under test is the best-initialised one of the panel:
    hMETIS on the tree, METIS on the flat topology — which has no
    hierarchy for the initial placement to exploit and a narrower gap to
    SPAR (section 4.5), so those two claims are made of the tree only.
    """
    ref = _PANELS.get((result.dataset, result.topology), "figure 3")
    flat = result.topology == "flat"
    label = "dynasore_metis" if flat else "dynasore_hmetis"
    claims: list[Claim] = []
    curve: dict[float, float | None] = {}
    spar_curve: dict[float, float | None] = {}
    for memory in sorted(result.points):
        # A point whose Random run saw no traffic measured nothing.
        measured = result.absolute.get(memory, {}).get("random")
        values = result.points[memory] if measured else {}
        dynasore = curve[memory] = values.get(label)
        spar = spar_curve[memory] = values.get("spar")
        at = f"@{memory:g}"
        claims += [
            compare(f"random_is_one{at}", ref, values.get("random"), "=", 1.0),
            compare(f"spar_at_most_random{at}", ref, spar, "<=", 1.05, "Random + 0.05"),
            compare(f"dynasore_below_spar{at}", ref, dynasore, "<", spar, "SPAR"),
        ]
        if flat:
            name = f"dynasore_below_random{at}"
            claims.append(compare(name, ref, dynasore, "<", 1.0, "Random"))
        else:
            name = f"hmetis_init_not_worse{at}"
            limit = shifted(values.get("dynasore_random"), 0.05)
            claims.append(
                compare(name, f"{ref}, section 4.4", dynasore, "<=", limit, "Random init + 0.05")
            )

    memories = sorted(curve)
    rises = [
        None if curve[low] is None or curve[high] is None else curve[high] - curve[low]
        for low, high in zip(memories, memories[1:])
    ]
    largest_rise = max(rises) if rises and None not in rises else None
    note = "largest rise between consecutive memory points"
    claims.append(compare("monotone_in_memory", ref, largest_rise, "<=", 0.05, note))
    if not flat:
        with_memory = [memory for memory in memories if 0 < memory <= 100]
        richest = max(with_memory) if with_memory else None
        limit = scaled(spar_curve.get(richest), 0.8)
        note = "0.8 x SPAR at the largest memory point <= 100%"
        claims.append(compare("clear_win_with_memory", ref, curve.get(richest), "<", limit, note))
    return claims


def run_figure3a(profile: ExperimentProfile, **kwargs) -> MemorySweepResult:
    """Figure 3a: Twitter graph, tree topology."""
    return run_memory_sweep(profile, "twitter", flat=False, **kwargs)


def run_figure3b(profile: ExperimentProfile, **kwargs) -> MemorySweepResult:
    """Figure 3b: LiveJournal graph, tree topology."""
    return run_memory_sweep(profile, "livejournal", flat=False, **kwargs)


def run_figure3c(profile: ExperimentProfile, **kwargs) -> MemorySweepResult:
    """Figure 3c: Facebook graph, tree topology."""
    return run_memory_sweep(profile, "facebook", flat=False, **kwargs)


def run_figure3d(profile: ExperimentProfile, **kwargs) -> MemorySweepResult:
    """Figure 3d: Facebook graph, flat topology."""
    return run_memory_sweep(profile, "facebook", flat=True, **kwargs)


__all__ = [
    "FIGURE3_FLAT_STRATEGIES",
    "FIGURE3_STRATEGIES",
    "MemorySweepResult",
    "memory_sweep_claims",
    "run_figure3a",
    "run_figure3b",
    "run_figure3c",
    "run_figure3d",
    "run_memory_sweep",
]
