"""Grid expansion for figure-style experiments.

Every figure/table of the paper is a cross product of independent runs —
strategies x memory budgets x datasets x scenarios.  :class:`RunGrid`
expands those axes into an ordered tuple of :class:`~repro.runtime.spec.RunSpec`
objects that a :class:`~repro.runtime.executor.RuntimeExecutor` can fan out
in one call, and :class:`GridResult` pairs the specs back up with their
results for the figure-specific post-processing.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from ..config import SimulationConfig
from ..simulator.results import SimulationResult
from .spec import GraphSpec, RunSpec, ScenarioSpec, TopologySpec, WorkloadSpec


@dataclass(frozen=True)
class RunGrid:
    """Ordered collection of run specs (one experiment grid)."""

    specs: tuple[RunSpec, ...]

    @staticmethod
    def product(
        topologies: Sequence[TopologySpec] | TopologySpec,
        graphs: Sequence[GraphSpec] | GraphSpec,
        workloads: Sequence[WorkloadSpec] | WorkloadSpec,
        configs: Sequence[SimulationConfig] | SimulationConfig,
        strategies: Sequence[str] | str,
        scenarios: Sequence[ScenarioSpec | None] = (None,),
        **spec_kwargs,
    ) -> "RunGrid":
        """Cross product of the experiment axes.

        Scalar arguments are treated as one-element axes.  The strategy axis
        is innermost so the expansion order matches the paper's reporting
        (every strategy at one grid point, then the next point) — and, for
        the executor, runs that share expensive inputs sit next to each
        other.  Extra keyword arguments go to every :class:`RunSpec`
        verbatim (``strategy_seed``, ``tracked_views``, ...).
        """
        specs = [
            RunSpec(
                topology=topology,
                graph=graph,
                workload=workload,
                strategy=strategy,
                config=config,
                scenario=scenario,
                **spec_kwargs,
            )
            for topology in _axis(topologies)
            for graph in _axis(graphs)
            for workload in _axis(workloads)
            for scenario in _axis(scenarios)
            for config in _axis(configs)
            for strategy in _axis(strategies)
        ]
        return RunGrid(specs=tuple(specs))

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def run(self, executor) -> "GridResult":
        """Execute the grid on an executor; pairs specs with results."""
        return GridResult(self.specs, tuple(executor.run(self.specs)))


def _axis(value) -> tuple:
    """Normalise one grid axis: scalars become one-element axes."""
    if value is None:
        return (None,)
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class GridResult:
    """Results of a grid execution, aligned with the expanded specs."""

    specs: tuple[RunSpec, ...]
    results: tuple[SimulationResult, ...]

    def items(self) -> Iterator[tuple[RunSpec, SimulationResult]]:
        """Iterate ``(spec, result)`` pairs in grid order."""
        return iter(zip(self.specs, self.results))

    def select(self, **criteria) -> list[tuple[RunSpec, SimulationResult]]:
        """Pairs whose spec matches every criterion.

        Criteria compare against :class:`RunSpec` fields by name, with two
        conveniences: ``extra_memory_pct`` matches ``config.extra_memory_pct``
        and ``dataset`` matches ``graph.dataset``.
        """
        matched = []
        for spec, result in self.items():
            for key, expected in criteria.items():
                if key == "extra_memory_pct":
                    actual: object = spec.config.extra_memory_pct
                elif key == "dataset":
                    actual = spec.graph.dataset
                else:
                    actual = getattr(spec, key)
                if actual != expected:
                    break
            else:
                matched.append((spec, result))
        return matched

    def by_strategy(self, **criteria) -> dict[str, SimulationResult]:
        """``{strategy key: result}`` for the pairs matching the criteria."""
        return {spec.strategy: result for spec, result in self.select(**criteria)}


__all__ = ["GridResult", "RunGrid"]
