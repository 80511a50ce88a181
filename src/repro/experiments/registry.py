"""Registry of every reproducible experiment (figure/table → runner).

The registry lets the command-line runner (and EXPERIMENTS.md, which
``python -m repro run all --profile laptop --report EXPERIMENTS.md``
writes) refer to experiments by the identifiers used in the paper:
``table1``, ``figure2``, ``figure3a`` … ``figure6b``, ``table2``,
``table3``.  Each entry names the runner, the renderer and the ``claims``
function that sits next to the runner and states what the paper asserts
about its result.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..config import ExperimentProfile
from ..runtime.executor import RuntimeExecutor
from . import report
from .claims import Claim
from .datasets import dataset_claims, run_table1
from .figure2 import run_figure2, trace_activity_claims
from .figure3 import (
    memory_sweep_claims,
    run_figure3a,
    run_figure3b,
    run_figure3c,
    run_figure3d,
)
from .figure4 import run_figure4, traffic_over_time_claims
from .figure5 import flash_event_claims, run_figure5
from .figure6 import convergence_claims, run_figure6a, run_figure6b
from .figure7 import crash_recovery_claims, run_figure7
from .tables import run_table2, run_table3, switch_traffic_claims


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment."""

    identifier: str
    description: str
    runner: Callable[..., object]
    renderer: Callable[[object], str]
    #: The shapes the paper asserts about the runner's result.
    claims: Callable[[object], list[Claim]]

    def run(
        self, profile: ExperimentProfile, executor: RuntimeExecutor | None = None
    ) -> object:
        """Run the experiment at the given profile's scale.

        ``executor`` (workers, result cache, progress reporting) is threaded
        into every runner; ``None`` means serial in-process execution.
        """
        return self.runner(profile, executor=executor)


EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment(
        "table1",
        "Datasets (users and links)",
        run_table1,
        report.render_table1,
        dataset_claims,
    ),
    "figure2": Experiment(
        "figure2",
        "Trace reads/writes per day",
        run_figure2,
        report.render_figure2,
        trace_activity_claims,
    ),
    "figure3a": Experiment(
        "figure3a",
        "Top-switch traffic vs extra memory (Twitter, tree)",
        run_figure3a,
        report.render_figure3,
        memory_sweep_claims,
    ),
    "figure3b": Experiment(
        "figure3b",
        "Top-switch traffic vs extra memory (LiveJournal, tree)",
        run_figure3b,
        report.render_figure3,
        memory_sweep_claims,
    ),
    "figure3c": Experiment(
        "figure3c",
        "Top-switch traffic vs extra memory (Facebook, tree)",
        run_figure3c,
        report.render_figure3,
        memory_sweep_claims,
    ),
    "figure3d": Experiment(
        "figure3d",
        "Top-switch traffic vs extra memory (Facebook, flat)",
        run_figure3d,
        report.render_figure3,
        memory_sweep_claims,
    ),
    "table2": Experiment(
        "table2",
        "Per-level switch traffic, 30% extra memory",
        run_table2,
        report.render_switch_table,
        switch_traffic_claims,
    ),
    "table3": Experiment(
        "table3",
        "Per-level switch traffic, 150% extra memory",
        run_table3,
        report.render_switch_table,
        switch_traffic_claims,
    ),
    "figure4": Experiment(
        "figure4",
        "Top-switch traffic over time (real trace, Facebook, 50%)",
        run_figure4,
        report.render_figure4,
        traffic_over_time_claims,
    ),
    "figure5": Experiment(
        "figure5",
        "Flash event: replicas and reads per replica",
        run_figure5,
        report.render_figure5,
        flash_event_claims,
    ),
    "figure6a": Experiment(
        "figure6a",
        "Convergence with synthetic requests",
        run_figure6a,
        report.render_figure6,
        convergence_claims,
    ),
    "figure6b": Experiment(
        "figure6b",
        "Convergence with real requests",
        run_figure6b,
        report.render_figure6,
        convergence_claims,
    ),
    "figure7": Experiment(
        "figure7",
        "Crash & recovery: traffic and availability under server failures",
        run_figure7,
        report.render_figure7,
        crash_recovery_claims,
    ),
}


def get_experiment(identifier: str) -> Experiment:
    """Look up an experiment by identifier (raises KeyError with guidance)."""
    if identifier not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {identifier!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[identifier]


__all__ = ["EXPERIMENTS", "Experiment", "get_experiment"]
