"""Normalisation of a set of runs against a baseline run.

Runs are launched declaratively (:class:`~repro.runtime.spec.RunSpec` +
:func:`~repro.runtime.executor.execute_spec` or
:class:`~repro.runtime.executor.RuntimeExecutor`) or directly through
:class:`~repro.simulator.engine.ClusterSimulator`; this module only compares
their results.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..exceptions import SimulationError
from .results import SimulationResult


def normalise_results(
    results: Mapping[str, SimulationResult], baseline_label: str = "random"
) -> dict[str, float]:
    """Top-switch traffic of every run divided by the baseline's traffic.

    Raises :class:`SimulationError` when the baseline is missing or recorded
    no top-switch traffic — a zero baseline means the comparison scenario is
    degenerate (empty log, warm-up window covering the whole run, …) and
    silently returning zeros would hide that.
    """
    baseline = results.get(baseline_label)
    if baseline is None:
        raise SimulationError(
            f"baseline {baseline_label!r} is not among the results "
            f"({', '.join(sorted(results)) or 'none'})"
        )
    reference = baseline.top_switch_traffic
    if reference <= 0:
        raise SimulationError(
            f"baseline {baseline_label!r} recorded no top-switch traffic; "
            "cannot normalise against it (is the request log empty or the "
            "measurement window after every request?)"
        )
    return {
        label: result.top_switch_traffic / reference
        for label, result in results.items()
    }


__all__ = ["normalise_results"]
