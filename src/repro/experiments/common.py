"""Shared scaffolding of the experiment harness.

Every figure/table experiment needs the same ingredients: a topology built
from the profile's cluster spec, a scaled social graph, a request log, and
the set of strategies evaluated by the paper (Random, METIS, hMETIS, SPAR,
DynaSoRe from several initial placements).  This module translates an
:class:`~repro.config.ExperimentProfile` into the *declarative* spec layer
(:mod:`repro.runtime.spec`) that the figure/table modules expand into run
grids.
"""

from __future__ import annotations

from ..config import ExperimentProfile, SimulationConfig
from ..runtime.executor import RuntimeExecutor
from ..runtime.spec import GraphSpec, TopologySpec, WorkloadSpec

#: Names of the social graphs used by the paper's evaluation.
DATASETS = ("twitter", "facebook", "livejournal")


# ---------------------------------------------------------------- spec layer
def default_executor(executor: RuntimeExecutor | None) -> RuntimeExecutor:
    """The executor an experiment runs on: the given one, or serial/no-cache.

    Experiments accept ``executor=None`` so tests and library callers get
    plain in-process execution; the CLI builds a configured executor
    (workers, cache, progress) and threads it through.
    """
    return executor if executor is not None else RuntimeExecutor()


def topology_spec(profile: ExperimentProfile, flat: bool = False) -> TopologySpec:
    """Declarative topology of the profile (tree, or section 4.5's flat)."""
    if flat:
        return TopologySpec.flat(profile.flat_machines)
    return TopologySpec.tree(profile.cluster)


def graph_spec(profile: ExperimentProfile, dataset: str) -> GraphSpec:
    """Declarative scaled analogue of one paper dataset."""
    return GraphSpec(dataset=dataset, users=profile.users[dataset], seed=profile.seed)


def synthetic_workload_spec(profile: ExperimentProfile) -> WorkloadSpec:
    """Declarative synthetic request log (paper section 4.2)."""
    return WorkloadSpec(kind="synthetic", days=profile.synthetic_days, seed=profile.seed)


def trace_workload_spec(profile: ExperimentProfile) -> WorkloadSpec:
    """Declarative Yahoo!-News-Activity-like request log (section 4.2)."""
    return WorkloadSpec(kind="trace", days=profile.trace_days, seed=profile.seed)


def simulation_config(
    profile: ExperimentProfile,
    extra_memory_pct: float,
    measure_from: float = 0.0,
) -> SimulationConfig:
    """Simulation configuration for one memory point.

    ``measure_from`` discards traffic recorded before that simulated time —
    the paper measures Figure 3 and the tables *after convergence*, so those
    experiments use the first part of the request log as a warm-up phase.
    """
    return SimulationConfig(
        extra_memory_pct=extra_memory_pct, measure_from=measure_from, seed=profile.seed
    )


def convergence_cutoff(profile: ExperimentProfile) -> float:
    """Simulated time after which steady-state traffic is measured.

    The paper observes that DynaSoRe almost reaches its best performance
    after a few hours of traffic; half the synthetic trace is a comfortable
    warm-up at every profile scale.
    """
    from ..constants import DAY

    return profile.synthetic_days * DAY / 2.0


__all__ = [
    "DATASETS",
    "default_executor",
    "graph_spec",
    "simulation_config",
    "synthetic_workload_spec",
    "topology_spec",
    "trace_workload_spec",
]
