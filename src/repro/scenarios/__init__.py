"""Failure and load scenarios for the cluster simulator.

This package turns the simulator from a benign trace replayer into a fault
harness: scenarios inject server crashes with WAL-driven recovery, graceful
drains and diurnal load modulation into any
:class:`~repro.simulator.engine.ClusterSimulator` run, for any placement
strategy.

The pieces:

* :mod:`repro.scenarios.events` — the fault-event primitives applied by the
  simulator (crash, graceful leave, recovery);
* :mod:`repro.scenarios.base` — the :class:`Scenario` interface, the
  deterministic :class:`ScenarioContext`, and scenario composition;
* :mod:`repro.scenarios.faults` — the crash/recover generator;
* :mod:`repro.scenarios.load` — diurnal thinning.

Quick example::

    from repro.scenarios import CrashRecoverScenario
    simulator = ClusterSimulator(topology, graph, strategy, config,
                                 scenario=CrashRecoverScenario(
                                     crash_time=6 * HOUR,
                                     recover_time=18 * HOUR,
                                     count=2))
    result = simulator.run(log)
    assert result.unavailable_views == 0
"""

from .base import CompositeScenario, Scenario, ScenarioContext
from .events import FaultEvent, NodeLeave, ServerCrash, ServerRecovery
from .faults import CrashRecoverScenario
from .load import DiurnalLoadScenario

__all__ = [
    "CompositeScenario",
    "CrashRecoverScenario",
    "DiurnalLoadScenario",
    "FaultEvent",
    "NodeLeave",
    "Scenario",
    "ScenarioContext",
    "ServerCrash",
    "ServerRecovery",
]
