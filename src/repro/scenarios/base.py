"""Scenario interface: pluggable fault and load dynamics for simulations.

A :class:`Scenario` describes *what the world does* to a cluster during a
run, independently of the placement strategy being evaluated.  It
contributes two things:

* a stream of :class:`~repro.scenarios.events.FaultEvent` objects (server
  crashes, drains and recoveries) that the simulator applies in simulated
  time, and
* a request-log transformation (diurnal load modulation) that reshapes the
  workload before the run starts.

Both are derived deterministically from a :class:`ScenarioContext`, so the
same seed always produces the same scenario — a hard requirement for the
determinism regression tests and for comparing strategies under identical
conditions.  Scenarios compose: :class:`CompositeScenario` merges the fault
streams and chains the log transformations of several scenarios.
"""

from __future__ import annotations

import random
from abc import ABC
from dataclasses import dataclass

from ..socialgraph.graph import SocialGraph
from ..topology.base import ClusterTopology
from ..workload.stream import EventStream
from .events import FaultEvent


@dataclass(frozen=True)
class ScenarioContext:
    """Everything a scenario may inspect when materialising itself.

    Scenarios must derive all randomness from :meth:`rng` so that two runs
    with the same seed produce identical event streams and workloads.
    """

    topology: ClusterTopology
    graph: SocialGraph
    seed: int

    def rng(self, salt: str) -> random.Random:
        """Deterministic random generator, independent per ``salt``.

        Seeding with a string goes through Python's deterministic
        byte-hashing path (not the randomised ``hash()``), so streams are
        stable across processes.
        """
        return random.Random(f"{self.seed}:{salt}")


class Scenario(ABC):
    """A pluggable description of infrastructure faults and load dynamics."""

    #: Human-readable name used in reports and rng salting.
    name: str = "scenario"

    def fault_events(self, context: ScenarioContext) -> list[FaultEvent]:
        """Timestamped infrastructure faults to inject (may be empty)."""
        return []

    def transform_stream(self, stream: EventStream, context: ScenarioContext) -> EventStream:
        """Reshape the workload stream (identity by default).

        The simulator stages scenarios at the chunk level, so load scenarios
        reshape paper-scale workloads without materialising them.
        """
        return stream


class CompositeScenario(Scenario):
    """Several scenarios applied together.

    Fault events are merged into one time-ordered stream; workload
    transformations are chained in the order the scenarios were given.
    """

    name = "composite"

    def __init__(self, *scenarios: Scenario) -> None:
        self.scenarios = tuple(scenarios)
        self.name = "+".join(s.name for s in scenarios) or "composite"

    def fault_events(self, context: ScenarioContext) -> list[FaultEvent]:
        events: list[FaultEvent] = []
        for scenario in self.scenarios:
            events.extend(scenario.fault_events(context))
        events.sort(key=lambda event: event.timestamp)
        return events

    def transform_stream(self, stream: EventStream, context: ScenarioContext) -> EventStream:
        for scenario in self.scenarios:
            stream = scenario.transform_stream(stream, context)
        return stream


__all__ = ["CompositeScenario", "Scenario", "ScenarioContext"]
