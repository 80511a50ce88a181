"""Load-dynamics scenario: diurnal modulation.

Unlike the fault scenario, :class:`DiurnalLoadScenario` injects no
infrastructure events — it thins the request stream with a sinusoidal
day/night profile before the run starts, as a chunk-level transform on the
columnar event stream (a paper-scale workload is never materialised), so
off-peak hours carry less traffic (social workloads are strongly diurnal;
adaptation must not thrash when load ebbs).  The paper's flash event is a
workload option (:mod:`repro.workload.flash`), not a scenario.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from ..constants import DAY
from ..exceptions import SimulationError
from ..workload.stream import EventChunk, EventStream, KIND_WRITE
from .base import Scenario, ScenarioContext


class DiurnalLoadScenario(Scenario):
    """Sinusoidal day/night thinning of the request stream.

    The keep-probability of a read/write at time ``t`` oscillates between
    ``trough_fraction`` (deepest night) and 1.0 (peak), with period
    ``period`` and a phase shift of ``phase`` seconds.  Graph mutations are
    never dropped — the social network evolves regardless of load.
    """

    name = "diurnal"

    def __init__(
        self,
        trough_fraction: float = 0.4,
        period: float = DAY,
        phase: float = 0.0,
    ) -> None:
        if not 0.0 <= trough_fraction <= 1.0:
            raise SimulationError("trough_fraction must lie in [0, 1]")
        if period <= 0:
            raise SimulationError("the diurnal period must be positive")
        self.trough_fraction = trough_fraction
        self.period = period
        self.phase = phase

    def keep_probability(self, timestamp: float) -> float:
        """Probability that a request at ``timestamp`` survives thinning."""
        wave = 0.5 * (1.0 - math.cos(2.0 * math.pi * (timestamp + self.phase) / self.period))
        return self.trough_fraction + (1.0 - self.trough_fraction) * wave

    def transform_stream(self, stream: EventStream, context: ScenarioContext) -> EventStream:
        def _chunks() -> Iterator[EventChunk]:
            # The RNG is created per pass, so re-iterating the transformed
            # stream thins identically; it is consumed once per read/write
            # in stream order, never per chunk.
            rng = context.rng(self.name)
            draw = rng.random
            keep = self.keep_probability
            for chunk in stream.chunks():
                kept = EventChunk()
                append = kept.append
                for kind, timestamp, user, aux in chunk.rows():
                    if kind <= KIND_WRITE and draw() >= keep(timestamp):
                        continue
                    append(kind, timestamp, user, aux)
                if len(kept):
                    yield kept

        return EventStream(_chunks)


__all__ = ["DiurnalLoadScenario"]
