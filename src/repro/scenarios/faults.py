"""Infrastructure-fault scenario generator.

:class:`CrashRecoverScenario` expresses server faults as a stream of
:class:`~repro.scenarios.events.FaultEvent`: one or more servers crash (or
drain gracefully) at a given time and optionally come back later,
exercising WAL-driven recovery.  Unpinned servers are drawn from the
scenario context's seeded generator, so a given seed always yields the same
fault stream.
"""

from __future__ import annotations

from ..exceptions import SimulationError
from .base import Scenario, ScenarioContext
from .events import FaultEvent, NodeLeave, ServerCrash, ServerRecovery


class CrashRecoverScenario(Scenario):
    """Crash ``count`` servers at ``crash_time``; recover them later.

    ``positions`` pins the crashed servers; when omitted they are sampled
    deterministically from the seed.  ``recover_time=None`` means the
    servers never come back (permanent capacity loss).  ``graceful=True``
    turns the crashes into drains (views are copied out, no data loss and
    no persistent-store fetches).
    """

    name = "crash-recover"

    def __init__(
        self,
        crash_time: float,
        recover_time: float | None = None,
        positions: tuple[int, ...] | None = None,
        count: int = 1,
        graceful: bool = False,
    ) -> None:
        if recover_time is not None and recover_time <= crash_time:
            raise SimulationError("recover_time must come after crash_time")
        if count < 1:
            raise SimulationError("at least one server must crash")
        self.crash_time = crash_time
        self.recover_time = recover_time
        self.positions = positions
        self.count = count
        self.graceful = graceful

    def fault_events(self, context: ScenarioContext) -> list[FaultEvent]:
        servers = len(context.topology.servers)
        if self.positions is not None:
            positions = self.positions
        else:
            if self.count >= servers:
                raise SimulationError(
                    f"cannot crash {self.count} of {servers} servers; "
                    "at least one must survive"
                )
            rng = context.rng(f"{self.name}:{self.count}")
            positions = tuple(sorted(rng.sample(range(servers), self.count)))
        for position in positions:
            if not 0 <= position < servers:
                raise SimulationError(f"invalid server position {position}")
        down_class = NodeLeave if self.graceful else ServerCrash
        events: list[FaultEvent] = [
            down_class(self.crash_time, position) for position in positions
        ]
        if self.recover_time is not None:
            events.extend(
                ServerRecovery(self.recover_time, position) for position in positions
            )
        return events


__all__ = ["CrashRecoverScenario"]
