"""Public key-value API of the store (paper section 3.1).

DynaSoRe exposes the same interface as Facebook's memcache deployment so it
can be dropped in as the caching tier of a social application:

* ``Read(u, L)`` — for every user id in ``L``, return her view;
* ``Write(u)`` — the persistent store processed a new event of user ``u``;
  the in-memory store fetches the new version and updates every replica.

:class:`DynaSoReStore` is the facade gluing together the persistent store
(source of truth), the placement engine (where replicas live and which
broker serves each request) and the actual view payloads held in memory.
"""

from __future__ import annotations

from ..baselines.base import PlacementStrategy
from ..config import DynaSoReConfig, SimulationConfig
from ..exceptions import SimulationError
from ..persistence.backend import PersistentStore
from ..socialgraph.graph import SocialGraph
from ..store.memory import MemoryBudget
from ..store.view import View
from ..topology.base import ClusterTopology
from ..traffic.accounting import TrafficAccountant
from .engine import DynaSoRe


class DynaSoReStore:
    """In-memory social view store with a memcache-compatible API.

    Parameters
    ----------
    topology:
        The data-center topology the store is deployed on.
    graph:
        The social graph (used for default read target lists and by the
        placement engine's initial partitioning).
    extra_memory_pct:
        Memory budget beyond one replica per view (paper section 2.3).
    strategy:
        An unbound placement strategy, deployed here; defaults to DynaSoRe
        initialised from a hierarchy-aware partitioning of the social graph.
        A given strategy keeps the seed it was constructed with.
    config, seed:
        The default DynaSoRe's tunables and seed (only used when
        ``strategy`` is not provided).
    """

    def __init__(
        self,
        topology: ClusterTopology,
        graph: SocialGraph,
        extra_memory_pct: float = 30.0,
        strategy: PlacementStrategy | None = None,
        config: DynaSoReConfig | None = None,
        persistent_store: PersistentStore | None = None,
        seed: int = 7,
    ) -> None:
        self.topology = topology
        self.graph = graph
        self.persistent = persistent_store or PersistentStore()
        self.accountant = TrafficAccountant(topology, bucket_width=SimulationConfig().bucket_width)
        self.budget = MemoryBudget(
            views=graph.num_users,
            extra_memory_pct=extra_memory_pct,
            servers=len(topology.servers),
        )
        self.strategy = strategy or DynaSoRe(
            initializer="hmetis", config=config or DynaSoReConfig(), seed=seed
        )
        self.strategy.bind(topology, graph, self.accountant, self.budget)
        #: In-memory view payloads (one logical copy; physical replicas are
        #: tracked by the placement strategy).
        self._views: dict[int, View] = {}
        self._clock: float = 0.0

    # ------------------------------------------------------------------ time
    def advance_time(self, now: float) -> None:
        """Move the store's clock forward; requests are stamped with it.

        Only the clock moves: :meth:`run_maintenance` runs the tick.
        """
        if now < self._clock:
            raise SimulationError("time cannot go backwards")
        self._clock = now

    @property
    def now(self) -> float:
        """Current clock of the store."""
        return self._clock

    # ------------------------------------------------------------------- API
    def read(self, user: int, targets: list[int] | tuple[int, ...] | None = None) -> dict[int, View]:
        """``Read(u, L)``: return the view of every user id in ``L``.

        When ``L`` is omitted the store reads the views of every user ``u``
        follows in the social graph, which is how feed requests are issued.
        """
        if targets is None:
            targets = tuple(self.graph.following(user)) if self.graph.has_user(user) else ()
        self.strategy.execute_read(user, self._clock, targets=tuple(targets))
        return {target: self._materialised_view(target) for target in targets}

    def write(self, user: int, payload: bytes = b"") -> int:
        """``Write(u)``: durably apply an event of ``user`` and refresh replicas.

        The event goes to the persistent store first (durability), which then
        notifies the write proxy; the in-memory copy is refreshed from the
        persistent store, exactly like the paper's cache-coherence protocol.
        Returns the new view version.
        """
        version = self.persistent.process_write(user, self._clock, payload)
        self.strategy.execute_write(user, self._clock)
        self._views[user] = self.persistent.fetch_view(user)
        return version

    def _materialised_view(self, user: int) -> View:
        view = self._views.get(user)
        if view is None:
            view = self.persistent.fetch_view(user)
            self._views[user] = view
        return view

    # ---------------------------------------------------------- maintenance
    def run_maintenance(self) -> None:
        """Run the periodic maintenance tick of the placement strategy."""
        self.strategy.on_tick(self._clock)

    # --------------------------------------------------------- introspection
    def replica_count(self, user: int) -> int:
        """Number of replicas of a user's view."""
        return self.strategy.replica_count(user)

    def top_switch_traffic(self) -> float:
        """Traffic recorded at the top switch since the store was created."""
        return self.accountant.top_switch_traffic()

    def traffic_snapshot(self):
        """Full traffic snapshot (per device and per level)."""
        return self.accountant.snapshot()


__all__ = ["DynaSoReStore"]
