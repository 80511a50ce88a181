"""Common interface shared by the tree and flat cluster topologies.

The placement algorithms only ever interact with a topology through this
interface: they ask for the switch path between two leaf machines, for the
network distance (number of switches traversed), for the coarse-grained
*origin* of an access as seen from a storage server (paper section 3.2,
"Access statistics") and for the cost of serving an origin from a candidate
server.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .devices import Device


class ClusterTopology(ABC):
    """Abstract view of a data-center network as seen by DynaSoRe."""

    #: All devices (switches and leaf machines), indexed by ``Device.index``.
    devices: list[Device]
    #: Storage servers, i.e. machines that hold view replicas.
    servers: list[Device]
    #: Brokers, i.e. machines that host read/write proxies.
    brokers: list[Device]
    #: Switches (every non-leaf device).
    switches: list[Device]

    # ------------------------------------------------------------------ paths
    @abstractmethod
    def path_between(self, leaf_a: int, leaf_b: int) -> tuple[int, ...]:
        """Indices of the switches traversed by a message from ``leaf_a`` to
        ``leaf_b``.  An empty tuple means the message never leaves the
        machine (only possible when a broker and a server are the same
        physical machine, as in the flat topology)."""

    def distance(self, leaf_a: int, leaf_b: int) -> int:
        """Network distance: number of switches on the path (paper §2.2)."""
        return len(self.path_between(leaf_a, leaf_b))

    # --------------------------------------------------- precomputed tables
    # Topologies are immutable once built, so per-leaf rows of paths,
    # distances and origin costs can be resolved once and then served as
    # plain list lookups.  The rows are built lazily (only the leaves a
    # simulation actually touches pay the construction cost) and cached for
    # the lifetime of the topology.  They are what the traffic accountant
    # and the utility computation index in their hot loops.

    def _ensure_table_caches(self) -> None:
        if not hasattr(self, "_path_rows"):
            count = len(self.devices)
            self._path_rows: list[list[tuple[int, ...] | None] | None] = [None] * count
            self._distance_rows: list[list[int | None] | None] = [None] * count
            self._cost_rows: list[list[int | None] | None] = [None] * count
            self._origin_label_cache: tuple[int, ...] | None = None

    def _build_path_row(self, leaf: int) -> list[tuple[int, ...] | None]:
        """Switch paths from ``leaf`` to every other leaf (None elsewhere)."""
        row: list[tuple[int, ...] | None] = [None] * len(self.devices)
        for device in self.devices:
            if device.kind.is_leaf:
                row[device.index] = self.path_between(leaf, device.index)
        return row

    def path_row(self, leaf: int) -> list[tuple[int, ...] | None]:
        """Cached row of switch paths from ``leaf`` to every leaf device.

        Entries for non-leaf destinations are ``None``; raises when ``leaf``
        itself is not a leaf machine.
        """
        self._ensure_table_caches()
        if not 0 <= leaf < len(self.devices) or not self.devices[leaf].kind.is_leaf:
            from ..exceptions import TopologyError

            raise TopologyError(f"device {leaf} is not a leaf machine")
        row = self._path_rows[leaf]
        if row is None:
            row = self._build_path_row(leaf)
            self._path_rows[leaf] = row
        return row

    def distance_row(self, leaf: int) -> list[int | None]:
        """Cached row of network distances from ``leaf`` to every leaf."""
        try:
            row = self._distance_rows[leaf]
        except AttributeError:
            self._ensure_table_caches()
            row = self._distance_rows[leaf]
        if row is None:
            paths = self.path_row(leaf)
            row = [len(path) if path is not None else None for path in paths]
            self._distance_rows[leaf] = row
        return row

    def origin_labels(self) -> tuple[int, ...]:
        """Every origin label any storage server may record."""
        self._ensure_table_caches()
        if self._origin_label_cache is None:
            labels: set[int] = set()
            for server in self.servers:
                labels.update(self.origin_regions(server.index))
            self._origin_label_cache = tuple(sorted(labels))
        return self._origin_label_cache

    def cost_row(self, leaf: int) -> list[int | None]:
        """Cached ``origin -> switches traversed`` costs of serving from
        ``leaf`` (None for devices that are not valid origin labels)."""
        try:
            row = self._cost_rows[leaf]
        except AttributeError:
            self._ensure_table_caches()
            row = self._cost_rows[leaf]
        if row is None:
            row = [None] * len(self.devices)
            for origin in self.origin_labels():
                row[origin] = self.cost_from_origin(origin, leaf)
            self._cost_rows[leaf] = row
        return row

    # ------------------------------------------------------ origin coarsening
    @abstractmethod
    def origin_of(self, observer_server: int, source_leaf: int) -> int:
        """Coarse-grained origin label of an access.

        ``observer_server`` is the storage server recording the access and
        ``source_leaf`` the broker (or machine) issuing it.  The label is the
        index of the switch used as the aggregation bucket: the source's rack
        switch when it shares the observer's intermediate switch, otherwise
        the source's intermediate switch (paper section 3.2)."""

    @abstractmethod
    def origin_regions(self, observer_server: int) -> tuple[int, ...]:
        """All origin labels a given server may record."""

    @abstractmethod
    def cost_from_origin(self, origin: int, server: int) -> int:
        """Number of switches traversed by a request issued from ``origin``
        and served by ``server``.  Used by Algorithm 1 to price reads."""

    @abstractmethod
    def servers_under(self, origin: int) -> tuple[int, ...]:
        """Indices of the storage servers located below an origin label."""

    @abstractmethod
    def brokers_under(self, switch: int) -> tuple[int, ...]:
        """Indices of the brokers located below a switch."""

    # ------------------------------------------------------------- structure
    @abstractmethod
    def rack_of(self, leaf: int) -> int:
        """Index of the rack switch of a leaf machine."""

    @abstractmethod
    def intermediate_of(self, leaf: int) -> int:
        """Index of the intermediate switch of a leaf machine."""

    @abstractmethod
    def broker_for_rack(self, rack_switch: int) -> int:
        """Index of a broker attached to the given rack switch."""

    @abstractmethod
    def level_of(self, switch: int) -> str:
        """Report level of a switch: ``"top"``, ``"intermediate"`` or
        ``"rack"``."""

    def proxy_broker_for_server(self, server_leaf: int) -> int:
        """Broker naturally associated with a storage server.

        In the tree topology this is the broker of the server's rack (the
        baselines deploy a user's proxies on the broker of the rack hosting
        her view); the flat topology overrides this because every machine is
        its own broker.
        """
        return self.broker_for_rack(self.rack_of(server_leaf))

    # ------------------------------------------------------------ convenience
    @property
    def top_switch(self) -> Device:
        """The root switch of the topology."""
        return self.switches[0]

    def describe(self) -> str:
        """One-line human readable description of the topology."""
        return (
            f"{type(self).__name__}: {len(self.switches)} switches, "
            f"{len(self.servers)} servers, {len(self.brokers)} brokers"
        )


__all__ = ["ClusterTopology"]
