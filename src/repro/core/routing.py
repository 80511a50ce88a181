"""Routing layer: closest-replica selection and routing-table maintenance.

Every broker conceptually stores, for each view, the location of the closest
replica according to the routing policy (lowest common ancestor, ties broken
by server identifier — paper section 3.2, "Routing policy").  The simulator
keeps a single authoritative replica-location map and resolves the closest
replica on demand, which is functionally identical; what matters for the
evaluation is the *notification traffic*: when the replica set of a view
changes, only the brokers whose answer changes are notified by the view's
write proxy (protocol messages).  Which brokers those are when one replica
joins or leaves is answered from per-device **preference masks** (one
broker bitmask per pair of devices, a pure function of the topology) by
:meth:`RoutingService.preferring_brokers`; the set-based
:meth:`RoutingService.affected_brokers` covers arbitrary changes.

The resolution loops are written against plain distance rows (flat lists
indexed by device) so they compose with the table-backed engine's
integer-id hot paths: no key functions, no per-call closures.
"""

from __future__ import annotations

from collections.abc import Collection

from ..exceptions import RoutingError
from ..topology.base import ClusterTopology

_INFINITY = float("inf")


def _closest(distances, replica_devices) -> int:
    """Device with the lowest (distance, device) key — the routing policy."""
    best_device = _INFINITY
    best_distance = _INFINITY
    for device in replica_devices:
        distance = distances[device]
        if distance < best_distance or (
            distance == best_distance and device < best_device
        ):
            best_distance = distance
            best_device = device
    return best_device


class RoutingService:
    """Closest-replica resolution plus routing-update fan-out computation."""

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self._broker_indices = tuple(broker.index for broker in topology.brokers)
        #: device -> preference-mask row (see :meth:`_prefers_row`)
        self._prefers: dict[int, list[int]] = {}
        #: preference mask -> brokers it names, ascending broker order
        self._mask_brokers: dict[int, tuple[int, ...]] = {}

    # ----------------------------------------------------------- resolution
    def closest_replica(self, broker: int, replica_devices: Collection[int]) -> int:
        """Replica device closest to ``broker``; ties break on device index."""
        if not replica_devices:
            raise RoutingError("view has no replica to route to")
        if len(replica_devices) == 1:
            return next(iter(replica_devices))
        return _closest(self.topology.distance_row(broker), replica_devices)

    # ------------------------------------------------------------- fan-out
    def affected_brokers(
        self,
        before: set[int] | tuple[int, ...],
        after: set[int] | tuple[int, ...],
    ) -> tuple[int, ...]:
        """Brokers whose closest replica changes when the set goes from
        ``before`` to ``after``.

        The routing policy is deterministic, so the write proxy only notifies
        these brokers (paper section 3.2, "Routing tables").  One distance
        row is fetched per broker and shared by both resolutions.
        """
        changed = []
        distance_row = self.topology.distance_row
        for broker in self._broker_indices:
            distances = distance_row(broker)
            old = _closest(distances, before) if before else None
            new = _closest(distances, after) if after else None
            if old != new:
                changed.append(broker)
        return tuple(changed)

    def _prefers_row(self, device: int) -> list[int]:
        """``row[other]``: bitmask (bit *i* = ``_broker_indices[i]``) of the
        brokers that strictly prefer ``device`` to ``other`` under the
        (distance, device) policy.  A pure topology function, built on first
        use; non-leaf devices — on either side — are never preferred.
        """
        row = self._prefers.get(device)
        if row is None:
            row = [0] * len(self.topology.devices)
            bit = 1
            for broker in self._broker_indices:
                distances = self.topology.distance_row(broker)
                own = distances[device]
                if own is not None:
                    for other, distance in enumerate(distances):
                        if distance is not None and (
                            own < distance or (own == distance and device < other)
                        ):
                            row[other] |= bit
                bit <<= 1
            self._prefers[device] = row
        return row

    def preferring_brokers(self, device: int, others: Collection[int]) -> tuple[int, ...]:
        """Brokers that strictly prefer ``device`` to every device of ``others``.

        These are exactly the brokers whose closest replica changes when
        ``device`` joins the replica set ``others``, or leaves it with
        ``others`` surviving — one AND per sibling over precomputed
        preference masks instead of a closest-replica resolution per broker.
        """
        if not others:
            raise RoutingError("view has no replica to route to")
        row = self._prefers_row(device)
        mask = -1
        for other in others:
            mask &= row[other]
        brokers = self._mask_brokers.get(mask)
        if brokers is None:
            brokers = self._mask_brokers[mask] = tuple(
                broker
                for position, broker in enumerate(self._broker_indices)
                if mask >> position & 1
            )
        return brokers

    def next_closest(self, device: int, replica_devices: set[int]) -> int | None:
        """Closest *other* replica as seen from ``device`` (None when sole)."""
        distances = None
        best_device = _INFINITY
        best_distance = _INFINITY
        for other in replica_devices:
            if other == device:
                continue
            if distances is None:
                distances = self.topology.distance_row(device)
            distance = distances[other]
            if distance < best_distance or (
                distance == best_distance and other < best_device
            ):
                best_distance = distance
                best_device = other
        if distances is None:
            return None
        return best_device


__all__ = ["RoutingService"]
