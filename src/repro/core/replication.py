"""Algorithm 2 — Evaluate Creation of Replica (paper section 3.2).

Upon serving a read, a server re-examines the access statistics of the view:
for every origin that reads the view, it estimates the profit of placing a
new replica on the least-loaded server of that origin's sub-tree.  If the
best profit exceeds both the admission threshold of the target region and
zero, the server asks the view's write proxy to create the replica there.

``replica`` is duck-typed (``.user``/``.stats``): the engine passes a
rebound table view over the replica's slot, tests may pass a plain
:class:`~repro.store.view.ViewReplica`.  An :class:`EvaluationMemo` lets the
engine share the reference pricing and the per-device prices with the
sole-replica case of Algorithm 3, which uses the same reference replica —
without it every evaluated read priced the identical candidates twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..topology.base import ClusterTopology
from .utility import build_pricing, priced_profit


class EvaluationMemo:
    """Pricing state shared between Algorithm 2 and Algorithm 3.

    Valid only while the underlying statistics are untouched and only for
    evaluations against the same reference replica (the engine passes it to
    Algorithm 3 only for sole replicas, whose migration reference is the
    replica's own server — exactly Algorithm 2's reference).
    """

    __slots__ = ("pricing", "profits")

    def __init__(self) -> None:
        #: :func:`reference_pricing` of the shared reference, built lazily
        self.pricing: tuple | None = None
        #: candidate device -> profit, filled lazily
        self.profits: dict[int, float] = {}


def reference_pricing(
    topology: ClusterTopology, stats, reference_server: int, write_broker: int | None
) -> tuple:
    """:func:`~repro.core.utility.build_pricing` state of a view's statistics
    against one reference, as the leading arguments of
    :func:`~repro.core.utility.priced_profit`:
    ``priced_profit(*pricing, candidate_server)``."""
    triples: list = []
    nearest, priced_writes, write_distances = build_pricing(
        topology,
        stats.reads_by_origin().items(),
        stats.total_writes(),
        reference_server,
        write_broker,
        triples,
    )
    return topology, triples, nearest, priced_writes, write_distances, reference_server


@dataclass(frozen=True)
class ReplicationDecision:
    """Outcome of Algorithm 2 for one replica."""

    #: Target server *position* for the new replica, or None when no
    #: profitable placement was found.
    target_position: int | None
    profit: float

    @property
    def should_replicate(self) -> bool:
        """True when a new replica should be requested."""
        return self.target_position is not None


def origin_candidates(
    replica,
    replica_device: int,
    least_loaded_server_under,
    device_of_position,
    position_available=None,
) -> list[tuple[int, int, int]]:
    """Per-origin placement candidates shared by Algorithms 2 and 3.

    For every origin that reads the view, resolve the least-loaded available
    server under that origin (skipping the replica's own server).  Returns
    ``(origin, candidate_position, candidate_device)`` triples.  Both
    algorithms iterate exactly this list, so the engine computes it once per
    evaluated request instead of twice.
    """
    candidates: list[tuple[int, int, int]] = []
    user = replica.user
    for origin in replica.stats.reads_by_origin():
        candidate_position = least_loaded_server_under(origin, user)
        if candidate_position is None:
            continue
        if position_available is not None and not position_available(candidate_position):
            continue
        candidate_device = device_of_position(candidate_position)
        if candidate_device == replica_device:
            continue
        candidates.append((origin, candidate_position, candidate_device))
    return candidates


def evaluate_replica_creation(
    topology: ClusterTopology,
    replica,
    replica_device: int,
    write_broker: int | None,
    least_loaded_server_under,
    admission_threshold_under,
    device_of_position,
    position_available=None,
    candidates: list[tuple[int, int, int]] | None = None,
    memo: EvaluationMemo | None = None,
) -> ReplicationDecision:
    """Run Algorithm 2 for one replica.

    Parameters
    ----------
    topology:
        Cluster topology.
    replica:
        The replica that just served a request (its statistics drive the
        decision).
    replica_device:
        Leaf device index of the server storing ``replica``.
    write_broker:
        Broker hosting the view's write proxy (prices the update traffic of
        the prospective replica).
    least_loaded_server_under:
        Callable ``(origin, user) -> position | None`` returning the
        least-loaded storage-server position under an origin switch that does
        not already store the user's view.
    admission_threshold_under:
        Callable ``(origin) -> float`` returning the lowest admission
        threshold among the servers under an origin switch (the thresholds a
        broker learns through piggybacking).
    device_of_position:
        Callable ``(position) -> leaf device index``.
    position_available:
        Optional callable ``(position) -> bool``; candidates for which it
        returns False are skipped.  The engine passes its server up/down
        mask here so replicas are never created on a crashed or drained
        server, even if a caller's candidate source lags behind a fault.
    candidates:
        Optional precomputed result of :func:`origin_candidates`; when
        omitted it is computed here.
    memo:
        Optional :class:`EvaluationMemo` that captures the reference pricing
        and per-device profits for reuse by a same-reference Algorithm 3 run.
    """
    if candidates is None:
        candidates = origin_candidates(
            replica,
            replica_device,
            least_loaded_server_under,
            device_of_position,
            position_available,
        )
    best_profit = 0.0
    best_position: int | None = None
    pricing = memo.pricing if memo is not None else None
    profits: dict[int, float] = memo.profits if memo is not None else {}
    for origin, candidate_position, candidate_device in candidates:
        profit = profits.get(candidate_device)
        if profit is None:
            if pricing is None:
                pricing = reference_pricing(
                    topology, replica.stats, replica_device, write_broker
                )
                if memo is not None:
                    memo.pricing = pricing
            profit = priced_profit(*pricing, candidate_device)
            profits[candidate_device] = profit
        threshold = admission_threshold_under(origin)
        if profit > threshold and profit > best_profit:
            best_position = candidate_position
            best_profit = profit
    return ReplicationDecision(target_position=best_position, profit=best_profit)


__all__ = [
    "EvaluationMemo",
    "ReplicationDecision",
    "evaluate_replica_creation",
    "origin_candidates",
    "reference_pricing",
]
