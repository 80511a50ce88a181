"""Algorithm 2 — Evaluate Creation of Replica (paper section 3.2).

Upon serving a read, a server re-examines the access statistics of the view:
for every origin that reads the view, it estimates the profit of placing a
new replica on the least-loaded server of that origin's sub-tree.  If the
best profit exceeds both the admission threshold of the target region and
zero, the server asks the view's write proxy to create the replica there.

The algorithm reads plain values: ``origins`` is the replica's
``reads_by_origin()`` mapping and ``writes`` its window write total, the
same inputs :func:`~repro.core.utility.estimate_profit` prices.  A caller
may pass a ``profits`` dict; it is filled with the price of every candidate
device, so the sole-replica case of Algorithm 3, which prices against the
same reference, reuses them instead of pricing the same candidates twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..topology.base import ClusterTopology
from .utility import estimate_profit


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
    user: int,
    origins,
    replica_device: int,
    least_loaded_server_under,
    device_of_position,
) -> list[tuple[int, int, int]]:
    """Per-origin placement candidates shared by Algorithms 2 and 3.

    For every origin of ``origins`` (in first-record order), resolve the
    least-loaded available server under that origin that does not store
    ``user``'s view, skipping the replica's own server.  Returns
    ``(origin, candidate_position, candidate_device)`` triples.  Both
    algorithms iterate exactly this list, so the engine computes it once per
    evaluated request instead of twice.
    """
    candidates: list[tuple[int, int, int]] = []
    for origin in origins:
        candidate_position = least_loaded_server_under(origin, user)
        if candidate_position is None:
            continue
        candidate_device = device_of_position(candidate_position)
        if candidate_device == replica_device:
            continue
        candidates.append((origin, candidate_position, candidate_device))
    return candidates


def evaluate_replica_creation(
    topology: ClusterTopology,
    user: int,
    origins,
    writes: float,
    replica_device: int,
    write_broker: int | None,
    least_loaded_server_under,
    admission_threshold_under,
    device_of_position,
    candidates: list[tuple[int, int, int]] | None = None,
    profits: dict[int, float] | None = None,
) -> ReplicationDecision:
    """Run Algorithm 2 for one replica.

    Parameters
    ----------
    topology:
        Cluster topology.
    user:
        Owner of the view whose replica just served a request.
    origins:
        The replica's window reads keyed by origin, in first-record order
        (a ``reads_by_origin()`` mapping).
    writes:
        The replica's window write total.
    replica_device:
        Leaf device index of the server storing the replica; new replicas
        are priced against it.
    write_broker:
        Broker hosting the view's write proxy (prices the update traffic of
        the prospective replica).
    least_loaded_server_under:
        Callable ``(origin, user) -> position | None`` returning the
        least-loaded available storage-server position under an origin
        switch that does not already store the user's view (the engine's
        version skips servers that are down).
    admission_threshold_under:
        Callable ``(origin) -> float`` returning the lowest admission
        threshold among the servers under an origin switch (the thresholds a
        broker learns through piggybacking).
    device_of_position:
        Callable ``(position) -> leaf device index``.
    candidates:
        Optional precomputed result of :func:`origin_candidates`; when
        omitted it is computed here.
    profits:
        Optional ``candidate device -> profit`` dict, filled here for reuse
        by a sole-replica Algorithm 3 run.
    """
    if candidates is None:
        candidates = origin_candidates(
            user,
            origins,
            replica_device,
            least_loaded_server_under,
            device_of_position,
        )
    if profits is None:
        profits = {}
    pairs = origins.items()
    best_profit = 0.0
    best_position: int | None = None
    for origin, candidate_position, candidate_device in candidates:
        profit = profits.get(candidate_device)
        if profit is None:
            profit = profits[candidate_device] = estimate_profit(
                topology, pairs, writes, candidate_device, replica_device, write_broker
            )
        threshold = admission_threshold_under(origin)
        if profit > threshold and profit > best_profit:
            best_position = candidate_position
            best_profit = profit
    return ReplicationDecision(target_position=best_position, profit=best_profit)


__all__ = [
    "ReplicationDecision",
    "evaluate_replica_creation",
    "origin_candidates",
]
