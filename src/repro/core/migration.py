"""Algorithm 3 — Compute Optimal Position of Replica (paper section 3.2).

When no profitable replica can be created, a server considers *moving* the
replica to a better location instead.  The computation resembles Algorithm 2
but assumes the replica disappears from the current server, so the reference
used to price reads is the next-closest replica.  Three outcomes are
possible: keep the replica where it is, migrate it to the best origin, or —
when even the best profit is negative — remove it altogether (its update
cost outweighs its read benefit).

For a **sole** replica the reference falls back to the replica's own server,
which is exactly Algorithm 2's reference: passing the ``profits`` dict that
:func:`~repro.core.replication.evaluate_replica_creation` filled then reuses
its per-device prices instead of re-pricing every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..topology.base import ClusterTopology
from .replication import origin_candidates
from .utility import estimate_profit


class MigrationAction(str, Enum):
    """Possible outcomes of Algorithm 3."""

    STAY = "stay"
    MOVE = "move"
    REMOVE = "remove"


@dataclass(frozen=True)
class MigrationDecision:
    """Outcome of Algorithm 3 for one replica."""

    action: MigrationAction
    target_position: int | None = None
    profit: float = 0.0


def evaluate_replica_migration(
    topology: ClusterTopology,
    user: int,
    origins,
    writes: float,
    replica_device: int,
    next_closest_device: int | None,
    write_broker: int | None,
    least_loaded_server_under,
    admission_threshold_under,
    device_of_position,
    candidates: list[tuple[int, int, int]] | None = None,
    profits: dict[int, float] | None = None,
) -> MigrationDecision:
    """Run Algorithm 3 for one replica.

    ``user``, ``origins``, ``writes``, ``replica_device``, ``write_broker``
    and the callables are those of
    :func:`~repro.core.replication.evaluate_replica_creation`.
    ``next_closest_device`` is the location of the next-closest replica of
    the same view (None when this is the sole replica, in which case the
    replica is compared against itself and can never be removed).
    ``candidates`` optionally supplies the precomputed
    :func:`~repro.core.replication.origin_candidates` list, and ``profits``
    Algorithm 2's per-device prices (only consulted for sole replicas — see
    the module docstring).
    """
    if candidates is None:
        candidates = origin_candidates(
            user,
            origins,
            replica_device,
            least_loaded_server_under,
            device_of_position,
        )
    sole_replica = next_closest_device is None
    reference = replica_device if sole_replica else next_closest_device
    if profits is None or not sole_replica:
        profits = {}
    pairs = origins.items()
    best_position: int | None = None
    best_profit = stay_profit = estimate_profit(
        topology, pairs, writes, replica_device, reference, write_broker
    )

    for origin, candidate_position, candidate_device in candidates:
        profit = profits.get(candidate_device)
        if profit is None:
            profit = profits[candidate_device] = estimate_profit(
                topology, pairs, writes, candidate_device, reference, write_broker
            )
        threshold = admission_threshold_under(origin)
        if profit > best_profit and profit > threshold:
            best_position = candidate_position
            best_profit = profit

    if best_profit < 0 and not sole_replica:
        return MigrationDecision(action=MigrationAction.REMOVE, profit=best_profit)
    if best_position is not None and best_profit > stay_profit:
        return MigrationDecision(
            action=MigrationAction.MOVE, target_position=best_position, profit=best_profit
        )
    return MigrationDecision(action=MigrationAction.STAY, profit=stay_profit)


__all__ = ["MigrationAction", "MigrationDecision", "evaluate_replica_migration"]
