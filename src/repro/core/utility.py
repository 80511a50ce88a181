"""Algorithm 1 — Estimate Profit (paper section 3.2, "View utility").

The utility of keeping (or creating) a replica of a view on a server is the
network traffic saved by serving its reads from that server instead of the
next-closest replica, minus the traffic required to keep the replica up to
date:

    serverReadCost   = Σ_origin reads(origin) · cost(origin, server)
    nearestReadCost  = Σ_origin reads(origin) · cost(origin, nearest)
    serverWriteCost  = writes · cost(writeProxyBroker, server)
    profit           = nearestReadCost − serverReadCost − serverWriteCost

``cost`` counts the switches a message traverses; origins are the coarse
sub-tree labels recorded by the access statistics.

One function, :func:`estimate_profit`, prices every decision: the
maintenance tick prices each replica once, and Algorithms 2 and 3 (the
per-event reference and the request kernel alike) price each distinct
candidate server against one reference replica.
"""

from __future__ import annotations

from ..topology.base import ClusterTopology


def estimate_profit(
    topology: ClusterTopology,
    pairs,
    writes: float,
    candidate_server: int,
    reference_server: int,
    write_broker: int | None,
) -> float:
    """Profit of serving the recorded accesses from ``candidate_server``.

    Parameters
    ----------
    topology:
        Cluster topology providing switch costs.
    pairs:
        Sized iterable of ``(origin, reads)`` in first-record order: a
        ``reads_by_origin()`` dict's ``.items()``, or the maintenance
        sweep's scratch list gathered straight off the statistics columns.
    writes:
        Window write total of the view.
    candidate_server:
        Leaf device index of the server whose benefit is being estimated.
    reference_server:
        Leaf device index of the server that would serve the reads otherwise
        (the next-closest replica, or the current server when evaluating the
        creation of a brand-new replica).
    write_broker:
        Leaf device index of the broker hosting the view's write proxy, or
        ``None`` when the view has never been written (write cost is then 0).
    """
    server_read_cost = 0.0
    nearest_read_cost = 0.0
    if pairs:
        candidate_costs = topology.cost_row(candidate_server)
        reference_costs = topology.cost_row(reference_server)
        cost_from_origin = topology.cost_from_origin
        for origin, reads in pairs:
            candidate_cost = candidate_costs[origin]
            reference_cost = reference_costs[origin]
            if candidate_cost is None or reference_cost is None:
                candidate_cost = cost_from_origin(origin, candidate_server)
                reference_cost = cost_from_origin(origin, reference_server)
            # Routing is deterministic and always picks the closest replica,
            # so reads from an origin only move to the candidate when it is
            # closer; they never become more expensive because the reference
            # replica (the current server or the next-closest replica) still
            # exists.  Without this clamp, views with geographically spread
            # readers would never be replicated, which contradicts the
            # paper's flash-event behaviour (one replica per intermediate
            # switch).
            if candidate_cost < reference_cost:
                server_read_cost += reads * candidate_cost
            else:
                server_read_cost += reads * reference_cost
            nearest_read_cost += reads * reference_cost
    if writes and write_broker is not None:
        server_write_cost = writes * topology.distance_row(write_broker)[candidate_server]
    else:
        server_write_cost = 0.0
    return nearest_read_cost - server_read_cost - server_write_cost


__all__ = ["estimate_profit"]
