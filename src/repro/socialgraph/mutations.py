"""Helpers for dynamic social-graph mutations.

The paper stresses that social networks evolve continuously and that
DynaSoRe adapts transparently (section 3.3, "Managing the social network");
the flash-event experiment (section 4.6) adds 100 random followers to a user
and removes them five days later.  :func:`random_new_followers` picks those
followers; :mod:`repro.workload.flash` turns them into edge-event rows of
the workload stream.
"""

from __future__ import annotations

import random

from .graph import SocialGraph


def random_new_followers(
    graph: SocialGraph,
    target_user: int,
    count: int,
    rng: random.Random,
) -> list[tuple[int, int]]:
    """Pick ``count`` random users that do not yet follow ``target_user``.

    Returns the ``(follower, followee)`` pairs to add; fewer pairs are
    returned when the graph does not contain enough candidates.
    """
    existing = graph.followers(target_user)
    candidates = [
        user
        for user in graph.users
        if user != target_user and user not in existing
    ]
    rng.shuffle(candidates)
    return [(user, target_user) for user in candidates[:count]]


__all__ = ["random_new_followers"]
