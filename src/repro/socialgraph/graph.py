"""Directed social graph used by the workload generators and baselines.

The paper's data model is a follower graph: a read request from user ``u``
fetches the views of every user ``u`` follows (the Twitter API model, paper
section 2.1).  The graph therefore stores, for each user, the set of users
she follows (``following``) and the set of users following her
(``followers``).  Both directions are kept because:

* read target lists come from ``following``;
* activity models use in- and out-degrees (Huberman et al., section 4.2);
* flash events add *followers* to a user (section 4.6).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..exceptions import WorkloadError


class SocialGraph:
    """Mutable directed social graph with integer user identifiers."""

    def __init__(self, users: Iterable[int] = ()) -> None:
        self._following: dict[int, set[int]] = {}
        self._followers: dict[int, set[int]] = {}
        self._edge_count = 0
        for user in users:
            self.add_user(user)

    @classmethod
    def from_rows(
        cls,
        users: Iterable[int],
        following: Iterable[set[int]],
        followers: Iterable[set[int]],
    ) -> "SocialGraph":
        """Bulk path: a graph that adopts pre-built rows, ``following[i]`` and
        ``followers[i]`` being the sets of the ``i``-th user.

        The sets are taken over, not copied, so their iteration order is the
        graph's.  They must be each other's transpose with no self-follow;
        only the edge totals of both directions are checked.
        """
        graph = cls()
        graph._following = dict(zip(users, following))
        graph._followers = dict(zip(graph._following, followers))
        graph._edge_count = sum(map(len, graph._following.values()))
        if sum(map(len, graph._followers.values())) != graph._edge_count:
            raise WorkloadError("following and followers rows disagree on the edge count")
        return graph

    # ----------------------------------------------------------------- users
    def add_user(self, user: int) -> bool:
        """Add a user; returns True if the user was not already present."""
        if user in self._following:
            return False
        self._following[user] = set()
        self._followers[user] = set()
        return True

    def has_user(self, user: int) -> bool:
        """True when the user exists in the graph."""
        return user in self._following

    @property
    def users(self) -> tuple[int, ...]:
        """All user identifiers, in insertion order."""
        return tuple(self._following)

    @property
    def num_users(self) -> int:
        """Number of users."""
        return len(self._following)

    @property
    def num_edges(self) -> int:
        """Number of directed follow edges."""
        return self._edge_count

    # ----------------------------------------------------------------- edges
    def add_edge(self, follower: int, followee: int) -> bool:
        """Add a follow edge ``follower -> followee``.

        Users are created on demand.  Self-follows are rejected.  Returns
        True when the edge is new.
        """
        if follower == followee:
            raise WorkloadError("self-follow edges are not allowed")
        self.add_user(follower)
        self.add_user(followee)
        if followee in self._following[follower]:
            return False
        self._following[follower].add(followee)
        self._followers[followee].add(follower)
        self._edge_count += 1
        return True

    def remove_edge(self, follower: int, followee: int) -> bool:
        """Remove a follow edge; returns True when the edge existed."""
        if follower not in self._following or followee not in self._following[follower]:
            return False
        self._following[follower].discard(followee)
        self._followers[followee].discard(follower)
        self._edge_count -= 1
        return True

    def has_edge(self, follower: int, followee: int) -> bool:
        """True when ``follower`` follows ``followee``."""
        return follower in self._following and followee in self._following[follower]

    # --------------------------------------------------------------- queries
    def following(self, user: int) -> frozenset[int]:
        """Users that ``user`` follows (her read targets)."""
        self._require_user(user)
        return frozenset(self._following[user])

    def followers(self, user: int) -> frozenset[int]:
        """Users following ``user`` (the consumers of her view)."""
        self._require_user(user)
        return frozenset(self._followers[user])

    def out_degree(self, user: int) -> int:
        """Number of users ``user`` follows."""
        self._require_user(user)
        return len(self._following[user])

    def in_degree(self, user: int) -> int:
        """Number of followers of ``user``."""
        self._require_user(user)
        return len(self._followers[user])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over every directed edge as ``(follower, followee)``."""
        for follower, followees in self._following.items():
            for followee in followees:
                yield follower, followee

    def undirected_adjacency(self) -> dict[int, dict[int, int]]:
        """Symmetric weighted adjacency used by the graph partitioner.

        Reciprocal follow relations get weight 2, one-way relations weight 1,
        so partitioning favours keeping mutual friends together.
        """
        adjacency: dict[int, dict[int, int]] = {user: {} for user in self._following}
        for follower, followees in self._following.items():
            row = adjacency[follower]
            for followee in followees:
                row[followee] = row.get(followee, 0) + 1
                back = adjacency[followee]
                back[follower] = back.get(follower, 0) + 1
        return adjacency

    def degree_sequence(self) -> list[tuple[int, int, int]]:
        """List of ``(user, in_degree, out_degree)`` tuples."""
        return [
            (user, len(self._followers[user]), len(self._following[user]))
            for user in self._following
        ]

    def copy(self) -> "SocialGraph":
        """Deep copy of the graph."""
        clone = SocialGraph(self._following)
        for follower, followees in self._following.items():
            for followee in followees:
                clone.add_edge(follower, followee)
        return clone

    def _require_user(self, user: int) -> None:
        if user not in self._following:
            raise WorkloadError(f"unknown user {user}")

    def __contains__(self, user: int) -> bool:
        return user in self._following

    def __len__(self) -> int:
        return len(self._following)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SocialGraph(users={self.num_users}, edges={self.num_edges})"


__all__ = ["SocialGraph"]
