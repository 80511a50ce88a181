"""Directed social graph used by the workload generators and baselines.

The paper's data model is a follower graph: a read request from user ``u``
fetches the views of every user ``u`` follows (the Twitter API model, paper
section 2.1).  The graph therefore stores, for each user, the set of users
she follows (``following``) and the set of users following her
(``followers``).  Both directions are kept because:

* read target lists come from ``following``;
* activity models use in- and out-degrees (Huberman et al., section 4.2);
* flash events add *followers* to a user (section 4.6).

A row is kept as the ``list`` of its users in insertion order rather than
as a ``set``: a list costs one pointer per entry where a set table costs
two words per slot and keeps at least two fifths of its slots empty.  The set a row
stands for is rebuilt, ``set(row)``, wherever its order is observed.  A
CPython set's table, and so its iteration order, is a function of the
sequence of insertions and deletions made into it, and ``set(row)`` makes
the insertions of the list in the same order, so every order the graph
shows is the one the set would have shown.  A deletion leaves a dummy slot
that shapes later insertions and a list cannot replay it, so a row's first
:meth:`SocialGraph.remove_edge` turns it into that set for good.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..exceptions import WorkloadError

#: A follow row: its users in insertion order, or its set once it lost one.
Row = list[int] | set[int]


def _as_set(row: Row) -> set[int]:
    """The set a row stands for, iterating in that set's order."""
    return row if type(row) is set else set(row)


def _linked(out_row: Row, in_row: Row, follower: int, followee: int) -> bool:
    """Edge membership tested on the shorter of the follower's out-row and
    the followee's in-row, which are each other's transpose."""
    if len(out_row) <= len(in_row):
        return followee in out_row
    return follower in in_row


class SocialGraph:
    """Mutable directed social graph with integer user identifiers.

    ``following`` and ``followers`` rows are lists in insertion order until
    an edge is removed from them, then sets (see the module docstring);
    every query answers as the set-per-row graph did, in the same order.
    """

    def __init__(self, users: Iterable[int] = ()) -> None:
        self._following: dict[int, Row] = {}
        self._followers: dict[int, Row] = {}
        self._edge_count = 0
        for user in users:
            self.add_user(user)

    @classmethod
    def from_rows(
        cls,
        users: Iterable[int],
        following: Iterable[Row],
        followers: Iterable[Row],
    ) -> "SocialGraph":
        """Bulk path: a graph that adopts pre-built rows, ``following[i]`` and
        ``followers[i]`` being the rows of the ``i``-th user.

        A row is a list of users in insertion order (or a set).  Rows are
        taken over, not copied, so the set a list rebuilds (or the set
        itself) gives the graph's iteration order.  They must be each
        other's transpose with no self-follow and no repeated entry; only
        the edge totals of both directions are checked.
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
        self._following[user] = []
        self._followers[user] = []
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
        out_row = self._following[follower]
        in_row = self._followers[followee]
        if _linked(out_row, in_row, follower, followee):
            return False
        if type(out_row) is set:
            out_row.add(followee)
        else:
            out_row.append(followee)
        if type(in_row) is set:
            in_row.add(follower)
        else:
            in_row.append(follower)
        self._edge_count += 1
        return True

    def remove_edge(self, follower: int, followee: int) -> bool:
        """Remove a follow edge; returns True when the edge existed.

        Both rows become sets from here on (see the module docstring).
        """
        if not self.has_edge(follower, followee):
            return False
        out_row = self._following[follower] = _as_set(self._following[follower])
        out_row.discard(followee)
        in_row = self._followers[followee] = _as_set(self._followers[followee])
        in_row.discard(follower)
        self._edge_count -= 1
        return True

    def has_edge(self, follower: int, followee: int) -> bool:
        """True when ``follower`` follows ``followee``."""
        out_row = self._following.get(follower)
        in_row = self._followers.get(followee)
        if out_row is None or in_row is None:
            return False
        return _linked(out_row, in_row, follower, followee)

    # --------------------------------------------------------------- queries
    def following(self, user: int) -> frozenset[int]:
        """Users that ``user`` follows (her read targets)."""
        self._require_user(user)
        return frozenset(_as_set(self._following[user]))

    def followers(self, user: int) -> frozenset[int]:
        """Users following ``user`` (the consumers of her view)."""
        self._require_user(user)
        return frozenset(_as_set(self._followers[user]))

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
            for followee in _as_set(followees):
                yield follower, followee

    def undirected_adjacency(self) -> dict[int, dict[int, int]]:
        """Symmetric weighted adjacency used by the graph partitioner.

        Reciprocal follow relations get weight 2, one-way relations weight 1,
        so partitioning favours keeping mutual friends together.
        """
        adjacency: dict[int, dict[int, int]] = {user: {} for user in self._following}
        for follower, followees in self._following.items():
            row = adjacency[follower]
            for followee in _as_set(followees):
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
        """Deep copy of the graph, its rows appended edge by edge in
        :meth:`edges` order (so a set row comes back as a list)."""
        clone = SocialGraph(self._following)
        clone_followers = clone._followers
        for follower, followees in self._following.items():
            out_row = clone._following[follower]
            for followee in _as_set(followees):
                out_row.append(followee)
                clone_followers[followee].append(follower)
        clone._edge_count = self._edge_count
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
