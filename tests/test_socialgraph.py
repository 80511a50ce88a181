"""Tests for the social graph data structure, generators, IO and mutations."""

from __future__ import annotations

import random
import tracemalloc
from collections.abc import Iterable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import WorkloadError
from repro.socialgraph.generators import (
    dataset_preset,
    facebook_like,
    generate_social_graph,
    graph_statistics,
    livejournal_like,
    twitter_like,
)
from repro.socialgraph.graph import SocialGraph
from repro.socialgraph.io import load_edge_list, save_edge_list
from repro.socialgraph.mutations import random_new_followers


class SetSocialGraph:
    """The set-per-row ``SocialGraph`` that list rows replaced, kept verbatim
    (bar its name) as the reference for every order the graph shows."""

    def __init__(self, users: Iterable[int] = ()) -> None:
        self._following: dict[int, set[int]] = {}
        self._followers: dict[int, set[int]] = {}
        self._edge_count = 0
        for user in users:
            self.add_user(user)

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

    def copy(self) -> "SetSocialGraph":
        """Deep copy of the graph."""
        clone = SetSocialGraph(self._following)
        for follower, followees in self._following.items():
            for followee in followees:
                clone.add_edge(follower, followee)
        return clone

    def _require_user(self, user: int) -> None:
        if user not in self._following:
            raise WorkloadError(f"unknown user {user}")


#: Few enough users that rows collide, many enough that they outgrow a set's
#: 8-slot small table.  Small ints hash to themselves, so ids below a table's
#: size would iterate sorted whatever the history; multiples of 8 share
#: their slot in every small table and make the order depend on it.
_USER_IDS = [8 * i for i in range(12)] + [1, 3, 5, 13, 21, 34, 55, 89, 144, (1 << 20) + 3]

#: One op applies to the edges between a user and each of a list of others,
#: outward (``user`` follows each) or inward, so rows grow past a resize within a
#: few ops; ``toggle`` removes an edge and adds it straight back.
_GRAPH_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add_user", "add_edge", "add_edge", "remove_edge", "toggle"]),
        st.sampled_from(_USER_IDS),
        st.lists(st.sampled_from(_USER_IDS), max_size=12),
        st.booleans(),
    ),
    max_size=30,
)


def _apply(graph, ops) -> list:
    """Run ``ops`` on ``graph``; what each call returned or raised."""
    outcomes = []
    for op, user, others, inward in ops:
        if op == "add_user":
            outcomes.extend(map(graph.add_user, [user, *others]))
            continue
        for other in others:
            follower, followee = (other, user) if inward else (user, other)
            try:
                if op == "add_edge":
                    outcomes.append(graph.add_edge(follower, followee))
                elif op == "remove_edge":
                    outcomes.append(graph.remove_edge(follower, followee))
                else:
                    outcomes.append(
                        (graph.remove_edge(follower, followee), graph.add_edge(follower, followee))
                    )
            except WorkloadError as exc:
                outcomes.append(str(exc))
    return outcomes


def _observed(graph) -> tuple:
    """Every order and count the graph shows."""
    users = graph.users
    return (
        users,
        [list(graph.following(user)) for user in users],
        [list(graph.followers(user)) for user in users],
        [(graph.out_degree(user), graph.in_degree(user)) for user in users],
        graph.degree_sequence(),
        list(graph.edges()),
        [(node, list(row.items())) for node, row in graph.undirected_adjacency().items()],
        [graph.has_edge(a, b) for a in [-1, *_USER_IDS] for b in [-1, *_USER_IDS]],
        graph.num_edges,
    )


@settings(max_examples=300, deadline=None)
@given(before=_GRAPH_OPS, after=_GRAPH_OPS)
def test_rows_show_the_orders_of_the_set_graph(before, after):
    """List rows, and the sets they turn into after a removal, show every
    order the set-per-row graph showed: after a drawn history, in a copy,
    and after a second history applied to both copies."""
    graph, reference = SocialGraph(), SetSocialGraph()
    assert _apply(graph, before) == _apply(reference, before)
    assert _observed(graph) == _observed(reference)
    clone, reference_clone = graph.copy(), reference.copy()
    assert _observed(clone) == _observed(reference_clone)
    assert _apply(clone, after) == _apply(reference_clone, after)
    assert _observed(clone) == _observed(reference_clone)
    assert _observed(graph) == _observed(reference)


def test_generated_graph_stays_under_50_bytes_per_edge():
    """A generated graph holds its rows as lists of shared ``int`` objects:
    ≈ 34 B per directed edge, where a set per row took ≈ 153."""
    tracemalloc.start()
    try:
        graph = generate_social_graph(dataset_preset("livejournal", 2500), seed=7)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current / graph.num_edges <= 50


class TestSocialGraph:
    def test_add_edge_creates_users(self):
        graph = SocialGraph()
        assert graph.add_edge(1, 2)
        assert graph.has_user(1) and graph.has_user(2)
        assert graph.num_edges == 1

    def test_duplicate_edge_is_ignored(self):
        graph = SocialGraph()
        graph.add_edge(1, 2)
        assert not graph.add_edge(1, 2)
        assert graph.num_edges == 1

    def test_self_follow_rejected(self):
        graph = SocialGraph()
        with pytest.raises(WorkloadError):
            graph.add_edge(3, 3)

    def test_following_and_followers_are_consistent(self, tiny_graph: SocialGraph):
        for follower, followee in tiny_graph.edges():
            assert followee in tiny_graph.following(follower)
            assert follower in tiny_graph.followers(followee)

    def test_degrees(self, tiny_graph: SocialGraph):
        assert tiny_graph.out_degree(0) == 2
        assert tiny_graph.in_degree(2) == 2

    def test_remove_edge(self, tiny_graph: SocialGraph):
        assert tiny_graph.remove_edge(0, 1)
        assert not tiny_graph.has_edge(0, 1)
        assert not tiny_graph.remove_edge(0, 1)

    def test_remove_edge_updates_counts(self, tiny_graph: SocialGraph):
        before = tiny_graph.num_edges
        tiny_graph.remove_edge(0, 1)
        assert tiny_graph.num_edges == before - 1

    def test_unknown_user_raises(self):
        graph = SocialGraph()
        with pytest.raises(WorkloadError):
            graph.following(42)

    def test_undirected_adjacency_weights_reciprocal_edges(self):
        graph = SocialGraph()
        graph.add_edge(1, 2)
        graph.add_edge(2, 1)
        graph.add_edge(1, 3)
        adjacency = graph.undirected_adjacency()
        assert adjacency[1][2] == 2
        assert adjacency[1][3] == 1
        assert adjacency[3][1] == 1

    def test_from_rows_adopts_the_sets(self, tiny_graph: SocialGraph):
        users = list(tiny_graph.users)
        following = [set(tiny_graph.following(user)) for user in users]
        followers = [set(tiny_graph.followers(user)) for user in users]
        graph = SocialGraph.from_rows(users, following, followers)
        assert sorted(graph.edges()) == sorted(tiny_graph.edges())
        assert graph.num_edges == tiny_graph.num_edges
        graph.add_edge(0, 5)
        assert 5 in following[0] and 0 in followers[5]

    def test_from_rows_rejects_rows_that_disagree(self):
        with pytest.raises(WorkloadError, match="disagree"):
            SocialGraph.from_rows([0, 1], [{1}, set()], [set(), set()])

    def test_copy_is_independent(self, tiny_graph: SocialGraph):
        clone = tiny_graph.copy()
        clone.add_edge(0, 5)
        assert not tiny_graph.has_edge(0, 5)
        assert clone.num_edges == tiny_graph.num_edges + 1

    def test_contains_and_len(self, tiny_graph: SocialGraph):
        assert 0 in tiny_graph
        assert 99 not in tiny_graph
        assert len(tiny_graph) == 6


class TestGenerators:
    def test_generated_size_matches_request(self):
        graph = facebook_like(users=300, seed=2)
        assert graph.num_users == 300
        # Average degree of the preset is ~15.7; allow generous tolerance.
        assert graph.num_edges > 300 * 5

    def test_every_user_follows_someone(self):
        graph = twitter_like(users=200, seed=4)
        assert all(graph.out_degree(user) > 0 for user in graph.users)

    def test_generation_is_deterministic(self):
        a = facebook_like(users=150, seed=9)
        b = facebook_like(users=150, seed=9)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_every_endpoint_is_its_users_one_int(self):
        """One ``int`` object per user: every stored endpoint and every
        adjacency key is the object the user list holds (ids above 256 are
        not interned by the interpreter)."""
        graph = livejournal_like(users=700, seed=7)
        users = graph.users
        for user in users:
            assert all(users[other] is other for other in graph.following(user))
            assert all(users[other] is other for other in graph.followers(user))
        for node, row in graph.undirected_adjacency().items():
            assert users[node] is node
            assert all(users[other] is other for other in row)

    def test_different_seeds_differ(self):
        a = facebook_like(users=150, seed=1)
        b = facebook_like(users=150, seed=2)
        assert sorted(a.edges()) != sorted(b.edges())

    def test_preset_scaling_preserves_density(self):
        preset = dataset_preset("twitter", users=1000)
        assert preset.users == 1000
        assert preset.average_out_degree == pytest.approx(2.9)

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            dataset_preset("myspace")

    def test_degree_distribution_is_skewed(self):
        graph = twitter_like(users=500, seed=3)
        stats = graph_statistics(graph)
        assert stats["max_in_degree"] > 4 * stats["avg_out_degree"]

    def test_statistics_keys(self):
        stats = graph_statistics(facebook_like(users=100, seed=1))
        assert {"users", "edges", "avg_out_degree", "max_in_degree"} <= set(stats)

    def test_empty_spec(self):
        spec = dataset_preset("twitter", users=1)
        graph = generate_social_graph(spec, seed=1)
        assert graph.num_users == 1
        assert graph.num_edges == 0


class TestIO:
    def test_round_trip(self, tmp_path, tiny_graph: SocialGraph):
        path = tmp_path / "edges.tsv"
        written = save_edge_list(tiny_graph, path)
        assert written == tiny_graph.num_edges
        loaded = load_edge_list(path)
        assert sorted(loaded.edges()) == sorted(tiny_graph.edges())

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError):
            load_edge_list(tmp_path / "nope.tsv")

    def test_load_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n\n1 2\n2 3\n")
        graph = load_edge_list(path)
        assert graph.num_edges == 2

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 two\n")
        with pytest.raises(WorkloadError):
            load_edge_list(path)

    def test_load_rejects_short_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("42\n")
        with pytest.raises(WorkloadError):
            load_edge_list(path)


class TestMutations:
    def test_random_new_followers_excludes_existing(self, tiny_graph: SocialGraph, rng: random.Random):
        pairs = random_new_followers(tiny_graph, 2, count=10, rng=rng)
        followers = {f for f, _ in pairs}
        assert 2 not in followers
        assert followers.isdisjoint(tiny_graph.followers(2))
