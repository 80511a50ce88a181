"""Synthetic social-graph generators.

The paper evaluates DynaSoRe on crawls of Twitter (1.7M users, 5M links),
Facebook (3M users, 47M links) and LiveJournal (4.8M users, 69M links).
Those datasets are not redistributable, so this module builds *scaled
synthetic analogues* that preserve the two structural properties the
placement algorithms actually exploit:

* heavy-tailed (power-law) degree distributions, so a few users attract a
  large share of the read traffic, and
* community structure (high clustering), so graph partitioning and
  social-locality replication have something to gain.

The generator combines a community-biased preferential-attachment process
with a configurable average degree, which yields graphs whose degree
distribution and modularity are in the right regime for the experiments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .graph import SocialGraph


@dataclass(frozen=True)
class DatasetSpec:
    """Knobs of a synthetic dataset (a scaled analogue of a paper dataset)."""

    name: str
    users: int
    average_out_degree: float
    #: Probability that a new edge stays inside the user's community.
    community_bias: float
    #: Number of communities the users are spread over.
    communities: int
    #: Probability that a follow edge is reciprocated (Facebook-like graphs
    #: are nearly symmetric, Twitter much less so).
    reciprocity: float

    @property
    def expected_edges(self) -> int:
        """Approximate number of directed edges the generator will produce."""
        return int(self.users * self.average_out_degree)


#: Structural knobs of the three paper datasets (Table 1), expressed as
#: ratios so they can be generated at any scale.  Average degrees follow the
#: paper's edge/user ratios: Twitter ~2.9, Facebook ~15.7, LiveJournal ~14.4.
_DATASET_PRESETS = {
    "twitter": DatasetSpec(
        name="twitter",
        users=1_700_000,
        average_out_degree=2.9,
        community_bias=0.6,
        communities=200,
        reciprocity=0.2,
    ),
    "facebook": DatasetSpec(
        name="facebook",
        users=3_000_000,
        average_out_degree=15.7,
        community_bias=0.85,
        communities=300,
        reciprocity=0.7,
    ),
    "livejournal": DatasetSpec(
        name="livejournal",
        users=4_800_000,
        average_out_degree=14.4,
        community_bias=0.8,
        communities=400,
        reciprocity=0.55,
    ),
}


def dataset_preset(name: str, users: int | None = None) -> DatasetSpec:
    """Return the preset for a paper dataset, optionally rescaled.

    ``users`` rescales the graph while keeping the average degree, community
    bias and reciprocity of the preset; the community count is scaled with
    the square root of the size ratio so communities keep a sensible size.
    """
    key = name.lower()
    if key not in _DATASET_PRESETS:
        raise KeyError(f"unknown dataset {name!r}; expected one of {sorted(_DATASET_PRESETS)}")
    preset = _DATASET_PRESETS[key]
    if users is None or users == preset.users:
        return preset
    ratio = users / preset.users
    communities = max(4, int(preset.communities * math.sqrt(ratio)))
    return DatasetSpec(
        name=preset.name,
        users=users,
        average_out_degree=preset.average_out_degree,
        community_bias=preset.community_bias,
        communities=communities,
        reciprocity=preset.reciprocity,
    )


def generate_social_graph(spec: DatasetSpec, seed: int = 7) -> SocialGraph:
    """Generate a synthetic social graph matching a :class:`DatasetSpec`.

    The process assigns each user to a community, then adds edges one user at
    a time: targets are drawn preferentially by in-degree, biased towards the
    user's own community with probability ``community_bias``.  A fraction
    ``reciprocity`` of edges is reciprocated immediately.

    The edge loop draws with ``getrandbits`` exactly as ``Random.randrange``
    does (the bit length of the bound, redrawn while the draw is out of
    range), appends to the ``following``/``followers`` rows itself, in the
    order the set-per-row graph added to its sets, and hands them to
    :meth:`SocialGraph.from_rows`.  An edge is looked up in the shorter of
    the follower's out-row and the followee's in-row.  Every endpoint
    stored is the one ``int`` object of its user, so a graph holds one
    object per user rather than one per edge endpoint.
    """
    rng = random.Random(seed)
    if spec.users < 2:
        return SocialGraph(range(spec.users))
    users = spec.users
    ids = list(range(users))

    communities = max(1, min(spec.communities, users))
    community_of = [rng.randrange(communities) for _ in ids]
    members: list[list[int]] = [[] for _ in range(communities)]
    for user, community in zip(ids, community_of):
        members[community].append(user)

    # Repeated-node list implements preferential attachment in O(1) per draw.
    popular: list[int] = list(ids)
    popular_by_community: list[list[int]] = [list(c) for c in members]

    following: list[list[int]] = [[] for _ in ids]
    followers: list[list[int]] = [[] for _ in ids]
    getrandbits = rng.getrandbits
    uniform = rng.random
    user_bits = users.bit_length()
    community_bias = spec.community_bias
    reciprocity = spec.reciprocity
    target_edges = spec.expected_edges
    attempts_limit = target_edges * 12
    attempts = 0
    edges = 0
    while edges < target_edges and attempts < attempts_limit:
        attempts += 1
        draw = getrandbits(user_bits)
        while draw >= users:
            draw = getrandbits(user_bits)
        follower = ids[draw]
        community = community_of[follower]
        in_community = uniform() < community_bias and len(members[community]) > 1
        pool = popular_by_community[community] if in_community else popular
        size = len(pool)
        bits = size.bit_length()
        draw = getrandbits(bits)
        while draw >= size:
            draw = getrandbits(bits)
        followee = pool[draw]
        if followee == follower:
            continue
        out_row = following[follower]
        in_row = followers[followee]
        if followee in out_row if len(out_row) <= len(in_row) else follower in in_row:
            continue
        out_row.append(followee)
        in_row.append(follower)
        edges += 1
        popular.append(followee)
        popular_by_community[community_of[followee]].append(followee)
        if uniform() >= reciprocity:
            continue
        back_out = following[followee]
        back_in = followers[follower]
        if follower in back_out if len(back_out) <= len(back_in) else followee in back_in:
            continue
        back_out.append(follower)
        back_in.append(followee)
        edges += 1
        popular.append(follower)
        popular_by_community[community].append(follower)

    _connect_isolated_users(ids, following, followers, rng)
    return SocialGraph.from_rows(ids, following, followers)


def _connect_isolated_users(
    ids: list[int], following: list[list[int]], followers: list[list[int]], rng: random.Random
) -> None:
    """Give every user at least one outgoing edge so reads are never empty."""
    for user in ids:
        if not following[user]:
            target = user
            while target == user:
                target = ids[rng.randrange(len(ids))]
            following[user].append(target)
            followers[target].append(user)


def twitter_like(users: int = 5000, seed: int = 7) -> SocialGraph:
    """Scaled analogue of the paper's Twitter sample (sparse, asymmetric)."""
    return generate_social_graph(dataset_preset("twitter", users), seed=seed)


def facebook_like(users: int = 5000, seed: int = 7) -> SocialGraph:
    """Scaled analogue of the paper's Facebook sample (dense, reciprocal)."""
    return generate_social_graph(dataset_preset("facebook", users), seed=seed)


def livejournal_like(users: int = 5000, seed: int = 7) -> SocialGraph:
    """Scaled analogue of the paper's LiveJournal sample."""
    return generate_social_graph(dataset_preset("livejournal", users), seed=seed)


def graph_statistics(graph: SocialGraph) -> dict[str, float]:
    """Summary statistics used by Table 1 and the documentation."""
    degrees = graph.degree_sequence()
    if not degrees:
        return {"users": 0, "edges": 0, "avg_out_degree": 0.0, "max_in_degree": 0.0}
    out_degrees = [out for _, _, out in degrees]
    in_degrees = [inn for _, inn, _ in degrees]
    return {
        "users": float(graph.num_users),
        "edges": float(graph.num_edges),
        "avg_out_degree": sum(out_degrees) / len(out_degrees),
        "max_in_degree": float(max(in_degrees)),
        "max_out_degree": float(max(out_degrees)),
    }


__all__ = [
    "DatasetSpec",
    "dataset_preset",
    "facebook_like",
    "generate_social_graph",
    "graph_statistics",
    "livejournal_like",
    "twitter_like",
]
