"""Social graph substrate: data structure, generators, IO and mutations."""

from .generators import (
    DatasetSpec,
    dataset_preset,
    facebook_like,
    generate_social_graph,
    graph_statistics,
    livejournal_like,
    twitter_like,
)
from .graph import SocialGraph
from .io import load_edge_list, save_edge_list
from .mutations import random_new_followers

__all__ = [
    "DatasetSpec",
    "SocialGraph",
    "dataset_preset",
    "facebook_like",
    "generate_social_graph",
    "graph_statistics",
    "livejournal_like",
    "load_edge_list",
    "random_new_followers",
    "save_edge_list",
    "twitter_like",
]
