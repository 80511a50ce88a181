"""Baseline placement strategies: Random, METIS, hierarchical METIS, SPAR."""

from .base import PlacementStrategy, StaticPlacementStrategy
from .placements import (
    INITIAL_PLACEMENTS,
    fit_assignment_to_capacity,
    hmetis_assignment,
    metis_assignment,
    random_assignment,
)
from .spar import SparPlacement

__all__ = [
    "INITIAL_PLACEMENTS",
    "PlacementStrategy",
    "SparPlacement",
    "StaticPlacementStrategy",
    "fit_assignment_to_capacity",
    "hmetis_assignment",
    "metis_assignment",
    "random_assignment",
]
