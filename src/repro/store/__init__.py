"""In-memory store substrate: flat placement tables and their object oracles.

Placement state lives in the struct-of-arrays tables of
:mod:`repro.store.tables`; ``ViewReplica``, ``AccessStatistics`` and
``RotatingCounter`` are the object references the tables are tested against.
"""

from .counters import RotatingCounter
from .memory import MemoryBudget, budget_for
from .stats import AccessStatistics
from .tables import (
    NO_SLOT,
    ReplicaTable,
    StatsTable,
    pick_least_loaded,
    rank_by_utilisation,
)
from .view import Event, INFINITE_UTILITY, View, ViewReplica

__all__ = [
    "AccessStatistics",
    "Event",
    "INFINITE_UTILITY",
    "MemoryBudget",
    "NO_SLOT",
    "ReplicaTable",
    "RotatingCounter",
    "StatsTable",
    "View",
    "ViewReplica",
    "budget_for",
    "pick_least_loaded",
    "rank_by_utilisation",
]
