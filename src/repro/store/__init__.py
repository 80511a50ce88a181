"""In-memory store substrate: flat placement tables plus object façades.

Placement state lives in the struct-of-arrays tables of
:mod:`repro.store.tables`; ``ViewReplica``, ``AccessStatistics`` and
``RotatingCounter`` are the object references the tables are tested against.
"""

from .counters import RotatingCounter
from .memory import MemoryBudget, budget_for
from .stats import AccessStatistics
from .tables import (
    NO_SLOT,
    ReplicaHandle,
    ReplicaTable,
    StatsHandle,
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
    "ReplicaHandle",
    "ReplicaTable",
    "RotatingCounter",
    "StatsHandle",
    "StatsTable",
    "View",
    "ViewReplica",
    "budget_for",
    "pick_least_loaded",
    "rank_by_utilisation",
]
