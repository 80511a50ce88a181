"""DynaSoRe core: utility, routing, proxies, replication, migration, engine."""

from .api import DynaSoReStore
from .engine import DynaSoRe, INITIAL_PLACEMENTS
from .migration import MigrationAction, MigrationDecision, evaluate_replica_migration
from .proxies import ProxyDirectory, optimal_proxy_broker
from .replication import ReplicationDecision, evaluate_replica_creation
from .routing import RoutingService
from .utility import estimate_profit

__all__ = [
    "DynaSoRe",
    "DynaSoReStore",
    "INITIAL_PLACEMENTS",
    "MigrationAction",
    "MigrationDecision",
    "ProxyDirectory",
    "ReplicationDecision",
    "RoutingService",
    "estimate_profit",
    "evaluate_replica_creation",
    "evaluate_replica_migration",
    "optimal_proxy_broker",
]
