"""Durability substrate: write-ahead log, persistent store and recovery."""

from .backend import PersistentStore
from .recovery import RecoveryPlan
from .wal import LogRecord, WriteAheadLog

__all__ = [
    "LogRecord",
    "PersistentStore",
    "RecoveryPlan",
    "WriteAheadLog",
]
