"""Exception hierarchy for the DynaSoRe reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ConfigurationError(ReproError):
    """Raised when a configuration object is inconsistent or out of range."""


class TopologyError(ReproError):
    """Raised for invalid cluster topologies or unknown devices."""


class CapacityError(ReproError):
    """Raised when the cluster cannot hold at least one replica per view."""


class StorageError(ReproError):
    """Raised for invalid storage-server operations (e.g. evicting the sole
    replica of a view or storing a duplicate replica)."""


class RoutingError(ReproError):
    """Raised when a view cannot be routed (no replica registered)."""


class WorkloadError(ReproError):
    """Raised for invalid workload specifications or malformed request logs."""


class PartitioningError(ReproError):
    """Raised when graph partitioning receives invalid input."""


class PersistenceError(ReproError):
    """Raised by the persistent store and write-ahead log substrate."""


class SimulationError(ReproError):
    """Raised when the simulator is asked to run an inconsistent scenario."""
