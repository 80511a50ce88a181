"""Graph partitioning substrate (multilevel k-way and hierarchical)."""

from .hierarchical import (
    HierarchicalPartitionResult,
    hierarchical_partition,
)
from .kway import PartitionResult, partition_kway, random_partition
from .quality import balance_ratio, edge_cut, part_weights, validate_partition

__all__ = [
    "HierarchicalPartitionResult",
    "PartitionResult",
    "balance_ratio",
    "edge_cut",
    "hierarchical_partition",
    "part_weights",
    "partition_kway",
    "random_partition",
    "validate_partition",
]
