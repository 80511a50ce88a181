"""Traffic measurement substrate (switch-level message accounting)."""

from .accounting import TrafficAccountant, TrafficDelta, TrafficSnapshot
from .messages import MessageClass, MessageKind

__all__ = [
    "MessageClass",
    "MessageKind",
    "TrafficAccountant",
    "TrafficDelta",
    "TrafficSnapshot",
]
