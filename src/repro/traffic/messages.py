"""Message taxonomy used for traffic accounting.

The paper distinguishes *application* traffic (read requests, write updates
and their answers, 10 units each) from *system* traffic (protocol messages of
size 1 and replica data copies of size 10) when studying convergence
(Figure 6).  Every message recorded by the simulator carries one of the kinds
below so the accountant can keep the two series separate.
"""

from __future__ import annotations

from enum import Enum

from ..constants import APPLICATION_MESSAGE_SIZE, PROTOCOL_MESSAGE_SIZE


class MessageClass(str, Enum):
    """Coarse accounting class of a message."""

    APPLICATION = "application"
    SYSTEM = "system"


class MessageKind(str, Enum):
    """Fine-grained message types recorded by the simulator."""

    READ_REQUEST = "read_request"
    READ_RESPONSE = "read_response"
    WRITE_UPDATE = "write_update"
    WRITE_ACK = "write_ack"
    REPLICA_COPY = "replica_copy"
    REPLICA_CONTROL = "replica_control"
    ROUTING_UPDATE = "routing_update"
    THRESHOLD_PIGGYBACK = "threshold_piggyback"
    PROXY_MIGRATION = "proxy_migration"

    @property
    def message_class(self) -> MessageClass:
        """Whether the kind counts as application or system traffic."""
        if self in _APPLICATION_KINDS:
            return MessageClass.APPLICATION
        return MessageClass.SYSTEM

    @property
    def default_size(self) -> int:
        """Default size of the message in protocol-message units."""
        if self in _DATA_KINDS:
            return APPLICATION_MESSAGE_SIZE
        return PROTOCOL_MESSAGE_SIZE


#: Kinds counted as application traffic (paper section 4.3).
_APPLICATION_KINDS = frozenset(
    {
        MessageKind.READ_REQUEST,
        MessageKind.READ_RESPONSE,
        MessageKind.WRITE_UPDATE,
        MessageKind.WRITE_ACK,
    }
)

#: Kinds that carry view data and therefore use the application size even
#: when they are system messages (replica copies).
_DATA_KINDS = frozenset(
    {
        MessageKind.READ_REQUEST,
        MessageKind.READ_RESPONSE,
        MessageKind.WRITE_UPDATE,
        MessageKind.WRITE_ACK,
        MessageKind.REPLICA_COPY,
    }
)


__all__ = ["MessageClass", "MessageKind"]
