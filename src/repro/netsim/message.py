"""Network messages and message-id allocation.

A :class:`Message` is the unit the simulated network transfers between
nodes.  It carries an opaque payload plus headers used by the upper layers
(middleware request ids, reconfiguration sequence numbers, QoS tags).

Message ids come from a :class:`MessageIdAllocator`.  There is a
process-default allocator (so plain single-simulator code needs no
setup), but any scope that must number messages independently of
everything else running in the process — a region shard of a partitioned
run, a test that compares traces — installs its own allocator with
:func:`use_allocator` and restores the previous one when done.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class MessageIdAllocator:
    """A scoped message-id counter.

    Plain mutable state instead of :func:`itertools.count` so a holder
    (e.g. a region runtime) can read, save and restore the cursor, and
    so two allocators never share position by accident.  Ids step by
    one; region shards keep apart by starting in disjoint namespaces.

    Args:
        start: first id to hand out.
    """

    __slots__ = ("next_id",)

    def __init__(self, start: int = 1) -> None:
        self.next_id = start

    def allocate(self) -> int:
        """Consume and return the next id."""
        value = self.next_id
        self.next_id = value + 1
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MessageIdAllocator(next={self.next_id})"


#: The process-default allocator plain code allocates from.
_default_allocator = MessageIdAllocator(1)
#: The currently installed allocator (module global read per allocation).
_allocator = _default_allocator


def current_allocator() -> MessageIdAllocator:
    """The allocator new messages currently draw ids from."""
    return _allocator


def use_allocator(allocator: MessageIdAllocator | None
                  ) -> MessageIdAllocator:
    """Install ``allocator`` as the active id source; returns the
    previously active one so callers can restore it.

    Passing ``None`` reinstalls the process-default allocator.
    """
    global _allocator
    previous = _allocator
    _allocator = allocator if allocator is not None else _default_allocator
    return previous


def _next_message_id() -> int:
    return _allocator.allocate()


@dataclass(slots=True)
class Message:
    """A message in flight between two nodes.

    ``slots=True``: a million-message run keeps no per-instance dicts —
    the hot state is a fixed record.

    Attributes:
        source: name of the sending node.
        destination: name of the receiving node.
        endpoint: logical endpoint on the destination node that should
            receive the message (e.g. an object adapter).
        payload: opaque application data.
        size: size in bytes; drives transmission delay over links.
        headers: free-form metadata for the upper layers.
        msg_id: unique id, assigned at construction from the active
            :class:`MessageIdAllocator`.
        sent_at: simulated time the message entered the network.
        trace_span: telemetry flow span carried across hops/retries while
            the message is in flight (None unless tracing is enabled).
    """

    source: str
    destination: str
    endpoint: str
    payload: Any = None
    size: int = 256
    headers: dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=_next_message_id)
    sent_at: float = 0.0
    trace_span: Any = field(default=None, repr=False, compare=False)

    def reply_to(self, payload: Any = None, size: int = 256) -> "Message":
        """Build a response message with source/destination swapped."""
        reply = Message(
            source=self.destination,
            destination=self.source,
            endpoint=self.headers.get("reply_endpoint", self.endpoint),
            payload=payload,
            size=size,
        )
        reply.headers["in_reply_to"] = self.msg_id
        if "request_id" in self.headers:
            reply.headers["request_id"] = self.headers["request_id"]
        return reply

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Message(#{self.msg_id} {self.source}->{self.destination}"
            f"/{self.endpoint}, {self.size}B)"
        )
