"""Receiver-side message matching.

MPI's two-sided semantics require the receiver to match each incoming
message against posted receives by (source, tag) with wildcard support, in
posting order -- this matching work is one of the overheads the paper's
one-sided protocols eliminate.  The queue keeps MPI's non-overtaking
guarantee: messages from the same source with the same tag match in send
order.

The simulator pays for that matching per message too, in host time, so the
scans test for an empty queue first and compare ``(src, channel, tag)``
inline, and the two record types are slotted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

__all__ = ["Message", "PostedRecv", "MatchQueue", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass(slots=True, eq=False)
class Message:
    """An arrived (or announced, for rendezvous) message."""

    src: int
    channel: str
    tag: int
    payload: Any
    nbytes: int
    kind: str              # 'eager' | 'rts'
    sender_state: Any = None  # rendezvous bookkeeping back-pointer
    clock: Any = None      # sender's deposited vector clock (checker runs)


@dataclass(slots=True, eq=False)
class PostedRecv:
    """A receive posted by the application, awaiting a match."""

    src: int
    channel: str
    tag: int
    req: Any               # the receive's Request, completed on match


class MatchQueue:
    """Posted-receive queue plus unexpected-message queue for one rank.

    A receive ``(src, channel, tag)`` matches a message on the same
    channel whose source and tag it names or leaves wild; each scan takes
    the first match in queue order, which is what keeps MPI's
    non-overtaking rule.  Most scans find their queue empty (a receive
    posted before its message, an idle poll) and return before looking.
    """

    __slots__ = ("posted", "unexpected")

    def __init__(self) -> None:
        self.posted: deque = deque()
        self.unexpected: deque = deque()

    def post(self, recv: PostedRecv) -> Message | None:
        """Post a receive; returns an unexpected message if one matches."""
        if self.unexpected:
            msg = self.extract(recv.src, recv.channel, recv.tag)
            if msg is not None:
                return msg
        self.posted.append(recv)
        return None

    def arrive(self, msg: Message) -> PostedRecv | None:
        """Deliver an arriving message; returns the matching posted recv."""
        posted = self.posted
        if posted:
            src, channel, tag = msg.src, msg.channel, msg.tag
            for i, recv in enumerate(posted):
                if (recv.channel == channel
                        and (recv.src == ANY_SOURCE or recv.src == src)
                        and (recv.tag == ANY_TAG or recv.tag == tag)):
                    del posted[i]
                    return recv
        self.unexpected.append(msg)
        return None

    def probe(self, src: int, channel: str, tag: int) -> Message | None:
        """Non-destructive iprobe over the unexpected queue."""
        for msg in self.unexpected:
            if (msg.channel == channel
                    and (src == ANY_SOURCE or src == msg.src)
                    and (tag == ANY_TAG or tag == msg.tag)):
                return msg
        return None

    def extract(self, src: int, channel: str, tag: int) -> Message | None:
        """improbe: remove and return the first matching unexpected message."""
        unexpected = self.unexpected
        if not unexpected:
            return None
        for i, msg in enumerate(unexpected):
            if (msg.channel == channel
                    and (src == ANY_SOURCE or src == msg.src)
                    and (tag == ANY_TAG or tag == msg.tag)):
                del unexpected[i]
                return msg
        return None

    def depth(self) -> tuple[int, int]:
        return len(self.posted), len(self.unexpected)
