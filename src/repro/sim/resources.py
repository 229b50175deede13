"""Timed serialization for the DES kernel.

The network layer models every NIC serialization point (injection,
ejection, the AMO engine) with a :class:`BusyChannel`: a busy-until time,
no queue and no events.
"""

from __future__ import annotations

from repro.sim.kernel import Environment

__all__ = ["BusyChannel"]


class BusyChannel:
    """Serializes timed usage: models a link/NIC port with a busy-until time.

    ``occupy(duration)`` returns the (start, end) interval assigned to the
    request: the max of *now* and the previous end, plus ``duration``.  This
    is the cheap "no event per packet-hop" congestion model used for link
    and NIC serialization (see DESIGN.md section 3).
    """

    __slots__ = ("env", "busy_until")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.busy_until = 0

    def occupy(self, duration: int, earliest: int | None = None) -> tuple[int, int]:
        """Reserve ``duration``; service can't start before ``earliest``
        (used for NIC work scheduled at a known future time, e.g. get
        responses leaving the target)."""
        start = self.env.now if earliest is None else int(earliest)
        if self.busy_until > start:
            start = self.busy_until
        self.busy_until = end = start + int(duration)
        return start, end
