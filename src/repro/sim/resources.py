"""Resources for the DES kernel: FIFO mutex-style resources and stores.

The network layer models NIC serialization with :class:`Resource` and the
MPI-1 baseline uses :class:`Store` for its software mailboxes.  Both follow
strict FIFO service order, which keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.errors import SimulationError
from repro.sim.kernel import Environment, Event, URGENT

__all__ = ["Resource", "Store", "BusyChannel"]


class Resource:
    """Counted resource with FIFO queueing.

    Usage (inside a process)::

        req = resource.request()
        yield req
        ...  # hold
        resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    def request(self) -> Event:
        ev = self.env.event(name="resource-grant")
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed(priority=URGENT)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release() without matching request()")
        if self._waiters:
            ev = self._waiters.popleft()
            ev.succeed(priority=URGENT)
        else:
            self.in_use -= 1

    def held(self) -> Generator:
        """Context-manager-style helper: ``yield from res.held()`` acquires."""
        yield self.request()


class BusyChannel:
    """Serializes timed usage: models a link/NIC port with a busy-until time.

    ``occupy(duration)`` returns the (start, end) interval assigned to the
    request: the max of *now* and the previous end, plus ``duration``.  This
    is the cheap "no event per packet-hop" congestion model used for link
    and NIC serialization (see DESIGN.md section 3).
    """

    __slots__ = ("env", "busy_until", "total_busy")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.busy_until = 0
        self.total_busy = 0

    def occupy(self, duration: int, earliest: int | None = None) -> tuple[int, int]:
        """Reserve ``duration``; service can't start before ``earliest``
        (used for NIC work scheduled at a known future time, e.g. get
        responses leaving the target)."""
        start = self.env.now if earliest is None else int(earliest)
        if self.busy_until > start:
            start = self.busy_until
        duration = int(duration)
        self.busy_until = end = start + duration
        self.total_busy += duration
        return start, end

    def utilization(self) -> float:
        """Fraction of elapsed simulated time this channel was busy."""
        if self.env.now == 0:
            return 0.0
        return min(1.0, self.total_busy / self.env.now)


class Store:
    """Unbounded FIFO store of items with blocking ``get``.

    ``put`` never blocks (the simulated buffers that need bounding enforce
    it at the protocol layer, as the paper's bufferless protocols do).
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item, priority=URGENT)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = self.env.event(name="store-get")
        if self._items:
            ev.succeed(self._items.popleft(), priority=URGENT)
        else:
            self._getters.append(ev)
        return ev

    def peek_all(self) -> list:
        return list(self._items)
