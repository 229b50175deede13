"""Vector clocks for happens-before reasoning over RMA synchronization.

One :class:`VectorClock` per rank tracks that rank's knowledge of every
rank's synchronization history.  The protocol follows the classic
release/acquire discipline:

* **deposit** (release): the releasing rank ticks its own component,
  then publishes a copy of its clock at the synchronization object
  (lock word, PSCW matching slot, collective instance).
* **merge** (acquire): the acquiring rank takes the pointwise maximum
  with the published clock, then ticks its own component.

An access ``a`` happens-before an access ``b`` recorded later (the DES
kernel delivers hook calls in deterministic event order, so "later"
is well defined) iff ``a.tick <= clock_b[a.rank]``, ``a.tick`` being
``a.rank``'s own component at ``a`` and ``clock_b`` ``b.rank``'s clock at
``b`` -- rank ``b`` has acquired a release that followed ``a``.  Own
components start at 1 so an access always carries a nonzero epoch label.
"""

from __future__ import annotations

__all__ = ["VectorClock"]


class VectorClock:
    """A fixed-width vector of per-rank synchronization counters."""

    __slots__ = ("c",)

    def __init__(self, nranks: int, rank: int | None = None) -> None:
        self.c = [0] * nranks
        if rank is not None:
            self.c[rank] = 1

    # -- core operations -------------------------------------------------
    def copy(self) -> "VectorClock":
        vc = VectorClock.__new__(VectorClock)
        vc.c = list(self.c)
        return vc

    def tick(self, rank: int) -> None:
        """Advance ``rank``'s own component (a new release epoch)."""
        self.c[rank] += 1

    def merge(self, other: "VectorClock") -> None:
        """Pointwise maximum, in place (the acquire half)."""
        mine, theirs = self.c, other.c
        for i, v in enumerate(theirs):
            if v > mine[i]:
                mine[i] = v

    def __getitem__(self, rank: int) -> int:
        return self.c[rank]

    def __len__(self) -> int:
        return len(self.c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self.c == other.c

    def __repr__(self) -> str:
        return f"VC{self.c!r}"
