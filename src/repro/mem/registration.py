"""Memory registration descriptors.

DMAPP and XPMEM both require memory to be *registered* before remote
access; registration returns a descriptor (an rkey) that remote peers must
present.  The paper's window-creation protocols are entirely about how
these descriptors are created, exchanged (two allgathers for traditional
windows; O(1) for symmetric allocated windows), cached and invalidated
(dynamic windows).

We model a descriptor as an unforgeable token bound to (rank, segment,
generation); a stale descriptor (detached region) raises
:class:`~repro.errors.RegistrationError`, which is what lets the test
suite verify the dynamic-window cache-invalidation protocol actually
refreshes descriptors rather than silently using stale ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RegistrationError
from repro.mem.address_space import Segment

__all__ = ["MemDescriptor", "RegistrationTable"]


@dataclass(frozen=True)
class MemDescriptor:
    """Remote-access key for one registered segment."""

    rank: int
    seg_id: int
    generation: int
    vaddr: int
    size: int

    def contains(self, vaddr: int, nbytes: int) -> bool:
        return self.vaddr <= vaddr and vaddr + nbytes <= self.vaddr + self.size


class RegistrationTable:
    """Per-rank table of registered segments."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._generation = 0
        # seg_id -> (segment, descriptor)
        self._regs: dict[int, tuple[Segment, MemDescriptor]] = {}

    def register(self, seg: Segment) -> MemDescriptor:
        if seg.rank != self.rank:
            raise RegistrationError(
                f"rank {self.rank} cannot register rank {seg.rank}'s memory")
        self._generation += 1
        desc = MemDescriptor(self.rank, seg.seg_id, self._generation,
                             seg.vaddr, seg.size)
        self._regs[seg.seg_id] = (seg, desc)
        return desc

    def deregister(self, desc: MemDescriptor) -> None:
        entry = self._regs.get(desc.seg_id)
        if entry is None or entry[1].generation != desc.generation:
            raise RegistrationError("deregistering unknown or stale descriptor")
        del self._regs[desc.seg_id]

    def resolve(self, desc: MemDescriptor) -> Segment:
        """Validate a descriptor presented by a remote peer."""
        entry = self._regs.get(desc.seg_id)
        if entry is None:
            raise RegistrationError(
                f"rank {self.rank}: access with unregistered descriptor "
                f"seg={desc.seg_id}")
        seg, current = entry
        if current.generation != desc.generation:
            raise RegistrationError(
                f"rank {self.rank}: stale descriptor for seg={desc.seg_id} "
                f"(gen {desc.generation} != {current.generation})")
        return seg
