"""Simulated per-rank memory.

Each rank owns an :class:`~repro.mem.address_space.AddressSpace` holding
byte-addressable :class:`~repro.mem.address_space.Segment` objects at
virtual addresses.  Window data and the control words used by the paper's
protocols (lock variables, matching lists, completion counters) are both
64-bit :class:`~repro.mem.atomic.SegmentCells`; control words
(:func:`~repro.mem.address_space.control_words`) have *watchers* -- the
simulation-level equivalent of CPU polling on a memory location.

The symmetric-heap allocation protocol of Section 2.2 (random base chosen
by a leader, ``mmap`` at a fixed address on every rank, retry until all
succeed) is implemented over these address spaces in
:mod:`repro.mem.symheap`.
"""

from repro.mem.address_space import AddressSpace, Segment, control_words
from repro.mem.atomic import SegmentCells
from repro.mem.registration import MemDescriptor, RegistrationTable
from repro.mem.symheap import SymHeapState, try_symmetric_alloc

__all__ = [
    "AddressSpace",
    "Segment",
    "SegmentCells",
    "control_words",
    "MemDescriptor",
    "RegistrationTable",
    "SymHeapState",
    "try_symmetric_alloc",
]
