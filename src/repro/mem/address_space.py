"""Per-rank virtual address spaces and memory segments.

A :class:`Segment` is a contiguous byte buffer (numpy uint8) mapped at a
virtual address.  The address space tracks reserved intervals so the
symmetric-heap protocol's "mmap at this exact address" step can genuinely
fail on collision, exactly as the paper's POSIX protocol anticipates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MemoryError_
from repro.mem.atomic import SegmentCells

__all__ = ["Segment", "AddressSpace", "capture", "control_words"]

#: Default base of the anonymous-mapping area (mirrors a 47-bit VA layout).
MMAP_REGION_LO = 0x2000_0000_0000
MMAP_REGION_HI = 0x7000_0000_0000


class Segment:
    """A contiguous byte range of one rank's memory."""

    __slots__ = ("rank", "seg_id", "vaddr", "size", "buf", "alive", "label",
                 "mv", "_cells")

    def __init__(self, rank: int, seg_id: int, vaddr: int, size: int,
                 label: str = "") -> None:
        if size < 0:
            raise MemoryError_(f"negative segment size {size}")
        self.rank = rank
        self.seg_id = seg_id
        self.vaddr = vaddr
        self.size = size   # fixed for life: buf is never reallocated
        self.buf = np.zeros(size, dtype=np.uint8)
        # Cached flat byte view: a put's delivery and a get's landing are
        # plain memoryview slice copies through it, no numpy dispatch.
        self.mv = memoryview(self.buf.data)
        self._cells = None  # the AMO adapter, built by cells64()
        self.alive = True
        self.label = label

    def _check(self, offset: int, nbytes: int) -> None:
        if not self.alive:
            raise MemoryError_(f"access to freed segment {self.label or self.seg_id}")
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise MemoryError_(
                f"out-of-range access [{offset}, {offset + nbytes}) in "
                f"segment of size {self.size} (rank {self.rank})")

    def read(self, offset: int, nbytes: int) -> np.ndarray:
        """A *copy* of ``nbytes`` bytes at ``offset``."""
        self._check(offset, nbytes)
        return self.buf[offset:offset + nbytes].copy()

    def view(self, offset: int, nbytes: int) -> np.ndarray:
        """A writable view (used by the XPMEM direct-mapping path)."""
        self._check(offset, nbytes)
        return self.buf[offset:offset + nbytes]

    def write(self, offset: int, data) -> None:
        """Store ``data`` at ``offset``: the bytes of a bytes-like object,
        or anything else's values as uint8 (checkpoint restore, target-side
        CPU stores)."""
        if isinstance(data, (bytes, bytearray, memoryview)):
            arr = np.frombuffer(data, dtype=np.uint8)
        else:
            arr = np.asarray(data, dtype=np.uint8).ravel()
        self._check(offset, arr.size)
        self.buf[offset:offset + arr.size] = arr

    def snapshot_bytes(self) -> bytes:
        """Checkpoint copy of the whole segment."""
        if not self.alive:
            raise MemoryError_(
                f"snapshot of freed segment {self.label or self.seg_id}")
        return self.buf.tobytes()

    def typed(self, dtype, offset: int = 0, count: int | None = None) -> np.ndarray:
        """A typed view over the segment (zero-copy)."""
        dt = np.dtype(dtype)
        avail = (self.size - offset) // dt.itemsize
        n = avail if count is None else count
        self._check(offset, n * dt.itemsize)
        return self.buf[offset:offset + n * dt.itemsize].view(dt)

    def words64(self) -> memoryview:
        """The segment's 8-byte words as a flat unsigned view (zero-copy;
        indexing yields Python ints): what the AMO engine operates on."""
        return self.mv[:self.size // 8 * 8].cast("Q")

    def cells64(self) -> SegmentCells:
        """The AMO adapter over :meth:`words64`, built once and shared, so
        an atomic costs one index operation, not a fresh view per load
        and store."""
        cells = self._cells
        if cells is None:
            cells = self._cells = SegmentCells(self)
        return cells

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Segment rank={self.rank} id={self.seg_id} "
                f"va={self.vaddr:#x} size={self.size} {self.label!r}>")


def capture(data) -> memoryview:
    """Issue-time capture of a put's origin buffer: its C-order bytes, the
    ones ``np.ascontiguousarray(np.asarray(data)).view(np.uint8)`` reads,
    as a flat byte view of an immutable ``bytes`` -- one copy, none for
    ``bytes`` input.  The transports take zero-copy slices of it and store
    them at delivery (DESIGN.md section 8, "Issue path")."""
    if type(data) is bytes:
        return memoryview(data)
    if type(data) is not np.ndarray:
        data = np.asarray(data)
    return memoryview(data.tobytes())


def control_words(env, ncells: int, name: str = "") -> SegmentCells:
    """``ncells`` zeroed control words whose watchers wake on ``env``.

    Their segment lies outside every address space (the protocols reach
    control words through exchanged references, never by address), so
    making them moves no window heap or symmetric-heap address."""
    return SegmentCells(Segment(-1, -1, 0, 8 * ncells, label=name), env)


class AddressSpace:
    """One rank's virtual address space: segments + reserved intervals."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._next_id = 1
        self._cursor = MMAP_REGION_LO
        # Sorted list of (lo, hi) reserved byte intervals, non-overlapping.
        self._reserved: list[tuple[int, int]] = []
        self.segments: dict[int, Segment] = {}

    # -- interval bookkeeping -------------------------------------------
    def _overlaps(self, lo: int, hi: int) -> bool:
        return any(lo < rhi and rlo < hi for rlo, rhi in self._reserved)

    def _reserve(self, lo: int, hi: int) -> None:
        self._reserved.append((lo, hi))
        self._reserved.sort()

    # -- allocation ------------------------------------------------------
    def alloc(self, size: int, label: str = "") -> Segment:
        """Allocate anywhere (like plain mmap(NULL, ...))."""
        size = max(1, int(size))
        lo = self._cursor
        while self._overlaps(lo, lo + size):
            lo += size + 0x1000
        self._cursor = lo + size + 0x1000
        return self._make(lo, size, label)

    def alloc_at(self, vaddr: int, size: int, label: str = "") -> Segment | None:
        """Allocate at a fixed address; ``None`` on collision (MAP_FIXED
        semantics with the failure mode of the paper's symmetric-heap
        protocol)."""
        size = max(1, int(size))
        if vaddr < MMAP_REGION_LO or vaddr + size > MMAP_REGION_HI:
            return None
        if self._overlaps(vaddr, vaddr + size):
            return None
        return self._make(vaddr, size, label)

    def _make(self, vaddr: int, size: int, label: str) -> Segment:
        seg_id = self._next_id
        self._next_id += 1
        seg = Segment(self.rank, seg_id, vaddr, size, label)
        self.segments[seg_id] = seg
        self._reserve(vaddr, vaddr + size)
        return seg

    def free(self, seg: Segment) -> None:
        if seg.seg_id not in self.segments:
            raise MemoryError_("double free or foreign segment")
        seg.alive = False
        del self.segments[seg.seg_id]
        self._reserved.remove((seg.vaddr, seg.vaddr + seg.size))
