"""Cray-UPC-like PGAS layer.

Models the UPC constructs the paper's benchmarks use:

* ``all_alloc`` -- collective shared-array allocation with per-thread
  affinity blocks (``upc_all_alloc``),
* ``memput`` / ``memget`` -- bulk transfers (``upc_memput``/``upc_memget``),
  with ``_nb`` variants corresponding to Cray's ``#pragma pgas defer_sync``,
* ``fence`` -- ``upc_fence`` (completion of outstanding remote accesses),
* ``barrier`` -- ``upc_barrier``,
* ``aadd`` / ``cas`` -- Cray's proprietary atomic extensions
  (``upc_atomic``), used by the UPC hashtable in Section 4.1.

Calibration: Figure 4a shows UPC put latency roughly 2x foMPI's at small
sizes (foMPI claims ">50% lower latency than other PGAS models") and the
same bandwidth at large sizes; atomics land near 2.4 us (Figure 6a);
``upc_barrier`` is the fastest global synchronization in Figure 6b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dmapp.api import require_contiguous
from repro.errors import RmaError
from repro.mem.atomic import SegmentCells

__all__ = ["UpcParams", "UpcContext", "UpcSharedArray"]


@dataclass(frozen=True)
class UpcParams:
    """Cray UPC runtime overheads (ns)."""

    put_overhead: float = 950.0    # compiler runtime on the put path
    get_overhead: float = 600.0
    nb_overhead: float = 120.0     # extra per deferred (defer_sync) op
    amo_overhead: float = 60.0
    barrier_overhead_per_round: float = 50.0
    intra_overhead: float = 150.0


def _symmetric_alloc(ctx, nbytes: int, kind: str, seq: int):
    """The collective allocation both PGAS layers share: allocate and
    register ``nbytes`` on every rank, allgather the descriptors, expose
    the segment, and attach every same-node peer's.  Returns
    ``(seg, descs, tokens)``: this rank's segment, rank -> descriptor, and
    same-node rank -> attached XPMEM segment."""
    seg = ctx.space.alloc(max(1, nbytes), label=f"{kind}{seq}")
    desc = ctx.reg.register(seg)
    descs = yield from ctx.coll.allgather(desc, nbytes=32)
    bb = ctx.world.blackboard
    key = (kind, seq)
    bb.setdefault(key, {})[ctx.rank] = ctx.xpmem.expose(seg)
    yield from ctx.coll.barrier()
    tokens = {r: t for r, t in bb[key].items()
              if r != ctx.rank and ctx.same_node(r)}
    for t in tokens.values():
        ctx.xpmem.attach(t)
    return seg, dict(enumerate(descs)), tokens


class UpcSharedArray:
    """A UPC shared array: one affinity block per thread (rank)."""

    def __init__(self, ctx, nbytes_per_thread: int, seg, descs, tokens) -> None:
        self.ctx = ctx
        self.block = nbytes_per_thread
        self.seg = seg          # this thread's affinity block
        self.descs = descs      # rank -> MemDescriptor
        self.tokens = tokens    # same-node rank -> XpmemSegment

    def local_view(self, dtype=np.uint8) -> np.ndarray:
        return self.seg.typed(dtype)

    def cells(self, rank: int) -> SegmentCells:
        """Atomic int64 view of a peer's affinity block (for aadd/cas)."""
        return self.ctx.world.reg_tables[rank].resolve(
            self.descs[rank]).cells64()


class UpcContext:
    """Per-rank UPC runtime (``ctx.upc``)."""

    def __init__(self, ctx, params: UpcParams | None = None) -> None:
        self.ctx = ctx
        self.params = params or UpcParams()
        self._alloc_seq = 0

    # ------------------------------------------------------------------
    def all_alloc(self, nbytes_per_thread: int):
        """upc_all_alloc: collective; returns the shared array handle."""
        self._alloc_seq += 1
        seg, descs, tokens = yield from _symmetric_alloc(
            self.ctx, nbytes_per_thread, "upc", self._alloc_seq)
        return UpcSharedArray(self.ctx, nbytes_per_thread, seg, descs, tokens)

    # ------------------------------------------------------------------
    def memput(self, arr: UpcSharedArray, rank: int, offset: int, data):
        """upc_memput + implicit completion on the next fence."""
        ctx = self.ctx
        if rank in arr.tokens:
            yield from ctx.compute(self.params.intra_overhead)
            yield from ctx.xpmem.store(arr.tokens[rank], offset, data)
            return None
        yield from ctx.compute(self.params.put_overhead)
        handle = yield from ctx.dmapp.put_nbi(arr.descs[rank], offset, data)
        return handle

    def memput_nb(self, arr: UpcSharedArray, rank: int, offset: int, data):
        """Deferred put (Cray 'defer_sync' pragma): minimal overhead."""
        ctx = self.ctx
        yield from ctx.compute(self.params.nb_overhead)
        if rank in arr.tokens:
            yield from ctx.xpmem.store(arr.tokens[rank], offset, data)
            return None
        return (yield from ctx.dmapp.put_nbi(arr.descs[rank], offset, data))

    def memget(self, arr: UpcSharedArray, rank: int, offset: int, nbytes: int):
        """upc_memget (blocking)."""
        ctx = self.ctx
        if rank in arr.tokens:
            yield from ctx.compute(self.params.intra_overhead)
            return (yield from ctx.xpmem.load(arr.tokens[rank], offset, nbytes))
        yield from ctx.compute(self.params.get_overhead)
        return (yield from ctx.dmapp.get_b(arr.descs[rank], offset, nbytes))

    def memget_nb(self, arr: UpcSharedArray, rank: int, offset: int,
                  nbytes: int, out: np.ndarray):
        """upc_memget_nb (Cray extension, used by the MILC UPC port) into
        the C-contiguous ``out``."""
        require_contiguous(out)
        ctx = self.ctx
        if rank in arr.tokens:
            got = yield from ctx.xpmem.load(arr.tokens[rank], offset, nbytes)
            out.view(np.uint8).ravel()[:] = got
            return None
        yield from ctx.compute(self.params.nb_overhead)
        return (yield from ctx.dmapp.get_nbi(arr.descs[rank], offset, nbytes,
                                             out=out))

    def fence(self):
        """upc_fence: complete all outstanding accesses."""
        yield from self.ctx.dmapp.gsync()
        yield from self.ctx.xpmem.mfence()

    def sync_nb(self, handle):
        """Complete one deferred access."""
        if handle is not None:
            yield from self.ctx.dmapp.wait(handle)

    def barrier(self):
        """upc_barrier (Cray's is the fastest barrier in Figure 6b)."""
        p = self.ctx.nranks
        rounds = max(1, (p - 1).bit_length()) if p > 1 else 0
        yield from self.ctx.compute(
            self.params.barrier_overhead_per_round * rounds)
        yield from self.ctx.coll.barrier()

    # ------------------------------------------------------------------
    def aadd(self, arr: UpcSharedArray, rank: int, word_index: int,
             value: int):
        """Cray atomic fetch-and-add on a shared int64; returns old."""
        ctx = self.ctx
        yield from ctx.compute(self.params.amo_overhead)
        cells = arr.cells(rank)
        if rank in arr.tokens or rank == ctx.rank:
            old = yield from ctx.xpmem.amo(cells, word_index, "add",
                                           int(value))
        else:
            old = yield from ctx.dmapp.amo_b(rank, cells, word_index, "add",
                                             int(value))
        # A completed user-level atomic is forward progress (unlike the
        # protocol-internal AMO retries inside lock acquisition).
        ctx.env.note_progress()
        return old

    def aadd_nb(self, arr: UpcSharedArray, rank: int, word_index: int,
                value: int):
        """Non-fetching atomic add (deferred completion) -- the 'separate
        atomic add' notification of the paper's MILC port."""
        ctx = self.ctx
        cells = arr.cells(rank)
        if rank in arr.tokens or rank == ctx.rank:
            yield from ctx.xpmem.amo(cells, word_index, "add", int(value))
            return
        yield from ctx.compute(self.params.nb_overhead)
        yield from ctx.dmapp.amo_nbi(rank, cells, word_index, "add",
                                     int(value))

    def cas(self, arr: UpcSharedArray, rank: int, word_index: int,
            compare: int, swap: int):
        """Cray atomic compare-and-swap; returns old value."""
        ctx = self.ctx
        yield from ctx.compute(self.params.amo_overhead)
        cells = arr.cells(rank)
        if rank in arr.tokens or rank == ctx.rank:
            old = yield from ctx.xpmem.amo(cells, word_index, "cas",
                                           int(compare), int(swap))
        else:
            old = yield from ctx.dmapp.amo_b(rank, cells, word_index, "cas",
                                             int(compare), int(swap))
        ctx.env.note_progress()
        return old

    def check_affinity(self, arr: UpcSharedArray, offset: int) -> None:
        if not 0 <= offset < arr.block:
            raise RmaError(f"offset {offset} outside affinity block")
