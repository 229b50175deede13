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

A shared array is a ``win_create`` window over the affinity blocks: a
call charges its Cray runtime cost, then the window routes, range-checks
and records the access for the race checker.

Calibration: Figure 4a shows UPC put latency roughly 2x foMPI's at small
sizes (foMPI claims ">50% lower latency than other PGAS models") and the
same bandwidth at large sizes; atomics land near 2.4 us (Figure 6a);
``upc_barrier`` is the fastest global synchronization in Figure 6b.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.dmapp.api import require_contiguous
from repro.rma.enums import Op

__all__ = ["UpcParams", "UpcContext", "shared_window"]


@dataclass(frozen=True)
class UpcParams:
    """Cray UPC runtime overheads (ns)."""

    put_overhead: float = 950.0    # compiler runtime on the put path
    get_overhead: float = 600.0
    nb_overhead: float = 120.0     # extra per deferred (defer_sync) op
    amo_overhead: float = 60.0
    barrier_overhead_per_round: float = 50.0
    intra_overhead: float = 150.0


def shared_window(ctx, nbytes: int, kind: str):
    """The collective allocation both PGAS layers share: a window over
    ``nbytes`` of this rank's memory that charges none of foMPI's costs
    (the layers charge their own) and is always in an access epoch."""
    rma = ctx.rma
    saved = rma.params
    rma.params = replace(saved, instr_put=0, instr_get=0, instr_flush=0,
                         instr_accumulate=0, mfence_ns=0.0)
    try:
        win = yield from rma.win_create(ctx.space.alloc(max(1, nbytes),
                                                        label=kind))
    finally:
        rma.params = saved
    win.epoch_access = "lock_all"
    return win


class UpcContext:
    """Per-rank UPC runtime (``ctx.upc``)."""

    def __init__(self, ctx, params: UpcParams | None = None) -> None:
        self.ctx = ctx
        self.params = params or UpcParams()
        self.arrays: list = []   # the windows a fence completes

    def all_alloc(self, nbytes_per_thread: int):
        """upc_all_alloc: collective; returns the shared array (a window)."""
        arr = yield from shared_window(self.ctx, nbytes_per_thread, "upc")
        self.arrays.append(arr)
        return arr

    def memput(self, arr, rank: int, offset: int, data):
        """upc_memput + implicit completion on the next fence."""
        p = self.params
        yield from self.ctx.compute(
            p.intra_overhead if rank in arr.xsegs else p.put_overhead)
        yield from arr.put(data, rank, offset)

    def memput_nb(self, arr, rank: int, offset: int, data):
        """Deferred put (Cray 'defer_sync' pragma): minimal overhead."""
        yield from self.ctx.compute(self.params.nb_overhead)
        yield from arr.put(data, rank, offset)

    def memget(self, arr, rank: int, offset: int, nbytes: int):
        """upc_memget (blocking)."""
        p = self.params
        yield from self.ctx.compute(
            p.intra_overhead if rank in arr.xsegs else p.get_overhead)
        return (yield from arr.get_blocking(rank, offset, nbytes))

    def memget_nb(self, arr, rank: int, offset: int, nbytes: int,
                  out: np.ndarray):
        """upc_memget_nb (Cray extension, used by the MILC UPC port) into
        the C-contiguous ``out``; complete after the next fence."""
        require_contiguous(out)
        if rank not in arr.xsegs:
            yield from self.ctx.compute(self.params.nb_overhead)
        yield from arr.get(out.view(np.uint8).reshape(-1)[:nbytes], rank,
                           offset)

    def fence(self):
        """upc_fence: complete all outstanding accesses."""
        yield from self.ctx.dmapp.gsync()
        hook = self.ctx.sync_hook
        if hook is not None:
            hook.on_sync("pgas_fence", self, self.arrays, None)

    def barrier(self):
        """upc_barrier (Cray's is the fastest barrier in Figure 6b)."""
        rounds = (self.ctx.nranks - 1).bit_length()
        yield from self.ctx.compute(
            self.params.barrier_overhead_per_round * rounds)
        yield from self.ctx.coll.barrier()

    def aadd(self, arr, rank: int, word_index: int, value: int):
        """Cray atomic fetch-and-add on a shared int64; returns old."""
        yield from self.ctx.compute(self.params.amo_overhead)
        old = yield from arr.fetch_and_op(np.int64(value), rank,
                                          8 * word_index, Op.SUM)
        return int(old)

    def aadd_nb(self, arr, rank: int, word_index: int, value: int):
        """Non-fetching atomic add (deferred completion) -- the 'separate
        atomic add' notification of the paper's MILC port.

        One AMO, not the window's ``accumulate``: that issues an AMO
        stream, a different cost on the Figure 8 UPC curve."""
        ctx = self.ctx
        toff = 8 * word_index
        if ctx.checker is not None:
            ctx.checker.note_op(arr, "acc", rank, [(toff, toff + 8)],
                                op="sum", path="hw")
        cells = arr._target_segment(rank, toff, 8)[0].cells64()
        if not ctx.same_node(rank):
            yield from ctx.compute(self.params.nb_overhead)  # UPC's NIC cost
        yield from ctx.amo(rank, cells, word_index, "add", int(value),
                           blocking=False)

    def cas(self, arr, rank: int, word_index: int, compare: int, swap: int):
        """Cray atomic compare-and-swap; returns old value."""
        yield from self.ctx.compute(self.params.amo_overhead)
        old = yield from arr.compare_and_swap(
            np.int64(compare), np.int64(swap), rank, 8 * word_index)
        return int(old)
