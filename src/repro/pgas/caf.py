"""Fortran-2008-Coarray-like layer (Cray CAF).

Models the constructs of the paper's CAF benchmarks:

* ``coarray_alloc`` -- symmetric coarray allocation (one image per rank),
* remote assignment ``buf(1:n)[img] = src`` -> :meth:`assign`,
* remote read ``dst = buf(1:n)[img]``      -> :meth:`read`,
* ``sync memory`` / ``sync all``.

Calibration: CAF put latency sits above UPC's in Figure 4a (the compiler
generates descriptor-heavy transfers for array sections); strided sections
pay a per-block penalty; ``sync all`` is slightly costlier than
``upc_barrier`` in Figure 6b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pgas.upc import _symmetric_alloc

__all__ = ["CafParams", "CafContext", "Coarray"]


@dataclass(frozen=True)
class CafParams:
    """Cray CAF runtime overheads (ns)."""

    put_overhead: float = 1750.0
    get_overhead: float = 1100.0
    nb_overhead: float = 700.0          # with 'pgas defer_sync'
    per_block_overhead: float = 250.0   # strided array-section penalty
    sync_all_per_round: float = 450.0
    sync_memory_overhead: float = 90.0
    intra_overhead: float = 200.0


class Coarray:
    """One symmetric coarray (same size on every image)."""

    def __init__(self, ctx, nbytes: int, seg, descs, tokens) -> None:
        self.ctx = ctx
        self.nbytes = nbytes
        self.seg = seg
        self.descs = descs
        self.tokens = tokens

    def local_view(self, dtype=np.float64) -> np.ndarray:
        return self.seg.typed(dtype)


class CafContext:
    """Per-rank CAF runtime (``ctx.caf``); images are 1-based externally
    but this API keeps 0-based ranks for consistency."""

    def __init__(self, ctx, params: CafParams | None = None) -> None:
        self.ctx = ctx
        self.params = params or CafParams()
        self._alloc_seq = 0

    def coarray_alloc(self, nbytes: int):
        """Collective coarray allocation."""
        self._alloc_seq += 1
        seg, descs, tokens = yield from _symmetric_alloc(
            self.ctx, nbytes, "caf", self._alloc_seq)
        return Coarray(self.ctx, nbytes, seg, descs, tokens)

    # ------------------------------------------------------------------
    def assign(self, co: Coarray, image: int, offset: int, data,
               nblocks: int = 1):
        """Remote assignment buf(...)[image] = data.

        ``nblocks`` models an array-section transfer decomposed into that
        many contiguous pieces (CAF pays per-block runtime cost).
        """
        ctx = self.ctx
        yield from ctx.compute(self.params.put_overhead
                               + self.params.per_block_overhead * (nblocks - 1))
        if image in co.tokens:
            yield from ctx.compute(self.params.intra_overhead)
            yield from ctx.xpmem.store(co.tokens[image], offset, data)
            return None
        return (yield from ctx.dmapp.put_nbi(co.descs[image], offset, data))

    def assign_nb(self, co: Coarray, image: int, offset: int, data):
        """Deferred remote assignment (Cray 'pgas defer_sync' pragma) --
        used by the message-rate benchmark."""
        ctx = self.ctx
        yield from ctx.compute(self.params.nb_overhead)
        if image in co.tokens:
            yield from ctx.xpmem.store(co.tokens[image], offset, data)
            return None
        return (yield from ctx.dmapp.put_nbi(co.descs[image], offset, data))

    def read(self, co: Coarray, image: int, offset: int, nbytes: int,
             nblocks: int = 1):
        """Remote read dst = buf(...)[image]."""
        ctx = self.ctx
        yield from ctx.compute(self.params.get_overhead
                               + self.params.per_block_overhead * (nblocks - 1))
        if image in co.tokens:
            yield from ctx.compute(self.params.intra_overhead)
            return (yield from ctx.xpmem.load(co.tokens[image], offset, nbytes))
        return (yield from ctx.dmapp.get_b(co.descs[image], offset, nbytes))

    # ------------------------------------------------------------------
    def sync_memory(self):
        """sync memory: local completion of outstanding accesses."""
        yield from self.ctx.compute(self.params.sync_memory_overhead)
        yield from self.ctx.dmapp.gsync()
        yield from self.ctx.xpmem.mfence()

    def sync_all(self):
        """sync all: global barrier + memory synchronization."""
        yield from self.sync_memory()
        p = self.ctx.nranks
        rounds = max(1, (p - 1).bit_length()) if p > 1 else 0
        yield from self.ctx.compute(self.params.sync_all_per_round * rounds)
        yield from self.ctx.coll.barrier()
