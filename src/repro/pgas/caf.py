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

from repro.pgas.upc import shared_window

__all__ = ["CafParams", "CafContext"]


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


class CafContext:
    """Per-rank CAF runtime (``ctx.caf``); images are 1-based externally
    but this API keeps 0-based ranks for consistency."""

    def __init__(self, ctx, params: CafParams | None = None) -> None:
        self.ctx = ctx
        self.params = params or CafParams()
        self.coarrays: list = []   # the windows sync memory completes

    def coarray_alloc(self, nbytes: int):
        """Collective coarray allocation."""
        co = yield from shared_window(self.ctx, nbytes, "caf")
        self.coarrays.append(co)
        return co

    def assign(self, co, image: int, offset: int, data, nblocks: int = 1):
        """Remote assignment buf(...)[image] = data.

        ``nblocks`` models an array-section transfer decomposed into that
        many contiguous pieces (CAF pays per-block runtime cost).
        """
        ctx = self.ctx
        yield from ctx.compute(self.params.put_overhead
                               + self.params.per_block_overhead * (nblocks - 1))
        if image in co.xsegs:
            yield from ctx.compute(self.params.intra_overhead)
        yield from co.put(data, image, offset)

    def assign_nb(self, co, image: int, offset: int, data):
        """Deferred remote assignment (Cray 'pgas defer_sync' pragma) --
        used by the message-rate benchmark."""
        yield from self.ctx.compute(self.params.nb_overhead)
        yield from co.put(data, image, offset)

    def read(self, co, image: int, offset: int, nbytes: int,
             nblocks: int = 1):
        """Remote read dst = buf(...)[image]."""
        ctx = self.ctx
        yield from ctx.compute(self.params.get_overhead
                               + self.params.per_block_overhead * (nblocks - 1))
        if image in co.xsegs:
            yield from ctx.compute(self.params.intra_overhead)
        return (yield from co.get_blocking(image, offset, nbytes))

    def sync_memory(self):
        """sync memory: local completion of outstanding accesses."""
        yield from self.ctx.compute(self.params.sync_memory_overhead)
        yield from self.ctx.dmapp.gsync()
        hook = self.ctx.sync_hook
        if hook is not None:
            hook.on_sync("pgas_fence", self, self.coarrays, None)

    def sync_all(self):
        """sync all: global barrier + memory synchronization."""
        yield from self.sync_memory()
        rounds = (self.ctx.nranks - 1).bit_length()
        yield from self.ctx.compute(self.params.sync_all_per_round * rounds)
        yield from self.ctx.coll.barrier()
