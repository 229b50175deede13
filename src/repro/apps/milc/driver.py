"""MILC proxy driver: the Figure 8 weak-scaling experiment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.milc.cg import cg_solve
from repro.apps.milc.comm import Mpi1Halo, RmaHalo, UpcHalo
from repro.apps.milc.lattice import LatticeDecomp
from repro.apps.milc.su3 import StencilOperator, make_source

__all__ = ["ENGINES", "MilcSpec", "milc_program"]

#: variant -> halo exchange engine.
ENGINES = {"mpi1": Mpi1Halo, "rma": RmaHalo, "upc": UpcHalo}


@dataclass(frozen=True)
class MilcSpec:
    """Weak-scaling problem description.

    ``local`` is the per-rank lattice (the paper uses 4^3 x 8);
    ``flop_rate`` is the effective per-core rate used to charge the
    stencil arithmetic.
    """

    local: tuple[int, int, int, int] = (4, 4, 4, 8)
    mass: float = 0.5
    tol: float = 1e-6
    maxiter: int = 60
    #: Effective per-core stencil rate.  2.5e10 sets communication to
    #: ~25-35% of the iteration, the balance su3_rmd exhibits at the
    #: paper's Blue Waters scale (see EXPERIMENTS.md).
    flop_rate: float = 2.5e10
    seed: int = 7


def milc_program(ctx, spec: MilcSpec, variant: str,
                 result_box: dict | None = None):
    """SPMD program; returns (elapsed_ns, iters, residual, checksum)."""
    decomp = LatticeDecomp.weak(spec.local, ctx.nranks)
    op = StencilOperator(decomp, ctx.rank, spec.mass, spec.seed)
    b = make_source(decomp, ctx.rank, spec.seed)
    engine = ENGINES[variant](ctx, decomp)
    if hasattr(engine, "setup"):
        yield from engine.setup()
    yield from ctx.coll.barrier()
    t0 = ctx.now
    x, iters, residual = yield from cg_solve(
        ctx, op, engine, b, tol=spec.tol, maxiter=spec.maxiter,
        flop_rate=spec.flop_rate)
    yield from ctx.coll.barrier()
    elapsed = ctx.now - t0
    if hasattr(engine, "teardown"):
        yield from engine.teardown()
    checksum = complex(np.sum(x * np.conj(b)))
    if result_box is not None:
        result_box[ctx.rank] = x
    return elapsed, iters, residual, checksum
