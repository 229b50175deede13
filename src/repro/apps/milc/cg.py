"""Distributed conjugate gradient (the su3_rmd solver proxy).

The numerics run for real (numpy) so the solver's convergence verifies
the whole stack end to end; simulated *time* for the local arithmetic is
charged from the flop model so the compute/communication balance matches
the modeled machine rather than the host interpreter.
"""

from __future__ import annotations

import numpy as np

from repro.apps.milc.su3 import StencilOperator, flops_per_site, local_dot

__all__ = ["cg_solve"]


def cg_solve(ctx, op: StencilOperator, halo, b: np.ndarray, *,
             tol: float, maxiter: int, flop_rate: float):
    """Solve A x = b; returns (x, iterations, final_residual_norm).

    ``halo.exchange(padded)`` refreshes the halos of the direction
    vector before each operator application; two allreduces per iteration
    reproduce su3_rmd's reduction cadence.
    """
    sites = op.decomp.local_sites
    apply_ns = sites * flops_per_site() / flop_rate * 1e9
    vec_ns = sites * 3 * 8 * 6 / flop_rate * 1e9  # axpy-ish updates

    x = np.zeros_like(b)
    r = b.copy()
    p_pad = op.padded(r)
    rr = yield from ctx.coll.allreduce(local_dot(r, r), nbytes=16)
    bb = rr
    iters = 0
    while iters < maxiter and rr.real > (tol * tol) * bb.real:
        yield from halo.exchange(p_pad)
        ap = op.apply(p_pad)
        yield from ctx.compute(apply_ns)
        p_int = StencilOperator.interior(p_pad)
        pap = yield from ctx.coll.allreduce(local_dot(p_int, ap), nbytes=16)
        alpha = rr / pap
        x += alpha * p_int
        r -= alpha * ap
        yield from ctx.compute(vec_ns)
        rr_new = yield from ctx.coll.allreduce(local_dot(r, r), nbytes=16)
        beta = rr_new / rr
        rr = rr_new
        StencilOperator.interior(p_pad)[...] = r + beta * p_int
        iters += 1
    return x, iters, float(np.sqrt(rr.real / bb.real))
