"""The five DSDE protocols.

Every protocol function is an SPMD generator with signature
``(ctx, k, seed) -> (elapsed_ns, sorted_received_payloads)`` so the test
suite can verify all variants deliver the exact same multiset and the
benchmark can time them uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.apps.dsde.common import make_targets, payload_for
from repro.rma.cray22 import win_allocate_cray22
from repro.rma.enums import Op

__all__ = ["PROTOCOLS", "dsde_program"]

_TAG = 7


# ---------------------------------------------------------------------------
def dsde_alltoall(ctx, targets):
    """Dense personalized all-to-all: O(p) work/memory per rank."""
    out = [None] * ctx.nranks
    for t in targets:
        out[t] = payload_for(ctx.rank, t)
    got = yield from ctx.coll.alltoall(out, nbytes_each=8)
    return [v for v in got if v is not None]


# ---------------------------------------------------------------------------
def dsde_reduce_scatter(ctx, targets):
    """Count vector via reduce_scatter, then plain sends."""
    counts = np.zeros(ctx.nranks, dtype=np.int64)
    for t in targets:
        counts[t] += 1
    mine = yield from ctx.coll.reduce_scatter_block(counts)
    reqs = []
    for t in targets:
        r = yield from ctx.mpi.isend(t, payload_for(ctx.rank, t), tag=_TAG,
                                     channel="dsde", nbytes=8)
        reqs.append(r)
    received = []
    for _ in range(int(mine)):
        v = yield from ctx.mpi.recv(tag=_TAG, channel="dsde")
        received.append(v)
    for r in reqs:
        yield from r.wait()
    return received


# ---------------------------------------------------------------------------
def dsde_nbx(ctx, targets):
    """The NBX protocol of [15]: issend + nonblocking barrier."""
    reqs = []
    for t in targets:
        r = yield from ctx.mpi.issend(t, payload_for(ctx.rank, t), tag=_TAG,
                                      channel="dsde", nbytes=8)
        reqs.append(r)
    received = []
    barrier = None
    while True:
        msg = ctx.mpi.improbe(tag=_TAG, channel="dsde")
        if msg is not None:
            received.append((yield from ctx.mpi.mrecv(msg)))
            continue
        if barrier is None:
            if all(r.test() for r in reqs):
                barrier = ctx.coll.ibarrier()
            else:
                yield 200  # progress poll
        elif barrier.test():
            break
        else:
            yield 200
    return received


# ---------------------------------------------------------------------------
def dsde_rma_setup(ctx, k):
    """Window setup (outside the timed exchange, as in the paper's runs)."""
    cap = max(8, 4 * k + 8)
    caps = yield from ctx.coll.allreduce(cap, op=max, nbytes=8)
    return (yield from ctx.rma.win_allocate(8 * (1 + caps), disp_unit=8))


def dsde_rma(ctx, targets, win):
    """foMPI one-sided accumulate protocol in active target (fence) mode.

    Window layout (disp_unit 8): word 0 = incoming counter (FADD target),
    words 1.. = payload slots.  A fetch-and-add reserves a slot, a put
    delivers the payload, the closing fence makes everything visible.
    """
    yield from win.fence()
    for t in targets:
        slot = yield from win.fetch_and_op(np.int64(1), t, 0, Op.SUM)
        yield from win.put(np.array([payload_for(ctx.rank, t)], np.int64),
                           t, 1 + int(slot))
    yield from win.fence()
    vals = win.local_view(np.int64)
    received = [int(v) for v in vals[1:1 + int(vals[0])]]
    return received


# ---------------------------------------------------------------------------
def dsde_cray22_setup(ctx, k):
    win = yield from win_allocate_cray22(ctx, 8 * (1 + ctx.nranks))
    win.seg.typed(np.int64)[:] = 0
    return win


def dsde_rma_cray22(ctx, targets, win):
    """The same exchange over Cray MPI-2.2 one-sided (accumulate counts +
    per-sender payload slots; MPI-2.2 has no fetching atomics)."""
    yield from win.fence()
    for t in targets:
        yield from win.accumulate(np.array([1], np.int64), t, 0)
        yield from win.put(np.array([payload_for(ctx.rank, t)], np.int64),
                           t, 8 * (1 + ctx.rank))
    yield from win.fence()
    view = win.seg.typed(np.int64)
    received = [int(v) for v in view[1:] if v != 0]
    assert int(view[0]) == len(received)
    return received


#: protocol -> (setup generator or None, exchange generator)
PROTOCOLS = {
    "alltoall": (None, dsde_alltoall),
    "reduce_scatter": (None, dsde_reduce_scatter),
    "nbx": (None, dsde_nbx),
    "rma": (dsde_rma_setup, dsde_rma),
    "rma_cray22": (dsde_cray22_setup, dsde_rma_cray22),
}


def dsde_program(ctx, protocol: str, k: int, seed: int | None = None):
    """SPMD driver: setup (untimed), one timed exchange; returns
    (elapsed_ns, sorted received payloads)."""
    seed = ctx.world.sim.seed if seed is None else seed
    targets = make_targets(seed, ctx.rank, ctx.nranks, k)
    setup, exchange = PROTOCOLS[protocol]
    state = None
    if setup is not None:
        state = yield from setup(ctx, k)
    yield from ctx.coll.barrier()
    t0 = ctx.now
    if state is not None:
        received = yield from exchange(ctx, targets, state)
    else:
        received = yield from exchange(ctx, targets)
    yield from ctx.coll.barrier()
    elapsed = ctx.now - t0
    return elapsed, sorted(received)
