"""Microbenchmark drivers: Figures 4 (latency), 5 (overlap, message rate)
and 6a (atomics).

Methodology mirrors the paper's (Section 3): each driver times the
operation across repetitions on a 2-rank job and reports the per-operation
time in nanoseconds of *simulated* time.  All RMA latencies include remote
completion (put+flush) but no synchronization, exactly as the paper
defines them; MPI-1 latency is the classic ping-pong half round trip.

Every one-sided transport is measured by the same rank-0 loop: the
transports differ only in the calls of their :class:`_Ops` entry, so a
figure's method is written once for foMPI, UPC, CAF and Cray MPI-2.2.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from repro.config import MachineConfig
from repro.runtime.job import run_spmd
from repro.rma.cray22 import win_allocate_cray22
from repro.rma.enums import Op

__all__ = [
    "INTER_2", "INTRA_2",
    "put_latency", "get_latency",
    "message_rate", "overlap_fraction",
    "atomic_latency",
    "LATENCY_TRANSPORTS",
]

INTER_2 = MachineConfig(ranks_per_node=1)    # 2 ranks on 2 nodes
INTRA_2 = MachineConfig(ranks_per_node=32)   # 2 ranks on 1 node

LATENCY_TRANSPORTS = ("fompi", "upc", "caf", "mpi1", "cray22")


# ---------------------------------------------------------------------------
# the one-sided transports: five calls each, all aimed at rank 1, offset 0
# ---------------------------------------------------------------------------
class _Ops(NamedTuple):
    put: Callable       # put(data): completed by a following complete()
    put_nb: Callable    # put_nb(data): deferred put (rate, overlap)
    complete: Callable  # complete(): remote completion of the puts so far
    get: Callable       # get(out): a get, complete on return
    close: Callable     # close(): end the epoch; every rank calls it


def _fompi(ctx, size):
    win = yield from ctx.rma.win_allocate(size)
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    put = partial(win.put, target=1)
    flush = partial(win.flush, 1)

    def get(out):
        yield from win.get(out, 1)
        yield from flush()

    def close():
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
    return _Ops(put, put, flush, get, close)


def _upc(ctx, size):
    upc = ctx.upc
    arr = yield from upc.all_alloc(size)
    yield from upc.barrier()
    return _Ops(partial(upc.memput, arr, 1, 0),
                partial(upc.memput_nb, arr, 1, 0), upc.fence,
                lambda out: upc.memget(arr, 1, 0, out.size), upc.barrier)


def _caf(ctx, size):
    caf = ctx.caf
    co = yield from caf.coarray_alloc(size)
    yield from caf.sync_all()
    return _Ops(partial(caf.assign, co, 1, 0),
                partial(caf.assign_nb, co, 1, 0), caf.sync_memory,
                lambda out: caf.read(co, 1, 0, out.size), caf.sync_all)


def _cray22(ctx, size):
    win = yield from win_allocate_cray22(ctx, size)
    yield from ctx.coll.barrier()
    put = partial(win.put, target=1)
    return _Ops(put, put, partial(win.flush, 1), partial(win.get, target=1),
                ctx.coll.barrier)


_OPEN = {"fompi": _fompi, "upc": _upc, "caf": _caf, "cray22": _cray22}


def _run(transport: str, size: int, intra: bool, rank0, mpi1=None) -> float:
    """Run ``rank0(ctx, ops)`` on rank 0 of a 2-rank job inside
    ``transport``'s epoch over ``size``-byte buffers and return its value;
    ``mpi1`` is the whole program for the two-sided transport."""
    if transport == "mpi1" and mpi1 is not None:
        program = mpi1
    elif transport in _OPEN:
        open_ = _OPEN[transport]

        def program(ctx):
            ops = yield from open_(ctx, size)
            value = None
            if ctx.rank == 0:
                value = yield from rank0(ctx, ops)
            yield from ops.close()
            return value
    else:
        raise ValueError(f"unknown transport {transport!r}")
    res = run_spmd(program, 2, machine=INTRA_2 if intra else INTER_2)
    return float(res.returns[0])


# ---------------------------------------------------------------------------
# latency (Figure 4)
# ---------------------------------------------------------------------------
def put_latency(transport: str, nbytes: int, *, intra: bool = False,
                reps: int = 8) -> float:
    """Per-put latency (ns) including remote completion."""
    return _latency(transport, nbytes, "put", intra, reps)


def get_latency(transport: str, nbytes: int, *, intra: bool = False,
                reps: int = 8) -> float:
    """Per-get latency (ns)."""
    return _latency(transport, nbytes, "get", intra, reps)


def _latency(transport: str, nbytes: int, direction: str, intra: bool,
             reps: int) -> float:
    data = np.ones(nbytes, dtype=np.uint8)

    def rank0(ctx, ops):
        out = np.zeros(nbytes, np.uint8)
        t0 = ctx.now
        for _ in range(reps):
            if direction == "put":
                yield from ops.put(data)
                yield from ops.complete()
            else:
                yield from ops.get(out)
        return (ctx.now - t0) / reps

    # Ping-pong half round trip: send/recv implies remote synchronization.
    def ping_pong(ctx):
        yield from ctx.coll.barrier()
        dt = None
        if ctx.rank == 0:
            t0 = ctx.now
            for _ in range(reps):
                yield from ctx.mpi.send(1, data)
                yield from ctx.mpi.recv(1)
            dt = (ctx.now - t0) / (2 * reps)
        else:
            for _ in range(reps):
                got = yield from ctx.mpi.recv(0)
                yield from ctx.mpi.send(0, got)
        yield from ctx.coll.barrier()
        return dt

    return _run(transport, max(nbytes, 8), intra, rank0, ping_pong)


# ---------------------------------------------------------------------------
# message rate (Figures 5b/5c)
# ---------------------------------------------------------------------------
def message_rate(transport: str, nbytes: int, *, intra: bool = False,
                 nmsgs: int = 1000) -> float:
    """Sustained message injection rate in messages/second (simulated):
    nmsgs operations started without synchronization, one completion."""
    data = np.ones(nbytes, dtype=np.uint8)

    def rank0(ctx, ops):
        t0 = ctx.now
        for _ in range(nmsgs):
            yield from ops.put_nb(data)
        return nmsgs / max(1e-9, (ctx.now - t0) / 1e9)

    def isend_recv(ctx):
        yield from ctx.coll.barrier()
        rate = None
        if ctx.rank == 0:
            reqs = []
            t0 = ctx.now
            for i in range(nmsgs):
                r = yield from ctx.mpi.isend(1, data, tag=i)
                reqs.append(r)
            rate = nmsgs / max(1e-9, (ctx.now - t0) / 1e9)
            for r in reqs:
                yield from r.wait()
        else:
            for i in range(nmsgs):
                yield from ctx.mpi.recv(0, tag=i)
        yield from ctx.coll.barrier()
        return rate

    return _run(transport, max(nbytes, 8) * 2, intra, rank0, isend_recv)


# ---------------------------------------------------------------------------
# overlap (Figure 5a)
# ---------------------------------------------------------------------------
def overlap_fraction(transport: str, nbytes: int, *, intra: bool = False) -> float:
    """Fraction of communication time hideable behind computation.

    The paper's method: calibrate a compute loop slightly longer than the
    communication latency, interleave it between start and completion, and
    compute overlap from the three times.
    """
    if transport not in ("fompi", "upc", "cray22"):
        raise ValueError("overlap benchmark defined for fompi/upc/cray22")
    comm = put_latency(transport, nbytes, intra=intra, reps=4)
    comp = comm * 1.15
    data = np.ones(nbytes, dtype=np.uint8)

    def rank0(ctx, ops):
        t0 = ctx.now
        yield from ops.put_nb(data)
        yield from ctx.compute(comp)
        yield from ops.complete()
        return ctx.now - t0

    total = _run(transport, max(nbytes, 8), intra, rank0)
    overlapped = comm + comp - total
    return max(0.0, min(1.0, overlapped / comm))


# ---------------------------------------------------------------------------
# atomics (Figure 6a)
# ---------------------------------------------------------------------------
_ATOMIC_KINDS = ("fompi_sum", "fompi_min", "fompi_cas", "upc_aadd", "upc_cas")


def atomic_latency(kind: str, nelems: int, *, reps: int = 4) -> float:
    """Latency (ns) of an atomic accumulate of ``nelems`` 8-byte elements.

    Kinds: 'fompi_sum' (NIC stream), 'fompi_min' (software fallback),
    'fompi_cas', 'upc_aadd', 'upc_cas'.
    """
    if kind not in _ATOMIC_KINDS:
        raise ValueError(f"unknown atomic kind {kind!r}")
    if kind.startswith("fompi"):
        op = {"fompi_sum": Op.SUM, "fompi_min": Op.MIN}.get(kind)

        def program(ctx):
            win = yield from ctx.rma.win_allocate(max(64, nelems * 8),
                                                  disp_unit=8)
            yield from win.lock_all()
            yield from ctx.coll.barrier()
            dt = None
            if ctx.rank == 0:
                vals = np.ones(nelems, dtype=np.int64)
                t0 = ctx.now
                for _ in range(reps):
                    if kind == "fompi_cas":
                        yield from win.compare_and_swap(
                            np.int64(0), np.int64(1), 1, 0)
                    else:
                        yield from win.accumulate(vals, 1, 0, op)
                        yield from win.flush(1)
                dt = (ctx.now - t0) / reps
            yield from win.unlock_all()
            yield from ctx.coll.barrier()
            return dt
    else:
        def program(ctx):
            arr = yield from ctx.upc.all_alloc(max(64, nelems * 8))
            yield from ctx.upc.barrier()
            dt = None
            if ctx.rank == 0:
                t0 = ctx.now
                for _ in range(reps):
                    for e in range(nelems):
                        if kind == "upc_aadd":
                            yield from ctx.upc.aadd(arr, 1, e, 1)
                        else:
                            yield from ctx.upc.cas(arr, 1, e, 0, 1)
                dt = (ctx.now - t0) / reps
            yield from ctx.upc.barrier()
            return dt

    res = run_spmd(program, 2, machine=INTER_2)
    return float(res.returns[0])
