"""The distributed 3-D FFT.

Data layouts on rank (py, pz) of a Py x Pz grid, global dims (Nx, Ny, Nz):

    a1[Nx][ly][lz]   x-pencils   ly = Ny/Py, lz = Nz/Pz
    a2[Ny][lx][lz]   y-pencils   lx = Nx/Py
    a3[Nz][lx][ly2]  z-pencils   ly2 = Ny/Pz

Transpose 1 (within the row group, fixed pz): peer qy receives
``a1_f[qy*lx:(qy+1)*lx, :, :]`` transposed to (ly, lx, lz), which lands
*contiguously* at a2 offset ``py*ly * lx*lz`` elements -- one put per
(chunk, peer), no datatype scatter needed.  Transpose 2 is symmetric for
y<->z within the column group.

Chunking along the receiver-contiguous axis (y for phase 1, z for phase
2) is what enables the slab-overlap schedule: each chunk's FFT is followed
immediately by its nonblocking puts while the next chunk computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["VARIANTS", "FftSpec", "fft_program", "gather_result"]

VARIANTS = ("rma_overlap", "upc_overlap", "mpi1")

_COMPLEX = np.complex128
_ELEM = 16  # bytes per complex128


@dataclass(frozen=True)
class FftSpec:
    """Problem + cost-model description.

    ``flop_rate`` is the effective per-core FFT rate (flops/s) used to
    charge simulated compute time; pick it to set the compute/comm ratio
    of the scale being modeled (see EXPERIMENTS.md).  ``chunks`` is the
    slab count for the overlap schedule.
    """

    nx: int
    ny: int
    nz: int
    flop_rate: float = 2.0e9
    chunks: int = 4

    @property
    def points(self) -> int:
        return self.nx * self.ny * self.nz

    def total_flops(self) -> float:
        return 5.0 * self.points * (math.log2(self.nx) + math.log2(self.ny)
                                    + math.log2(self.nz))

    def fft_ns(self, lines: int, length: int) -> float:
        """Simulated time for ``lines`` 1-D FFTs of ``length``."""
        return 5.0 * lines * length * math.log2(length) / self.flop_rate * 1e9


def _initial_block(spec: FftSpec, py: int, pz: int, ly: int, lz: int) -> np.ndarray:
    """Deterministic global input A[x,y,z], sliced for this rank."""
    x = np.arange(spec.nx)[:, None, None]
    y = (py * ly + np.arange(ly))[None, :, None]
    z = (pz * lz + np.arange(lz))[None, None, :]
    re = np.sin(0.7 * x + 0.3 * y + 0.1 * z)
    im = np.cos(0.2 * x - 0.5 * y + 0.9 * z)
    return (re + 1j * im).astype(_COMPLEX)


def fft_program(ctx, spec: FftSpec, variant: str, result_box: dict | None = None):
    """SPMD 3-D FFT; returns (elapsed_ns, gflops).

    variants: 'mpi1', 'rma_overlap', 'upc_overlap'.
    """
    p = ctx.nranks
    from repro.apps.fft.decomposition import ProcessGrid

    grid = ProcessGrid.for_ranks(p)
    grid.check_divides(spec.nx, spec.ny, spec.nz)
    py, pz = grid.coords(ctx.rank)
    ly, lz = spec.ny // grid.py, spec.nz // grid.pz
    lx, ly2 = spec.nx // grid.py, spec.ny // grid.pz

    a1 = _initial_block(spec, py, pz, ly, lz)

    a2_bytes = spec.ny * lx * lz * _ELEM
    a3_bytes = spec.nz * lx * ly2 * _ELEM

    if variant == "rma_overlap":
        win2 = yield from ctx.rma.win_allocate(a2_bytes)
        win3 = yield from ctx.rma.win_allocate(a3_bytes)
        yield from win2.lock_all()
        yield from win3.lock_all()
        comm = _RmaComm(ctx, win2, win3)
    elif variant == "upc_overlap":
        arr2 = yield from ctx.upc.all_alloc(a2_bytes)
        arr3 = yield from ctx.upc.all_alloc(a3_bytes)
        comm = _UpcComm(ctx, arr2, arr3)
    elif variant == "mpi1":
        comm = _MpiComm(ctx)
    else:
        raise ValueError(f"unknown FFT variant {variant!r}")

    yield from ctx.coll.barrier()
    t0 = ctx.now

    # ---- phase 1: FFT along x, transpose x<->y within the row group ----
    row = grid.row_group(ctx.rank)
    # Slab granularity: don't chop per-peer blocks below ~2 KiB -- tiny
    # puts cost more in per-op overhead than the overlap they buy.
    per_peer1 = ly * lx * lz * _ELEM
    nchunk = max(1, min(spec.chunks, ly, per_peer1 // 2048))
    cy = ly // nchunk
    yield from comm.begin_phase(1, row, a2_bytes)
    pieces1 = {}
    for c in range(nchunk):
        y0 = c * cy
        y1 = ly if c == nchunk - 1 else (c + 1) * cy
        a1[:, y0:y1, :] = np.fft.fft(a1[:, y0:y1, :], axis=0)
        yield from ctx.compute(spec.fft_ns((y1 - y0) * lz, spec.nx))
        for qy in range(grid.py):
            peer = row[qy]
            block = np.ascontiguousarray(
                a1[qy * lx:(qy + 1) * lx, y0:y1, :].transpose(1, 0, 2))
            off = (py * ly + y0) * lx * lz * _ELEM
            yield from comm.send_block(1, peer, off, block, pieces1)
    a2 = yield from comm.end_phase(1, row, (spec.ny, lx, lz), pieces1)

    # ---- phase 2: FFT along y, transpose y<->z within the column group --
    col = grid.col_group(ctx.rank)
    per_peer2 = ly2 * lx * lz * _ELEM
    nchunk = max(1, min(spec.chunks, lz, per_peer2 // 2048))
    cz = lz // nchunk
    yield from comm.begin_phase(2, col, a3_bytes)
    pieces2 = {}
    for c in range(nchunk):
        z0 = c * cz
        z1 = lz if c == nchunk - 1 else (c + 1) * cz
        a2[:, :, z0:z1] = np.fft.fft(a2[:, :, z0:z1], axis=0)
        yield from ctx.compute(spec.fft_ns((z1 - z0) * lx, spec.ny))
        for qz in range(grid.pz):
            peer = col[qz]
            block = np.ascontiguousarray(
                a2[qz * ly2:(qz + 1) * ly2, :, z0:z1].transpose(2, 1, 0))
            off = (pz * lz + z0) * lx * ly2 * _ELEM
            yield from comm.send_block(2, peer, off, block, pieces2)
    a3 = yield from comm.end_phase(2, col, (spec.nz, lx, ly2), pieces2)

    # ---- phase 3: FFT along z (no further communication) ----------------
    a3 = np.fft.fft(a3, axis=0)
    yield from ctx.compute(spec.fft_ns(lx * ly2, spec.nz))
    yield from ctx.coll.barrier()
    elapsed = ctx.now - t0
    if variant == "rma_overlap":
        yield from win2.unlock_all()
        yield from win3.unlock_all()

    if result_box is not None:
        result_box[ctx.rank] = a3
    gflops = spec.total_flops() / max(1, elapsed)  # flops/ns == gflops/s
    return elapsed, gflops


def gather_result(spec: FftSpec, p: int, boxes: dict) -> np.ndarray:
    """Reassemble the distributed result into F[x][y][z] for verification."""
    from repro.apps.fft.decomposition import ProcessGrid

    grid = ProcessGrid.for_ranks(p)
    lx, ly2 = spec.nx // grid.py, spec.ny // grid.pz
    out = np.zeros((spec.nx, spec.ny, spec.nz), dtype=_COMPLEX)
    for rank in range(p):
        py, pz = grid.coords(rank)
        a3 = boxes[rank]  # (Nz, lx, ly2)
        out[py * lx:(py + 1) * lx, pz * ly2:(pz + 1) * ly2, :] = \
            a3.transpose(1, 2, 0)
    return out


# ---------------------------------------------------------------------------
# communication engines
# ---------------------------------------------------------------------------
class _RmaComm:
    """foMPI slab-overlap engine: one lock_all epoch for the whole run,
    nonblocking puts per chunk, a single flush_all + barrier to close each
    phase ("completes the communication as late as possible")."""

    def __init__(self, ctx, win2, win3) -> None:
        self.ctx = ctx
        self.wins = {1: win2, 2: win3}

    def begin_phase(self, phase, group, nbytes):
        yield from self.ctx.coll.barrier()

    def send_block(self, phase, peer, offset, block, _pieces):
        yield from self.wins[phase].put(block.view(np.uint8).ravel(),
                                        peer, offset)

    def end_phase(self, phase, group, shape, _pieces):
        win = self.wins[phase]
        yield from win.flush_all()
        yield from self.ctx.coll.barrier()
        return win.local_view(np.uint8).view(_COMPLEX).reshape(shape).copy()


class _UpcComm:
    """UPC slab engine: deferred memputs, upc_fence + barrier to close."""

    def __init__(self, ctx, arr2, arr3) -> None:
        self.ctx = ctx
        self.arrs = {1: arr2, 2: arr3}

    def begin_phase(self, phase, group, nbytes):
        yield from self.ctx.upc.barrier()

    def send_block(self, phase, peer, offset, block, _pieces):
        yield from self.ctx.upc.memput_nb(self.arrs[phase], peer, offset,
                                          block.view(np.uint8).ravel())

    def end_phase(self, phase, group, shape, _pieces):
        yield from self.ctx.upc.fence()
        yield from self.ctx.upc.barrier()
        arr = self.arrs[phase]
        return arr.local_view(np.uint8).view(_COMPLEX).reshape(shape).copy()


class _MpiComm:
    """The 'nonblocking MPI' baseline: chunks are accumulated locally and
    all blocks are exchanged at the end of the phase (no overlap)."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def begin_phase(self, phase, group, nbytes):
        yield from self.ctx.coll.barrier()

    def send_block(self, phase, peer, offset, block, pieces):
        # Defer: coalesce this chunk into the per-peer staging buffer.
        pieces.setdefault(peer, []).append((offset, block))
        return
        yield  # pragma: no cover - generator protocol

    def end_phase(self, phase, group, shape, pieces):
        ctx = self.ctx
        out = np.zeros(shape, dtype=_COMPLEX)
        flat = out.view(np.uint8).ravel()
        reqs = []
        for peer, blocks in pieces.items():
            payload = [(off, b.copy()) for off, b in blocks]
            r = yield from ctx.mpi.isend(
                peer, payload, tag=90 + phase, channel="fft",
                nbytes=sum(b.nbytes for _o, b in blocks))
            reqs.append(r)
        for _ in range(len(pieces)):
            got = yield from ctx.mpi.recv(tag=90 + phase, channel="fft")
            for off, block in got:
                raw = block.view(np.uint8).ravel()
                flat[off:off + raw.size] = raw
        for r in reqs:
            yield from r.wait()
        return out
