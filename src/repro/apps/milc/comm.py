"""Halo-exchange engines for the MILC proxy.

The RMA scheme is the paper's (Section 4.4, after the UPC MILC port):

    "A process notifies all neighbors with a separate atomic add as soon
    as the data in the 'send' buffer is initialized.  Then all processes
    wait for this flag before they get [...] the communication data into
    their local buffers."

Window layout (bytes): [0..8) monotone notification counter, then eight
packed send-buffer slots (one per direction).  The counter is never reset;
after exchange round n every rank waits for ``n * incoming`` -- this
avoids any reset race without extra synchronization.

Nothing about a rank's halo changes between exchanges, so its geometry
(per decomposed direction: neighbour rank, face size, send slot, the
neighbour's opposite slot, and the flat face and halo indices of the
lattice shape's :class:`~repro.apps.milc.su3.ShapePlan`) is a plan made
at construction; an exchange loops over the plan and computes no
coordinates.  A face is packed with one ``np.take`` straight into its
send slot and installed with one indexed store, and the periodic
wraparound of every undecomposed dimension is one gather and one store.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.apps.milc.lattice import LatticeDecomp
from repro.apps.milc.su3 import shape_plan
from repro.rma.enums import Op

__all__ = ["Mpi1Halo", "RmaHalo", "UpcHalo", "DIRECTIONS"]

DIRECTIONS = [(dim, side) for dim in range(4) for side in (-1, +1)]
_POLL_NS = 400
#: Per-byte cost of packing a face into a send buffer.  MILC's MPI path
#: serializes faces just like the UPC/RMA paths do (paper Section 4.4).
_PACK_NS_PER_BYTE = 0.154
#: The notification operand (read-only: every in-flight atomic add of
#: every rank shares it).
_ONE = np.array([1], np.int64)
_ONE.flags.writeable = False


class _Face(NamedTuple):
    """One decomposed direction of one rank's halo."""

    dim: int
    side: int       # -1: low, +1: high
    peer: int       # the neighbour rank on that side
    nbytes: int     # packed face size
    slot: int       # byte offset of my send slot for this face
    theirs: int     # byte offset of the peer's opposite slot: what I fetch
    face: np.ndarray  # flat indices of the face I send
    halo: np.ndarray  # flat indices of the halo layer it fills


class _HaloBase:
    """Geometry shared by the three engines, computed once per rank:
    ``plan`` (a :class:`_Face` per decomposed direction), the flat
    indices of the local wraparound, the window size and the pack charge.
    The slots are the window layout above -- all eight, decomposed or
    not -- which the message-passing engine ignores."""

    def __init__(self, ctx, decomp: LatticeDecomp) -> None:
        self.ctx = ctx
        self.decomp = decomp
        self.rounds = 0
        shape = shape_plan(tuple(decomp.local))
        offsets = {}
        self.win_bytes = 64
        for dim, side in DIRECTIONS:
            offsets[dim, side] = self.win_bytes
            self.win_bytes += decomp.face_bytes(dim)
        self.plan = [
            _Face(dim, side, decomp.neighbor(ctx.rank, dim, side),
                  decomp.face_bytes(dim), offsets[dim, side],
                  offsets[dim, -side], shape.face[dim, side],
                  shape.halo[dim, side])
            for dim, side in DIRECTIONS if decomp.pgrid[dim] > 1]
        # An undecomposed dimension is its own neighbour: each halo layer
        # takes the opposite face of the same field.
        wrap = [(dim, side) for dim, side in DIRECTIONS
                if decomp.pgrid[dim] == 1]
        self.wrap_from = np.concatenate([np.empty(0, np.intp)] + [
            shape.face[dim, -side] for dim, side in wrap])
        self.wrap_to = np.concatenate([np.empty(0, np.intp)] + [
            shape.halo[dim, side] for dim, side in wrap])
        self.pack_ns = sum(f.nbytes for f in self.plan) * _PACK_NS_PER_BYTE

    def _local_wrap(self, padded) -> None:
        """Periodic wraparound for undecomposed dimensions."""
        flat = padded.reshape(-1)
        flat[self.wrap_to] = flat.take(self.wrap_from)

    def _pack(self, padded, view) -> None:
        """Copy every outgoing face into its send slot of ``view`` (this
        rank's window bytes; local stores)."""
        flat = padded.reshape(-1)
        for f in self.plan:
            np.take(flat, f.face, mode="clip",
                    out=view[f.slot:f.slot + f.nbytes].view(np.complex128))

    def _install(self, padded, faces) -> None:
        """Install the fetched faces (raw bytes, in plan order)."""
        flat = padded.reshape(-1)
        for f, raw in zip(self.plan, faces):
            flat[f.halo] = raw.view(np.complex128)


class Mpi1Halo(_HaloBase):
    """Nonblocking send/recv per direction, waitall, install."""

    def setup(self):
        return
        yield  # pragma: no cover

    def exchange(self, padded):
        mpi = self.ctx.mpi
        self._local_wrap(padded)
        self.rounds += 1
        tagbase = self.rounds * 16
        yield from self.ctx.compute(self.pack_ns)
        # my (dim, side) halo comes from that neighbor's opposite face
        recvs = [mpi.irecv(f.peer, tag=tagbase + f.dim * 2 + (f.side > 0),
                           channel="milc")
                 for f in self.plan]
        flat = padded.reshape(-1)
        sends = []
        for f in self.plan:
            # the tag encodes the direction *at the receiver*: my low face
            # fills their high halo
            sends.append((yield from mpi.isend(
                f.peer, flat.take(f.face),
                tag=tagbase + f.dim * 2 + (f.side < 0), channel="milc")))
        for f, req in zip(self.plan, recvs):
            flat[f.halo] = yield from req.wait()
        for req in sends:
            yield from req.wait()


class RmaHalo(_HaloBase):
    """foMPI get-based exchange with atomic-add notification."""

    win = None

    def setup(self):
        self.win = yield from self.ctx.rma.win_allocate(self.win_bytes)
        yield from self.win.lock_all()

    def teardown(self):
        yield from self.win.unlock_all()

    def exchange(self, padded):
        ctx = self.ctx
        win = self.win
        plan = self.plan
        self._local_wrap(padded)
        self.rounds += 1
        # 1. pack all faces into my window's send slots (local stores)
        self._pack(padded, win.local_view(np.uint8))
        yield from ctx.compute(self.pack_ns)
        yield from win.sync()
        # 2. notify every neighbor with a separate atomic add
        for f in plan:
            yield from win.accumulate(_ONE, f.peer, 0, Op.SUM)
        # 3. wait until all neighbors of this round notified me
        expected = self.rounds * len(plan)
        flag = win.local_view(np.int64)
        while int(flag[0]) < expected:
            yield _POLL_NS
        # 4. get each neighbor's opposite face, as late as possible
        faces = []
        for f in plan:
            raw = np.empty(f.nbytes, dtype=np.uint8)
            yield from win.get(raw, f.peer, f.theirs)
            faces.append(raw)
        yield from win.flush_all()
        self._install(padded, faces)


class UpcHalo(_HaloBase):
    """The original UPC scheme (aadd + upc_memget_nb + fence)."""

    arr = None

    def setup(self):
        self.arr = yield from self.ctx.upc.all_alloc(self.win_bytes)

    def exchange(self, padded):
        ctx = self.ctx
        upc = ctx.upc
        arr = self.arr
        plan = self.plan
        self._local_wrap(padded)
        self.rounds += 1
        self._pack(padded, arr.local_view(np.uint8))
        yield from ctx.compute(self.pack_ns)
        for f in plan:
            yield from upc.aadd_nb(arr, f.peer, 0, 1)
        expected = self.rounds * len(plan)
        flag = arr.local_view(np.int64)
        while int(flag[0]) < expected:
            yield _POLL_NS
        faces = []
        for f in plan:
            raw = np.empty(f.nbytes, dtype=np.uint8)
            yield from upc.memget_nb(arr, f.peer, f.theirs, f.nbytes, raw)
            faces.append(raw)
        yield from upc.fence()
        self._install(padded, faces)
