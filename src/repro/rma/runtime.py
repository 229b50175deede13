"""Window creation protocols (paper Section 2.2) and the RMA context.

* ``win_allocate`` -- the scalable symmetric-heap protocol: leader draws a
  random base address, broadcasts it, everyone tries mmap(MAP_FIXED), an
  allreduce validates, retry on collision.  O(1) memory, O(log p) time
  w.h.p.
* ``win_create`` -- traditional windows over user memory: two allgathers
  (DMAPP descriptors world-wide, XPMEM tokens intra-node), Omega(p)
  descriptor storage per rank.  "Fundamentally non-scalable ... their use
  is strongly discouraged" -- we build them anyway, and the test suite
  *measures* the Omega(p) footprint against win_allocate's O(1).
* ``win_create_dynamic`` -- control words plus a registered directory
  segment for the descriptor-cache protocol.
* ``win_allocate_shared`` -- one contiguous per-node segment, every rank
  maps it directly (XPMEM/POSIX-shm style), constant memory per core.

A :class:`Window` enters its world's window table (``World.windows``,
win_id -> rank -> Window) when it is constructed.  A protocol publishes
by setting fields of its own Window (control words, XPMEM exposure,
dynamic directory, shared size and segment); after the protocol's
barrier a rank reads them from the peer's Window in ``win.peers``.
"""

from __future__ import annotations

from repro.errors import WindowError
from repro.mem import SegmentCells, control_words
from repro.mem.symheap import propose_address, try_symmetric_alloc
from repro.rma import dynamic as dyn_mod
from repro.rma.enums import WinFlavor
from repro.rma.params import FompiParams
from repro.rma.window import CTRL_WORDS_BASE, Window

__all__ = ["RmaContext"]


class RmaContext:
    """Per-rank factory for MPI windows (``ctx.rma``)."""

    def __init__(self, ctx, params: FompiParams | None = None) -> None:
        self.ctx = ctx
        self.params = params or FompiParams()
        self._next_win = 0

    def _new_win_id(self) -> int:
        # All ranks create windows in the same (collective) order, so a
        # local counter yields consistent ids.
        wid = self._next_win
        self._next_win += 1
        return wid

    # ------------------------------------------------------------------
    def _make_ctrl(self, win: Window) -> SegmentCells:
        # Base words + PSCW matching ring + the user-extension words
        # (e.g. for MCS queue locks, repro.rma.mcs).
        ncells = (CTRL_WORDS_BASE + self.params.pscw_ring_capacity
                  + self.params.user_ctrl_words)
        ctrl = control_words(self.ctx.env, ncells,
                             name=f"win{win.win_id}@{self.ctx.rank}")
        self.ctx.world.counters.add_control_memory(self.ctx.rank, ncells)
        return ctrl

    def _exchange_ctrl(self, win: Window):
        """Expose our segment, then map the same-node peers' ones.

        Peers read our control words and exposure from our Window
        (``win.peers``).  For allocated windows the control words live at
        symmetric offsets, so no descriptor exchange is needed -- a
        barrier orders publication (O(log p)).
        """
        if win.seg is not None:
            win.xtoken = self.ctx.xpmem.expose(win.seg)
        yield from self.ctx.coll.barrier()
        if win.seg is not None:
            # token.node first (attach() takes this node's tokens only):
            # the compare spares p placement queries per rank.  Atomics
            # address it too; ctx.amo still picks the CPU or NIC by node.
            node = self.ctx.node
            for r, peer in win.peers.items():
                token = peer.xtoken
                if (token.node == node and r != self.ctx.rank
                        and self.ctx.same_node(r)):
                    win.xsegs[r] = (self.ctx.xpmem.attach(token), 0)

    # ------------------------------------------------------------------
    def win_allocate(self, size: int, disp_unit: int = 1) -> "Generator":
        """MPI_Win_allocate with the symmetric-heap protocol."""
        ctx = self.ctx
        win = Window(ctx, self._new_win_id(), WinFlavor.ALLOCATE,
                     disp_unit=disp_unit, size=size, params=self.params)
        leader_rng = ctx.world.rng("symheap", 0) if ctx.rank == 0 else None
        seg = None
        while True:
            addr = None
            if ctx.rank == 0:
                addr = propose_address(leader_rng, max(1, size))
            addr = yield from ctx.coll.bcast(addr, root=0, nbytes=8)
            seg = try_symmetric_alloc(ctx.space, addr, max(1, size),
                                      label=f"win{win.win_id}")
            ok = yield from ctx.coll.allreduce(
                1 if seg is not None else 0, op=min, nbytes=8)
            if ok:
                break
            if seg is not None:
                ctx.space.free(seg)
                seg = None
        win.seg = seg
        win.desc = ctx.reg.register(seg)
        win.ctrl = self._make_ctrl(win)
        yield from self._exchange_ctrl(win)
        return win

    # ------------------------------------------------------------------
    def win_create(self, seg, disp_unit: int = 1) -> "Generator":
        """MPI_Win_create over caller-provided memory (non-scalable)."""
        ctx = self.ctx
        if seg.rank != ctx.rank:
            raise WindowError("win_create needs this rank's own memory")
        win = Window(ctx, self._new_win_id(), WinFlavor.CREATE,
                     seg=seg, disp_unit=disp_unit, size=seg.size,
                     params=self.params)
        desc = ctx.reg.register(seg)
        # First allgather: DMAPP descriptors from every rank (Omega(p)).
        descs = yield from ctx.coll.allgather(desc, nbytes=32)
        win.descs = {r: d for r, d in enumerate(descs)}
        ctx.world.counters.add_control_memory(ctx.rank, len(descs))
        win.ctrl = self._make_ctrl(win)
        # Second allgather: XPMEM tokens among intra-node peers (modeled
        # inside _exchange_ctrl's publication + barrier).
        yield from self._exchange_ctrl(win)
        return win

    # ------------------------------------------------------------------
    def win_create_dynamic(self, optimized: bool = False) -> "Generator":
        """MPI_Win_create_dynamic: no memory yet; attach/detach later.

        ``optimized=True`` selects the paper's notification-based cache
        invalidation protocol (lower communication latency, extra memory,
        costlier detach -- see :mod:`repro.rma.dynamic`).
        """
        ctx = self.ctx
        win = Window(ctx, self._new_win_id(), WinFlavor.DYNAMIC,
                     params=self.params)
        win.ctrl = self._make_ctrl(win)
        if optimized:
            st = dyn_mod.OptimizedDynamicState(
                cachers=control_words(ctx.env, dyn_mod._RING_CAPACITY,
                                      name=f"dyncachers@{ctx.rank}"),
                inval=control_words(ctx.env, dyn_mod._RING_CAPACITY,
                                    name=f"dyninval@{ctx.rank}"))
            ctx.world.counters.add_control_memory(
                ctx.rank, 2 * dyn_mod._RING_CAPACITY)
        else:
            st = dyn_mod.DynamicState()
        st.directory_seg = ctx.space.alloc(dyn_mod._DIRECTORY_BYTES,
                                           label=f"dyndir{win.win_id}")
        st.directory_desc = ctx.reg.register(st.directory_seg)
        win.dyn = st
        yield from self._exchange_ctrl(win)
        return win

    # ------------------------------------------------------------------
    def win_allocate_shared(self, size: int, disp_unit: int = 1) -> "Generator":
        """MPI_Win_allocate_shared: all ranks must share a node."""
        ctx = self.ctx
        nodes = {ctx.node_of(r) for r in range(ctx.nranks)}
        if len(nodes) != 1:
            raise WindowError(
                "win_allocate_shared requires all ranks on one node "
                f"(nodes: {sorted(nodes)})")
        win = Window(ctx, self._new_win_id(), WinFlavor.SHARED,
                     disp_unit=disp_unit, size=size, params=self.params)
        yield from ctx.coll.barrier()  # every peer's size is set
        if ctx.rank == 0:
            sizes = [win.peers[r].size for r in range(ctx.nranks)]
            seg = ctx.space.alloc(max(1, sum(sizes)),
                                  label=f"shwin{win.win_id}")
            ctx.reg.register(seg)
            off = 0
            for r, size in enumerate(sizes):    # every rank's part
                win.xsegs[r] = (seg, off)
                off += size
        yield from ctx.coll.barrier()
        win.xsegs = dict(win.peers[0].xsegs)
        win.ctrl = self._make_ctrl(win)
        yield from self._exchange_ctrl(win)  # win.seg is None: no XPMEM maps
        return win

    # ------------------------------------------------------------------
    def win_attach(self, win: Window, seg):
        if win.flavor is not WinFlavor.DYNAMIC:
            raise WindowError("attach on a non-dynamic window")
        return (yield from dyn_mod.attach(win, seg))

    def win_detach(self, win: Window, desc):
        if win.flavor is not WinFlavor.DYNAMIC:
            raise WindowError("detach on a non-dynamic window")
        yield from dyn_mod.detach(win, desc)
