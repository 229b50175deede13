"""The MPI window object: communication calls + epoch bookkeeping.

Control-structure layout (one :class:`~repro.mem.atomic.SegmentCells` per
rank per window; indices below) -- these are the O(1)+O(k) words per
process the paper's protocols need:

====================  =======================================================
``IDX_LOCAL_LOCK``    local reader-writer lock word (Figure 3a): MSB = writer
                      flag, low bits = shared-lock count
``IDX_GLOBAL_LOCK``   global lock word, meaningful on the master rank only:
                      high 32 bits = lock_all (shared) count, low 32 bits =
                      count of origins holding exclusive locks
``IDX_PSCW_DONE``     PSCW completion counter (complete() increments)
``IDX_PSCW_VERSION``  bumped on every matching-list append; start() watches it
``IDX_DYN_ID``        dynamic-window attach/detach id counter (Section 2.2)
``IDX_ACC_LOCK``      internal lock for the software accumulate fallback
``IDX_PSCW_SLOTS..``  the matching list: ``ring_capacity`` free-storage slots
                      (Figure 2b/2c), slot value = poster rank + 1, 0 = free
====================  =======================================================

Communication calls follow the paper's Section 2.4: intra-node targets use
XPMEM loads/stores, inter-node targets use DMAPP; derived datatypes are
decomposed into minimal contiguous blocks with one operation per block;
the fast path charges exactly the paper's 173 instructions.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.check import epochs as epoch_rules
from repro.dmapp.api import require_contiguous
from repro.errors import RmaError, WindowError
from repro.mem.atomic import SegmentCells
from repro.rma import accumulate as acc_mod
from repro.rma import fence as fence_mod
from repro.rma import locks as locks_mod
from repro.rma import pscw as pscw_mod
from repro.rma.datatypes import BYTE, Datatype, zip_blocks
from repro.rma.enums import LockType, Op, WinFlavor
from repro.rma.params import FompiParams

__all__ = ["Window", "RmaRequest", "CTRL_WORDS_BASE",
           "IDX_LOCAL_LOCK", "IDX_GLOBAL_LOCK", "IDX_PSCW_DONE",
           "IDX_PSCW_VERSION", "IDX_DYN_ID", "IDX_ACC_LOCK", "IDX_PSCW_SLOTS"]

IDX_LOCAL_LOCK = 0
IDX_GLOBAL_LOCK = 1
IDX_PSCW_DONE = 2
IDX_PSCW_VERSION = 3
IDX_DYN_ID = 4
IDX_ACC_LOCK = 5
IDX_PSCW_SLOTS = 6
CTRL_WORDS_BASE = 6

_FREED = "operation on a freed window"
_I64 = np.dtype(np.int64)


def _word(value) -> tuple[int, np.dtype]:
    """One 8-byte origin element as ``(operand mod 2**64, dtype)``."""
    arr = np.asarray(value).reshape(1)
    return int(arr.astype(np.int64)[0]), arr.dtype


class RmaRequest:
    """Request-based RMA operation handle (MPI_Rput / MPI_Rget)."""

    def __init__(self, win: "Window", handles, result=None) -> None:
        self.win = win
        self.handles = handles
        self.result = result

    def wait(self):
        for h in self.handles:
            yield from self.win.ctx.dmapp.wait(h)
        return self.result


def _accumulate_call(fetch: bool):
    """``Window.get_accumulate`` (``fetch``) or ``Window.accumulate``: one
    body that runs the hardware stream itself (DESIGN.md section 8)."""
    kind = "get_acc" if fetch else "acc"

    def call(self, data, target: int, target_disp: int = 0,
             op: Op = Op.SUM):
        if self.freed:
            raise WindowError(_FREED)
        epoch_rules.require_access(self, target)
        ctx = self.ctx
        arr = np.asarray(data)
        toff = target_disp * self.disp_unit
        if ctx.checker is not None:
            ctx.checker.note_op(
                self, kind, target, [(toff, toff + arr.nbytes)],
                op=op.name.lower(),
                path=acc_mod.acc_path(self, op, arr.dtype, toff))
        if self._acc_ns is not None:
            yield self._acc_ns
        if not acc_mod._hw_eligible(self, op, arr.dtype, toff):
            old = yield from acc_mod._locked_fallback(self, arr, target,
                                                      toff, op)
        else:
            seg, base = self._target_segment(target, toff, arr.nbytes)
            cells = seg.cells64()
            base_idx = (base + toff) // 8
            # Not ctx.amo: a stream has this one caller, and the CPU stream
            # (xpmem.amo_stream) has no delivery callback for the FT logger.
            if ctx.world.rank_map.same_node(self.rank, target):
                old = yield from ctx.xpmem.amo_stream(
                    cells, base_idx, op.hw_name, arr, fetch=fetch)
            else:
                logger = (ctx.ft.amo_stream_logger(self, target, cells,
                                                   base_idx)
                          if ctx.ft is not None else None)
                h = yield from ctx.dmapp.amo_stream_nbi(
                    target, cells, base_idx, op.hw_name, arr, fetch=fetch,
                    on_applied=logger)
                old = (yield from ctx.dmapp.wait(h)) if fetch else None
        if not fetch:
            return None
        # A completed fetching atomic is forward progress for the watchdog:
        # the caller can act on the old value, so a lock-free program is
        # not a livelock.  The lock protocols' own AMOs (locks.py, mcs.py,
        # the accumulate fallback lock) stay unmarked: a spinning lock()
        # issues AMOs forever.
        ctx.env.progress_marks += 1     # env.note_progress(), inline
        # Fresh old words (the engine's uint64 array): view, no copy.
        return old.view(arr.dtype).reshape(arr.shape)

    # Each method its own code object name, so profiles and tracebacks
    # tell the two apart (co_qualname exists from Python 3.11).
    name = "get_accumulate" if fetch else "accumulate"
    code = call.__code__.replace(co_name=name)
    if hasattr(code, "co_qualname"):
        code = code.replace(co_qualname="Window." + name)
    call.__code__ = code
    call.__name__ = name
    call.__qualname__ = "Window." + name
    call.__doc__ = ("MPI_Get_accumulate: the previous target contents, "
                    "shaped as data (MPI-3's atomic read with Op.NO_OP)."
                    if fetch else "MPI_Accumulate.")
    return call


class Window:
    """One rank's handle on an MPI-3 window."""

    def __init__(self, ctx, win_id: int, flavor: WinFlavor, *,
                 seg=None, disp_unit: int = 1, size: int = 0,
                 params: FompiParams | None = None) -> None:
        self.ctx = ctx
        self.win_id = win_id
        self.flavor = flavor
        self.seg = seg
        self.size = size
        self.disp_unit = disp_unit
        self.params = params or FompiParams()
        self.nranks = ctx.nranks
        self.rank = ctx.rank
        # What ctx.instr()/ctx.compute() would charge the communication
        # calls, made once: whole ns, or None where they schedule nothing.
        p = self.params
        self._put_ns = ctx.instr_ns(p.instr_put)
        self._get_ns = ctx.instr_ns(p.instr_get)
        self._acc_ns = ctx.instr_ns(p.instr_accumulate)
        self._flush_ns = ctx.instr_ns(p.instr_flush)
        self._mfence_ns = int(round(p.mfence_ns)) if p.mfence_ns > 0 else None

        # Remote-addressing state (filled by the creation protocols):
        self.base_vaddr: int | None = None            # ALLOCATE: O(1)
        self.descs: dict[int, Any] | None = None      # CREATE: Omega(p)
        self.xsegs: dict[int, Any] = {}               # same-node mapped segments
        self.xtoken = None                            # our XPMEM exposure
        self.ctrl: SegmentCells | None = None
        self.shared_segment = None                    # SHARED flavor
        self.shared_offsets: dict[int, int] | None = None
        # This window's row of the world's table (rank -> Window), one
        # dict shared by every rank: a peer's control words, exposure,
        # directory and size are read from its Window.
        self.peers: dict[int, Window] = ctx.world.windows.setdefault(
            win_id, {})
        self.peers[self.rank] = self
        self.mcs_locks: dict[int, Any] = {}    # cell base -> McsLock

        # Synchronization state:
        self.epoch_access: str | None = None    # 'fence'|'pscw'|'lock'|'lock_all'
        self.epoch_exposure: str | None = None
        self.lock_state = locks_mod.LockState()
        self.pscw_state = pscw_mod.PscwState()
        self.dyn = None                          # DynamicState for DYNAMIC
        self.freed = False

    # ------------------------------------------------------------------
    # addressing helpers
    # ------------------------------------------------------------------
    @property
    def master(self) -> int:
        """Designated holder of the global lock variable (rank 0)."""
        return 0

    def _check_alive(self) -> None:
        if self.freed:
            raise WindowError(_FREED)

    def _target_segment(self, target: int, toff: int, nbytes: int):
        """Resolve (segment, base) for a target byte range (static flavors),
        refusing a range outside the segment at issue, as put and get do."""
        flavor = self.flavor
        if flavor is WinFlavor.ALLOCATE:
            return self.ctx.world.reg_tables[target].lookup_va(
                self.base_vaddr + toff, nbytes or 1)[0], 0
        if flavor is WinFlavor.CREATE:
            seg, base = self.ctx.world.reg_tables[target].resolve(
                self.descs[target]), 0
        elif flavor is WinFlavor.SHARED:
            seg, base = self.shared_segment, self.shared_offsets[target]
        else:
            raise WindowError(f"direct addressing unsupported for {flavor}")
        seg._check(base + toff, nbytes)
        return seg, base

    def _word_amo(self, target: int, toff: int, op: str, a: int,
                  b: int = 0):
        """The ``ctx.amo`` generator (no frame of its own) of one fetching
        AMO on the word at byte ``toff`` of ``target``'s window memory,
        range-checked at issue, with the FT delivery logger."""
        ctx = self.ctx
        seg, base = self._target_segment(target, toff, 8)
        cells = seg.cells64()
        idx = (base + toff) // 8
        logger = (ctx.ft.amo_logger(self, target, cells, idx)
                  if ctx.ft is not None else None)
        return ctx.amo(target, cells, idx, op, a, b, on_applied=logger)

    def _target_desc(self, target: int, toff: int, nbytes: int):
        """(descriptor, offset of ``toff`` in its segment) for the DMAPP
        path (static flavors)."""
        if self.flavor is WinFlavor.ALLOCATE:
            desc = self.ctx.world.reg_tables[target].lookup_va(
                self.base_vaddr + toff, nbytes or 1)[1]
            return desc, self.base_vaddr - desc.vaddr + toff
        if self.flavor is WinFlavor.CREATE:
            return self.descs[target], toff
        raise WindowError(f"DMAPP addressing unsupported for {self.flavor}")

    def _xpmem_target(self, target: int):
        """(segment, base) when ``target``'s memory is directly mapped on
        this node, else ``None`` (the DMAPP path)."""
        if self.flavor is WinFlavor.SHARED:
            return self.shared_segment, self.shared_offsets[target]
        seg = self.xsegs.get(target)
        return None if seg is None else (seg, 0)

    # ------------------------------------------------------------------
    # communication: put / get
    # ------------------------------------------------------------------
    def put(self, data, target: int, target_disp: int = 0, *,
            origin_datatype: Datatype | None = None,
            target_datatype: Datatype | None = None,
            count: int | None = None):
        """MPI_Put.  ``data`` is the origin buffer (any numpy array); the
        target displacement is in units of the window's ``disp_unit``."""
        if self.freed:
            raise WindowError(_FREED)
        epoch_rules.require_access(self, target)
        ctx = self.ctx
        if self._put_ns is not None:
            yield self._put_ns
        raw = np.ascontiguousarray(np.asarray(data)).view(np.uint8).ravel()
        toff = target_disp * self.disp_unit
        pieces = self._pieces(raw, origin_datatype, target_datatype, count)
        ck = ctx.checker
        if ck is not None:
            ck.note_op(self, "put", target,
                       [(toff + t, toff + t + n) for _o, t, n in pieces])
        handles = []
        if self.flavor is WinFlavor.DYNAMIC:
            for piece, t_off, n in pieces:
                desc = yield from self.dyn.resolve(self, target, toff + t_off, n)
                h = yield from ctx.dmapp.put_nbi(
                    desc, toff + t_off - desc.vaddr, piece)
                handles.append(h)
            return handles
        mapped = self._xpmem_target(target)
        if mapped is not None:
            seg, base = mapped
            for piece, t_off, _n in pieces:
                yield from ctx.xpmem.store(seg, base + toff + t_off, piece)
            return handles
        logger = (ctx.ft.put_logger(self, target)
                  if ctx.ft is not None else None)
        for piece, t_off, n in pieces:
            desc, off = self._target_desc(target, toff + t_off, n)
            h = yield from ctx.dmapp.put_nbi(desc, off, piece,
                                             on_applied=logger)
            handles.append(h)
        return handles

    def rput(self, data, target: int, target_disp: int = 0, **kw):
        """Request-based put: completion via the returned request."""
        handles = yield from self.put(data, target, target_disp, **kw)
        return RmaRequest(self, handles)

    def get(self, out, target: int, target_disp: int = 0, *,
            origin_datatype: Datatype | None = None,
            target_datatype: Datatype | None = None,
            count: int | None = None):
        """MPI_Get into the C-contiguous ``out`` buffer (filled at
        flush/completion for the DMAPP path, immediately for XPMEM); a
        strided origin layout is ``origin_datatype``'s to describe."""
        self._check_alive()
        epoch_rules.require_access(self, target)
        require_contiguous(out, WindowError)
        ctx = self.ctx
        if self._get_ns is not None:
            yield self._get_ns
        toff = target_disp * self.disp_unit
        pieces = self._pieces(out.view(np.uint8).reshape(-1),
                              origin_datatype, target_datatype, count)
        ck = ctx.checker
        if ck is not None:
            ck.note_op(self, "get", target,
                       [(toff + t, toff + t + n) for _o, t, n in pieces])
        handles = []
        if self.flavor is WinFlavor.DYNAMIC:
            for piece, t_off, n in pieces:
                desc = yield from self.dyn.resolve(self, target, toff + t_off, n)
                h = yield from ctx.dmapp.get_nbi(
                    desc, toff + t_off - desc.vaddr, n, out=piece)
                handles.append(h)
            return handles
        mapped = self._xpmem_target(target)
        if mapped is not None:
            seg, base = mapped
            for piece, t_off, n in pieces:
                piece[:] = yield from ctx.xpmem.load(
                    seg, base + toff + t_off, n)
            return handles
        for piece, t_off, n in pieces:
            desc, off = self._target_desc(target, toff + t_off, n)
            h = yield from ctx.dmapp.get_nbi(desc, off, n, out=piece)
            handles.append(h)
        return handles

    def rget(self, out, target: int, target_disp: int = 0, **kw):
        handles = yield from self.get(out, target, target_disp, **kw)
        return RmaRequest(self, handles, result=out)

    def get_blocking(self, target: int, target_disp: int, nbytes: int,
                     dtype=np.uint8):
        """Convenience: get + wait; returns a fresh array."""
        out = np.empty(nbytes, dtype=np.uint8)
        handles = yield from self.get(out, target, target_disp)
        for h in handles:
            yield from self.ctx.dmapp.wait(h)
        return out.view(dtype)

    def _pieces(self, raw: np.ndarray, origin_dt, target_dt, count):
        """(origin bytes, target_off, nbytes) per block of the
        minimal-contiguous-block decomposition of Section 2.4.  The origin
        bytes are views of ``raw``; an undivided transfer is ``raw``
        itself, not a slice of it."""
        total_bytes = raw.size
        n = count if count is not None else 1
        if origin_dt is None and target_dt is None:
            return [(raw, 0, total_bytes)]
        odt = origin_dt or BYTE
        tdt = target_dt or BYTE
        ocount = n if origin_dt is not None else total_bytes
        payload = odt.size * ocount
        tcount = (payload // tdt.size) if tdt.size else 0
        return [(raw[o:o + nb], t, nb) for o, t, nb in
                zip_blocks(odt.blocks(ocount), tdt.blocks(tcount))]

    # ------------------------------------------------------------------
    # communication: atomics
    # ------------------------------------------------------------------
    accumulate = _accumulate_call(fetch=False)
    get_accumulate = _accumulate_call(fetch=True)

    def fetch_and_op(self, value, target: int, target_disp: int = 0,
                     op: Op = Op.SUM):
        """Single-element fetching atomic (fine-grained completion)."""
        if self.freed:
            raise WindowError(_FREED)
        epoch_rules.require_access(self, target)
        ctx = self.ctx
        operand, dtype = ((int(value), _I64) if type(value) is np.int64
                          else _word(value))
        toff = target_disp * self.disp_unit
        if ctx.checker is not None:
            ctx.checker.note_op(
                self, "fao", target, [(toff, toff + dtype.itemsize)],
                op=op.name.lower(),
                path=acc_mod.acc_path(self, op, dtype, toff))
        if self._acc_ns is not None:
            yield self._acc_ns
        if not acc_mod._hw_eligible(self, op, dtype, toff):
            old = yield from acc_mod._locked_fallback(
                self, np.asarray(value).reshape(1), target, toff, op)
            ctx.env.progress_marks += 1     # env.note_progress(), inline
            return old[0]
        old = yield from self._word_amo(target, toff, op.hw_name, operand)
        ctx.env.progress_marks += 1
        if dtype is _I64:      # the unsigned old value as the origin's type
            return np.int64(old - (old >> 63 << 64))
        return np.uint64(old).view(dtype)

    def compare_and_swap(self, compare, swap, target: int,
                         target_disp: int = 0):
        """8-byte CAS; returns the old value."""
        if self.freed:
            raise WindowError(_FREED)
        epoch_rules.require_access(self, target)
        ctx = self.ctx
        toff = target_disp * self.disp_unit
        if ctx.checker is not None:
            ctx.checker.note_op(self, "cas", target, [(toff, toff + 8)],
                                op="cas", path="hw")
        if toff % 8:
            raise RmaError("CAS target must be 8-byte aligned")
        if self._acc_ns is not None:
            yield self._acc_ns
        if type(compare) is np.int64 and type(swap) is np.int64:
            c, s, dtype = int(compare), int(swap), _I64
        else:
            (c, dtype), (s, _) = _word(compare), _word(swap)
        old = yield from self._word_amo(target, toff, "cas", c, s)
        ctx.env.progress_marks += 1
        if dtype is _I64:      # the unsigned old value as the origin's type
            return np.int64(old - (old >> 63 << 64))
        return np.uint64(old).view(dtype)

    # ------------------------------------------------------------------
    # synchronization -- thin wrappers over the protocol modules
    # ------------------------------------------------------------------
    def fence(self, no_succeed: bool = False):
        self._check_alive()
        yield from fence_mod.fence(self, no_succeed=no_succeed)

    def post(self, group):
        self._check_alive()
        yield from pscw_mod.post(self, group)

    def start(self, group):
        self._check_alive()
        yield from pscw_mod.start(self, group)

    def complete(self):
        self._check_alive()
        yield from pscw_mod.complete(self)

    def wait(self):
        self._check_alive()
        yield from pscw_mod.wait(self)

    def lock(self, target: int, lock_type: LockType = LockType.SHARED):
        self._check_alive()
        yield from locks_mod.lock(self, target, lock_type)

    def unlock(self, target: int):
        self._check_alive()
        yield from locks_mod.unlock(self, target)

    def lock_all(self):
        self._check_alive()
        yield from locks_mod.lock_all(self)

    def unlock_all(self):
        self._check_alive()
        yield from locks_mod.unlock_all(self)

    # -- flush family (Section 2.3: "all flush operations share the same
    # implementation and add only 78 CPU instructions") ------------------
    def flush(self, target: int | None = None):
        """Remote completion of all outstanding operations.

        DMAPP only offers *bulk* completion (gsync), so per-target flush
        is implemented as a full flush -- exactly what foMPI does.
        """
        self._check_alive()
        epoch_rules.require_flush(self)
        ctx = self.ctx
        env = ctx.env
        ctx.note_api("win.flush(target=%s)", target)
        t0 = env.now
        if self._flush_ns is not None:
            yield self._flush_ns
        if self._mfence_ns is not None:
            yield self._mfence_ns
        yield from ctx.dmapp.gsync()
        obs = ctx.obs
        if obs is not None:
            obs.rank_span(ctx.rank, "flush", t0, env.now, cat="rma")
            obs.metrics.count("rma.flush", ctx.rank)
            obs.metrics.observe("flush_ns", ctx.rank, env.now - t0)
        ck = ctx.checker
        if ck is not None:
            ck.on_flush(self)
        env.progress_marks += 1     # env.note_progress(), inline

    def flush_all(self):
        yield from self.flush(None)

    def flush_local(self, target: int | None = None):
        """Local completion only: origin buffers reusable."""
        self._check_alive()
        if self._flush_ns is not None:
            yield self._flush_ns

    def flush_local_all(self):
        yield from self.flush_local(None)

    def sync(self):
        """MPI_Win_sync: memory barrier (P_sync = 17 ns)."""
        yield from self.ctx.instr(self.params.instr_sync)

    # ------------------------------------------------------------------
    def free(self):
        """Collective window destruction.

        With a failure notifier installed the closing barrier tolerates
        dead participants: the free degrades to a local teardown (counted
        in ``stats.recovery.degraded_frees``) instead of hanging on a
        collective that can never complete.
        """
        self._check_alive()
        if self.lock_state.held or self.lock_state.lock_all_held:
            raise RmaError("freeing a window while holding locks")
        if self.ctx.ft is not None:
            # Cancel in-flight replica deposits and release buddy-side
            # checkpoint memory before the segment itself goes away.
            self.ctx.ft.release_window(self.ctx.rank, self)
        if self.ctx.notifier is None:
            yield from self.ctx.coll.barrier()
        else:
            from repro.rma import recovery
            yield from recovery.guarded_free(self)
        self.freed = True

    # -- convenience -----------------------------------------------------
    def local_view(self, dtype=np.uint8) -> np.ndarray:
        """Typed view of this rank's window memory."""
        if self.flavor is WinFlavor.SHARED:
            off = self.shared_offsets[self.rank]
            return self.shared_segment.view(off, self.size).view(np.dtype(dtype))
        if self.seg is None:
            raise WindowError(f"{self.flavor} window has no local segment")
        return self.seg.typed(dtype)

    def _local_seg(self):
        """(segment, base offset) of this rank's own window memory."""
        if self.flavor is WinFlavor.SHARED:
            return self.shared_segment, self.shared_offsets[self.rank]
        if self.seg is None:
            raise WindowError(f"{self.flavor} window has no local segment")
        return self.seg, 0

    def local_store(self, data, offset: int = 0) -> None:
        """Target-side CPU store of the bytes of ``data`` into this rank's
        window memory.

        Equivalent to writing through :meth:`local_view` (zero simulated
        cost; a plain method, not a generator) but visible to the
        memory-model checker as a *local* access, so separate-model
        local/remote conflicts (paper Section 4) are detectable.
        """
        self._check_alive()
        seg, base = self._local_seg()
        raw = np.ascontiguousarray(np.asarray(data)).view(np.uint8).ravel()
        seg.write(base + offset, raw)
        ck = self.ctx.checker
        if ck is not None:
            ck.note_local(self, "store", offset, raw.size)

    def note_local(self, kind: str, nbytes: int, offset: int = 0) -> None:
        """Annotate a target-side access made through :meth:`local_view`.

        The zero-copy numpy array returned by :meth:`local_view` is
        invisible to the checker (the documented ``local_view`` gap).
        Programs that keep the zero-copy path declare those accesses
        explicitly: ``kind`` is ``"load"`` or ``"store"``, the range is
        ``[offset, offset + nbytes)`` in bytes from the window base.
        Zero simulated cost; a no-op without a checker attached.
        """
        self._check_alive()
        ck = self.ctx.checker
        if ck is not None:
            ck.note_local(self, kind, offset, nbytes)

    def local_load(self, nbytes: int, offset: int = 0) -> np.ndarray:
        """Target-side CPU load from this rank's window memory (the
        checker-visible counterpart of reading :meth:`local_view`)."""
        self._check_alive()
        seg, base = self._local_seg()
        out = seg.read(base + offset, nbytes)
        ck = self.ctx.checker
        if ck is not None:
            ck.note_local(self, "load", offset, nbytes)
        return out

    def shared_query(self, rank: int):
        """MPI_Win_shared_query: (segment, byte offset) of a peer's part."""
        if self.flavor is not WinFlavor.SHARED:
            raise WindowError("shared_query on a non-shared window")
        return self.shared_segment, self.shared_offsets[rank]

    def attach(self, seg):
        """MPI_Win_attach (dynamic windows only)."""
        return (yield from self.ctx.rma.win_attach(self, seg))

    def detach(self, desc):
        """MPI_Win_detach (dynamic windows only)."""
        yield from self.ctx.rma.win_detach(self, desc)

    def control_words(self) -> int:
        """Number of control words this rank allocated for the window --
        the paper's memory-overhead metric."""
        n = len(self.ctrl) if self.ctrl is not None else 0
        if self.descs is not None:
            n += len(self.descs)  # Omega(p) descriptor table (CREATE)
        return n
