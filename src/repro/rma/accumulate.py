"""What the accumulate family shares (paper Section 2.4): the path
choice, the software fallback and its op table; ``Window`` issues the
calls itself.  Two paths, exactly as in foMPI (:func:`acc_path`):

* **NIC fast path** for 8-byte integer elements with a DMAPP-supported
  operation (SUM/BAND/BOR/BXOR/REPLACE): streamed AMOs, giving
  P_acc,sum = 28 ns/elem + 2.4 us (Figure 6a).
* **software fallback** for everything else (MIN/MAX/PROD, floats,
  non-8-byte types): "locks the remote window, gets the data, accumulates
  it locally, and writes it back".  Higher base cost (P_acc,min ~ 7.3 us)
  but put/get bandwidth, so it overtakes the AMO stream at large element
  counts -- the crossover visible in Figure 6a.

The fallback uses a dedicated internal lock word (``IDX_ACC_LOCK``) so it
serializes only against other accumulates, never against user lock
epochs.  Its AMOs take the lock words' path (``locks._amo``), so under a
crash plan the revocation ledger rolls back a dead holder's bit.
Element-wise atomicity of the fast path is a property of the NIC AMO
engine.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RmaError
from repro.rma import window as win_mod
from repro.rma.enums import Op, WinFlavor
from repro.rma.locks import _amo, _backoff

__all__ = ["apply_op", "acc_path"]


def apply_op(op: Op, old: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """Element-wise MPI reduction used by the software fallback."""
    if op is Op.SUM:
        return old + operand
    if op is Op.PROD:
        return old * operand
    if op is Op.MIN:
        return np.minimum(old, operand)
    if op is Op.MAX:
        return np.maximum(old, operand)
    if op is Op.BAND:
        return old & operand
    if op is Op.BOR:
        return old | operand
    if op is Op.BXOR:
        return old ^ operand
    if op is Op.REPLACE:
        return operand.copy()
    if op is Op.NO_OP:
        return old.copy()
    raise RmaError(f"unsupported accumulate op {op}")


def _hw_eligible(win, op: Op, dtype: np.dtype, toff: int) -> bool:
    if op.hw_name is None:
        return False
    if dtype.kind not in "iu" or dtype.itemsize != 8:
        return False
    if toff % 8 != 0:
        return False
    return win.flavor in (WinFlavor.ALLOCATE, WinFlavor.CREATE,
                          WinFlavor.SHARED)


def acc_path(win, op: Op, dtype: np.dtype, toff: int) -> str:
    """Which implementation an accumulate takes: ``"hw"`` (NIC AMO
    stream) or ``"sw"`` (locked fallback).  Diagnostic colour for the
    memory-model checker -- both paths are atomic with respect to each
    other, so the tag never affects race classification."""
    return "hw" if _hw_eligible(win, op, dtype, toff) else "sw"


def _locked_fallback(win, arr: np.ndarray, target: int, toff: int, op: Op):
    """Lock-get-modify-put protocol on the internal accumulate lock."""
    ctx = win.ctx
    if (ctx.ft is not None and ctx.ft.is_protected(win.win_id)
            and not ctx.same_node(target)):
        from repro.errors import FTError
        raise FTError(
            f"software-fallback accumulate (op={op.name}) on protected "
            f"window {win.win_id}: the lock-get-modify-put sequence cannot "
            f"be logged as a deterministic delta; use an 8-byte integer "
            f"HW op or unprotect the window")
    attempt = 0
    # Acquire the internal exclusive lock (CAS 0 -> 1 on IDX_ACC_LOCK).
    while True:
        old_lock = yield from _amo(win, target, win_mod.IDX_ACC_LOCK,
                                   "cas", 0, 1)
        if old_lock == 0:
            break
        yield from _backoff(win, attempt)
        attempt += 1

    nbytes = arr.nbytes
    # Get current contents.  The data moves by copies, not atomics, so it
    # picks its own path: a dynamic window's data is always reached by
    # descriptor through the NIC, even on this node.  The target found
    # here is the write-back's too.
    seg = None
    if ctx.same_node(target) and win.flavor is not WinFlavor.DYNAMIC:
        seg, base = win._target_segment(target, toff, nbytes)
        cur = yield from ctx.xpmem.load(seg, base + toff, nbytes)
    else:
        desc, off = yield from _data_desc(win, target, toff, nbytes)
        cur = yield from ctx.dmapp.get_b(desc, off, nbytes)
    old_vals = cur.view(arr.dtype).reshape(-1).copy()
    new_vals = apply_op(op, old_vals, arr.ravel())
    # Local reduction cost.
    yield from ctx.compute(win.params.fallback_reduce_per_byte * nbytes)
    # Write back and make it visible before releasing the lock.
    if seg is not None:
        yield from ctx.xpmem.store(seg, base + toff, new_vals.view(np.uint8))
    else:
        if win.flavor is WinFlavor.DYNAMIC:   # its cache check, again
            desc, off = yield from _data_desc(win, target, toff, nbytes)
        yield from ctx.dmapp.put_nbi(desc, off, new_vals.view(np.uint8))
        yield from ctx.dmapp.gsync()
    # Release (fire-and-forget).
    yield from _amo(win, target, win_mod.IDX_ACC_LOCK, "replace", 0,
                    blocking=False)
    return old_vals


def _data_desc(win, target: int, toff: int, nbytes: int):
    """(descriptor, offset in its segment) for the fallback's raw data
    access."""
    if win.flavor is WinFlavor.DYNAMIC:
        desc = yield from win.dyn.resolve(win, target, toff, nbytes)
        return desc, toff - desc.vaddr
    return win._target_desc(target), toff
