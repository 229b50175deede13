"""Accumulate operations (paper Section 2.4).

Two paths, exactly as in foMPI:

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
from repro.rma.enums import HW_OPS, Op, WinFlavor
from repro.rma.locks import _amo

__all__ = ["accumulate", "fetch_and_op", "compare_and_swap", "apply_op",
           "acc_path"]


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


_I64 = np.dtype(np.int64)


def _hw_eligible(win, op: Op, dtype: np.dtype, toff: int) -> bool:
    if op not in HW_OPS:
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


def accumulate(win, data, target: int, target_disp: int, op: Op, *,
               fetch: bool):
    """MPI_Accumulate / MPI_Get_accumulate."""
    ctx = win.ctx
    arr = np.asarray(data)
    toff = target_disp * win.disp_unit
    if win._acc_ns is not None:
        yield win._acc_ns

    if _hw_eligible(win, op, arr.dtype, toff):
        seg, base = win._target_segment(target, toff, arr.nbytes)
        cells = seg.cells64()
        base_idx = (base + toff) // 8
        hw = op.hw_name
        if ctx.same_node(target):
            old = yield from ctx.xpmem.amo_stream(cells, base_idx, hw, arr,
                                                  fetch=fetch)
        else:
            logger = (ctx.ft.amo_stream_logger(win, target, cells, base_idx)
                      if ctx.ft is not None else None)
            h = yield from ctx.dmapp.amo_stream_nbi(target, cells, base_idx,
                                                    hw, arr, fetch=fetch,
                                                    on_applied=logger)
            if fetch:
                yield from ctx.dmapp.wait(h)
            old = h.result
        # The engine's old words are a fresh uint64 array: view, no copy.
        return old.view(arr.dtype).reshape(arr.shape) if fetch else None

    # ---------------- software fallback ---------------------------------
    old = yield from _locked_fallback(win, arr, target, toff, op)
    return old.reshape(arr.shape) if fetch else None


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
        delay = min(win.params.backoff_base_ns * (1 << min(attempt, 16)),
                    win.params.backoff_max_ns)
        attempt += 1
        yield int(delay)

    nbytes = arr.nbytes
    # Get current contents.
    if ctx.same_node(target) and win.flavor is not WinFlavor.DYNAMIC:
        seg, base = win._target_segment(target, toff, nbytes)
        cur = yield from ctx.xpmem.load(win_mod._SegToken(seg), base + toff,
                                        nbytes)
    else:
        desc, off = yield from _data_desc(win, target, toff, nbytes)
        cur = yield from ctx.dmapp.get_b(desc, off, nbytes)
    old_vals = cur.view(arr.dtype).reshape(-1).copy()
    new_vals = apply_op(op, old_vals, arr.ravel())
    # Local reduction cost.
    yield from ctx.compute(win.params.fallback_reduce_per_byte * nbytes)
    # Write back and make it visible before releasing the lock.
    if ctx.same_node(target) and win.flavor is not WinFlavor.DYNAMIC:
        seg, base = win._target_segment(target, toff, nbytes)
        yield from ctx.xpmem.store(win_mod._SegToken(seg), base + toff,
                                   new_vals.view(np.uint8))
    else:
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
    return win._target_desc(target, toff, nbytes)


def _word(value) -> tuple[int, np.dtype]:
    """One 8-byte origin element as ``(operand, dtype)``.  The operand
    only has to be right modulo 2**64 (the cells wrap), so the usual
    ``np.int64`` spelling needs no array round trip."""
    if type(value) is np.int64:
        return int(value), _I64
    arr = np.asarray(value).reshape(1)
    return int(arr.astype(np.int64)[0]), arr.dtype


def _old_as(old: int, dtype: np.dtype):
    """The unsigned old cell value as a scalar of the origin's dtype."""
    if dtype is _I64:
        return np.int64(old - (1 << 64) if old >> 63 else old)
    return np.uint64(old).view(dtype)


def _scalar_amo(win, target: int, toff: int, op: str, a: int, b: int = 0):
    """One blocking fetching AMO on the window word at byte ``toff``."""
    ctx = win.ctx
    seg, base = win._target_segment(target, toff, 8)
    cells = seg.cells64()
    idx = (base + toff) // 8
    if ctx.same_node(target):
        return (yield from ctx.xpmem.amo(cells, idx, op, a, b))
    logger = (ctx.ft.amo_logger(win, target, cells, idx)
              if ctx.ft is not None else None)
    handle = yield from ctx.dmapp.amo_nbi(target, cells, idx, op, a, b,
                                          fetch=True, on_applied=logger)
    return (yield from ctx.dmapp.wait(handle))


def fetch_and_op(win, value, target: int, target_disp: int, op: Op):
    """Single 8-byte element fetch-and-op (fine-grained completion)."""
    operand, dtype = _word(value)
    toff = target_disp * win.disp_unit
    if win._acc_ns is not None:
        yield win._acc_ns
    if _hw_eligible(win, op, dtype, toff):
        old = yield from _scalar_amo(win, target, toff, op.hw_name, operand)
        return _old_as(old, dtype)
    arr = np.asarray(value).reshape(1)
    old = yield from _locked_fallback(win, arr, target, toff, op)
    return old[0]


def compare_and_swap(win, compare, swap, target: int, target_disp: int):
    """8-byte CAS; always on the AMO engine (P_CAS = 2.4 us)."""
    toff = target_disp * win.disp_unit
    if toff % 8:
        raise RmaError("CAS target must be 8-byte aligned")
    if win._acc_ns is not None:
        yield win._acc_ns
    c, dtype = _word(compare)
    s, _ = _word(swap)
    old = yield from _scalar_amo(win, target, toff, "cas", c, s)
    return _old_as(old, dtype)
