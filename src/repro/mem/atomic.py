"""64-bit atomic words with watchers.

All of the paper's synchronization state -- the two-level lock words
(Figure 3), PSCW matching lists, free-storage ring counters and completion
counters (Figure 2) -- are 64-bit words updated by remote AMOs or local CPU
atomics, the same AMOs that apply accumulates to window data.  One type,
:class:`SegmentCells`, models both: the words of a segment, which for
control words is a segment of its own
(:func:`~repro.mem.address_space.control_words`).

*Watchers* are the simulation's stand-in for CPU polling: a process can
wait until ``predicate(value)`` holds for a cell.  In hardware this is a
spin loop on cached memory; charging poll time is the caller's business
(the protocols charge their documented constants), the watcher merely
provides the wake-up without O(polls) simulation events.

All arithmetic wraps modulo 2**64 exactly like the hardware AMOs the paper
relies on.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.errors import MemoryError_
from repro.sim.kernel import Environment, Event, URGENT

__all__ = ["SegmentCells", "MASK64", "amo_result",
           "prepare_stream"]

MASK64 = 0xFFFF_FFFF_FFFF_FFFF

# Read-modify-write stream ops; uint64 arithmetic wraps like amo_result.
_STREAM_UFUNCS = {"add": np.add, "and": np.bitwise_and,
                  "or": np.bitwise_or, "xor": np.bitwise_xor}


def _signed(v: int) -> int:
    v &= MASK64
    return v - (1 << 64) if v >= (1 << 63) else v


def amo_result(old: int, op: str, operand: int) -> int:
    """New cell value after the named AMO, wrapped to 64 bits.

    Supported ops mirror the DMAPP AMO set: add, and, or, xor, replace,
    min/max (signed, as MPI integer semantics require) and fetch (an
    atomic read: the cell keeps its value).
    """
    v = int(operand)
    if op == "add":
        new = old + v
    elif op == "and":
        new = old & v
    elif op == "or":
        new = old | v
    elif op == "xor":
        new = old ^ v
    elif op == "min":
        new = old if _signed(old) <= _signed(v) else v
    elif op == "max":
        new = old if _signed(old) >= _signed(v) else v
    elif op == "replace":
        new = v
    elif op == "fetch":
        new = old
    else:
        raise MemoryError_(f"unknown AMO op {op!r}")
    return new & MASK64


def prepare_stream(cells, base_idx: int, op: str, operands):
    """Issue-time half of an AMO stream over consecutive cells.

    Returns ``(n, run)``: the element count, and the ``partial`` of
    ``cells.apply_block`` that applies the whole stream at its effect
    instant, returning the old words as a fresh ``uint64`` array.  The
    operands are copied here, as the DMA reads the origin buffer, into a
    ``uint64`` array (mod 2**64, as the cells wrap); a ``fetch`` stream
    takes only its count (MPI ignores the origin buffer of a ``NO_OP``).
    """
    if op == "fetch":
        block = range(np.size(operands))
    else:
        block = np.asarray(operands).astype(np.uint64).ravel()
    return len(block), partial(cells.apply_block, base_idx, op, block)


class SegmentCells:
    """64-bit atomic view over a segment's words, with per-word watchers.

    The NIC AMO engine operates on any 8-byte-aligned registered memory:
    window *data* (accumulates, fetch-and-op, CAS on user buffers) and the
    protocols' control words alike.  Cell index i is the segment's i-th
    8-byte word; values are unsigned.  A watched cell wakes its watchers
    on every change; data words are never watched, so they pay one empty
    dict test per op, and an AMO stream is one ``uint64`` array update on
    a numpy view of the same words (:meth:`apply_block`).
    """

    __slots__ = ("seg", "_words", "_array", "env", "_watchers")

    def __init__(self, seg, env: Environment | None = None) -> None:
        self.seg = seg
        self._words = seg.words64()
        self._array = np.frombuffer(self._words, np.uint64)
        self.env = env
        # idx -> list of (predicate, event)
        self._watchers: dict[int, list[tuple[Callable[[int], bool], Event]]] = {}

    def __len__(self) -> int:
        return len(self._words)

    def _live_words(self):
        """The words; raises once the segment is freed."""
        if not self.seg.alive:
            raise MemoryError_(
                f"AMO on freed segment {self.seg.label or self.seg.seg_id}")
        return self._words

    def load(self, idx: int) -> int:
        return self._live_words()[idx]

    def load_block(self, idx: int, n: int) -> list[int]:
        """Words ``idx .. idx + n - 1`` in one read."""
        return self._live_words()[idx:idx + n].tolist()

    def store(self, idx: int, value: int) -> None:
        self._live_words()[idx] = int(value) & MASK64
        if self._watchers:
            self._notify(idx)

    # -- read-modify-write ops (all return the OLD value) ----------------
    def cas(self, idx: int, compare: int, swap: int) -> int:
        words = self._words if self.seg.alive else self._live_words()
        old = words[idx]
        if old == int(compare) & MASK64:
            words[idx] = int(swap) & MASK64
            if self._watchers:
                self._notify(idx)
        return old

    def swap(self, idx: int, value: int) -> int:
        return self.apply(idx, "replace", value)

    def fadd(self, idx: int, delta: int) -> int:
        return self.apply(idx, "add", delta)

    def apply(self, idx: int, op: str, operand: int) -> int:
        """Apply a named AMO (see :func:`amo_result`); returns the old
        value."""
        words = self._words if self.seg.alive else self._live_words()
        old = words[idx]
        words[idx] = amo_result(old, op, operand)
        if self._watchers:
            self._notify(idx)
        return old

    def apply_block(self, idx: int, op: str, operands) -> np.ndarray:
        """A stream over words ``idx, idx+1, ...`` in one array update (see
        :func:`prepare_stream`); returns a copy of the old words.  Numpy
        slices clamp and wrap silently, so the range is checked first and a
        bad block writes nothing.  Watchers then wake cell by cell, in cell
        order, each on its own cell's new value."""
        n = len(operands)
        words = self._words if self.seg.alive else self._live_words()
        if idx < 0 or idx + n > len(words):
            raise MemoryError_(
                f"AMO block [{idx}, {idx + n}) outside the segment's "
                f"{len(self._words)} words")
        block = self._array[idx:idx + n]
        old = block.copy()
        if op == "replace":
            block[:] = operands
        elif op != "fetch":
            ufunc = _STREAM_UFUNCS.get(op)
            if ufunc is None:
                raise MemoryError_(f"unknown AMO stream op {op!r}")
            # From the copy, not out=block: an in-place ufunc pays numpy's
            # overlap analysis, which costs more than the one-stream copy.
            block[:] = ufunc(old, operands)
        if self._watchers:
            for i in range(idx, idx + n):
                self._notify(i)
        return old

    # -- watchers (see the module docstring) -----------------------------
    def wait_until(self, idx: int, predicate: Callable[[int], bool]) -> Event:
        """Event that fires (with the value) when ``predicate(value)`` holds.

        Fires immediately if it already holds.
        """
        ev = self.env.event(name=f"watch:{self.seg.label}[{idx}]")
        val = self._words[idx]
        if predicate(val):
            ev.succeed(val, priority=URGENT)
            return ev
        self._watchers.setdefault(idx, []).append((predicate, ev))
        return ev

    def _notify(self, idx: int) -> None:
        lst = self._watchers.get(idx)
        if not lst:
            return
        val = self._words[idx]
        fired = [w for w in lst if w[0](val)]
        if not fired:
            return
        self._watchers[idx] = [w for w in lst if w not in fired]
        for _pred, ev in fired:
            if not ev.triggered:
                ev.succeed(val, priority=URGENT)

    def snapshot(self) -> list[int]:
        return self._words.tolist()
