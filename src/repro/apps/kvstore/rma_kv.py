"""RMA-backed distributed key-value store (the ``repro.serve`` backend).

Extends the paper's Section 4.1 hashtable from insert-only to a full
get/put/update map, and keeps its defining property: the data plane is
lock-free.  Every shared word is touched only by accumulate-family
operations, which MPI-3 makes element-wise atomic and -- under the
default ``same_op_no_op`` -- well-defined when concurrent as long as each
word sees one operation besides ``NO_OP``:

=================  ==========================  =========================
word               written by                  read by
=================  ==========================  =========================
next-free counter  ``FADD(+1)``                --
slot / cell key    ``CAS(0 -> key)``, once     ``NO_OP`` (atomic read)
value              ``CAS(old -> new)``         ``NO_OP``
slot head          ``FADD(REPLACE)``           ``NO_OP``
cell next          ``CAS(0 -> head)``, once    ``NO_OP``
=================  ==========================  =========================

* ``get`` is a chain walk of three-word atomic reads
  (``get_accumulate(NO_OP)`` over ``(key, value, head|next)``).
* ``put``/``update`` on an existing key locate it the same way, then run
  a CAS loop on the value word; concurrent updates all land.
* Only a *structure change* (a new key) takes the stripe's MCS lock
  (stripe = slot mod ``n_stripes``), so two inserters cannot claim one
  slot or fork one chain.  It publishes a fully written entry with a
  single 8-byte atomic: the slot value before the key CAS, the cell
  ``(key, value, next)`` before the head ``REPLACE``.  Entries are never
  removed and a chain only grows at its head, so a reader racing an
  insert sees the chain either without the new entry or with all of it.

Every atomic here is a blocking fetch -- it has taken effect at the
target when the call returns -- so program order is visibility order and
the store needs no flush.  The race checker agrees without any
relaxation (``tests/check/test_note_local.py`` holds the twins: atomic
read + CAS is clean, a plain ``put`` on a value word is not).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.apps.hashtable.common import place_key
from repro.apps.kvstore.layout import KvLayout
from repro.rma.enums import Op
from repro.rma.mcs import McsLock
from repro.rma.window import CTRL_WORDS_BASE

__all__ = ["KvStore"]

_MASK63 = (1 << 63) - 1
# Origin buffer of the three-word atomic read (NO_OP ignores its contents).
_THREE_WORDS = np.zeros(3, dtype=np.int64)


class KvStore:
    """One rank's handle on the distributed store.

    Usage (inside an SPMD program)::

        store = KvStore(ctx, KvLayout.default(keys_per_rank))
        yield from store.setup()          # collective
        yield from store.put(key, value)
        value = yield from store.get(key)
        new = yield from store.update(key, delta)
        yield from store.close()          # collective
    """

    def __init__(self, ctx, layout: KvLayout, n_stripes: int = 8) -> None:
        if n_stripes < 1:
            raise ValueError(f"n_stripes={n_stripes} must be >= 1")
        self.ctx = ctx
        self.layout = layout
        self.n_stripes = n_stripes
        self.win = None
        self.locks: list[McsLock] = []
        self.owners = self.slots = ()   # keys 1.. as the preload placed them

    # ------------------------------------------------------------------
    def setup(self):
        """Allocate the store window, bind to it and open its
        passive-target epoch (collective)."""
        ctx = self.ctx
        need = 3 * self.n_stripes
        if ctx.rma.params.user_ctrl_words < need:
            # Each MCS lock takes three control words; widen the window's
            # user-extension area before creation so the stripes fit.
            ctx.rma.params = dataclasses.replace(ctx.rma.params,
                                                 user_ctrl_words=need)
        win = yield from ctx.rma.win_allocate(self.layout.nbytes,
                                              disp_unit=8)
        self.bind(win)
        yield from win.lock_all()
        return win

    def bind(self, win) -> None:
        """Serve from ``win``: the window :meth:`setup` just allocated,
        or the one a restarted rank adopted from its checkpoint
        (:func:`repro.ft.run_steps`), already inside its epoch."""
        base0 = CTRL_WORDS_BASE + win.params.pscw_ring_capacity
        self.locks = [McsLock(win, cell_base=base0 + 3 * s)
                      for s in range(self.n_stripes)]
        self.win = win

    def _place(self, key: int) -> tuple[int, int]:
        """(owner, slot) of ``key``; refuses a key outside (0, 2^63]."""
        if not 0 < key <= _MASK63:
            raise ValueError(f"kvstore key {key} outside (0, 2^63]")
        if key <= len(self.owners):
            return self.owners[key - 1], self.slots[key - 1]
        return place_key(key, self.ctx.nranks, self.layout.table_slots)

    def close(self):
        """End the passive-target epoch (collective free is the caller's
        job if it wants one; the epoch must end before it)."""
        yield from self.win.unlock_all()

    # ------------------------------------------------------------------
    def _locate(self, owner: int, slot: int, key: int):
        """Lock-free chain walk of three-word atomic reads: (slot key word,
        slot head, chain hops, value-word index or None, value read)."""
        lay = self.layout
        kw, val, head = (yield from self.win.get_accumulate(
            _THREE_WORDS, owner, lay.slot_key(slot), Op.NO_OP)).tolist()
        if kw == key:
            return kw, head, 0, lay.slot_value(slot), val
        hops = 0
        cell = head
        while cell != 0:
            hops += 1
            ck, cv, nxt = (yield from self.win.get_accumulate(
                _THREE_WORDS, owner, lay.heap_key(cell), Op.NO_OP)).tolist()
            if ck == key:
                return kw, head, hops, lay.heap_value(cell), cv
            cell = nxt
        return kw, head, hops, None, 0

    def _write_fresh(self, owner: int, *writes):
        """Write never-used (zero) words in order, each as a blocking
        ``CAS(0 -> value)``: every word is in place before the next."""
        for word, value in writes:
            if (yield from self.win.compare_and_swap(
                    np.int64(0), np.int64(value), owner, word)) != 0:
                raise RuntimeError("kvstore: insert raced under the lock")

    def _insert_new(self, owner: int, slot: int, slot_key_word: int,
                    head: int, key: int, value: int):
        """Insert a key known (under the stripe lock) to be absent, given
        the slot's key and head words as read under the lock.  The last
        atomic of either path is the one that publishes the entry."""
        lay = self.layout
        if slot_key_word == 0:
            yield from self._write_fresh(owner,
                                         (lay.slot_value(slot), value),
                                         (lay.slot_key(slot), key))
            return "table"
        cell0 = yield from self.win.fetch_and_op(np.int64(1), owner, 0,
                                                 Op.SUM)
        cell = lay.claim_cell(int(cell0))
        yield from self._write_fresh(owner,
                                     (lay.heap_key(cell), key),
                                     (lay.heap_value(cell), value),
                                     (lay.heap_next(cell), head))
        old_head = yield from self.win.fetch_and_op(
            np.int64(cell), owner, lay.slot_head(slot), Op.REPLACE)
        if int(old_head) != head:
            raise RuntimeError("kvstore: chain link raced under the lock")
        return "heap"

    def _upsert(self, key: int, opname: str, new_of):
        """Set ``key``'s value to ``new_of(current)`` (``current`` is None
        for an absent key); returns (path, new value)."""
        owner, slot = self._place(key)
        kw, head, hops, loc, cur = yield from self._locate(owner, slot, key)
        path = "update"
        if loc is None:
            lock = self.locks[slot % self.n_stripes]
            yield from lock.acquire()
            # Another rank may have inserted the key since the walk above.
            kw, head, hops, loc, cur = yield from self._locate(owner, slot,
                                                               key)
            if loc is None:
                new = new_of(None)
                path = yield from self._insert_new(owner, slot, kw, head,
                                                   key, new)
            yield from lock.release()
        if path == "update":
            while True:
                new = new_of(cur)
                old = int((yield from self.win.compare_and_swap(
                    np.int64(cur), np.int64(new), owner, loc)))
                if old == cur:
                    break
                cur = old
        if self.ctx.obs is not None:
            self._note(opname, owner, hops)
        return path, new

    def _note(self, opname: str, owner: int, hops: int) -> None:
        """Hotspot accounting: the request's owner and chain length."""
        metrics = self.ctx.obs.metrics
        metrics.count(f"kv.{opname}", self.ctx.rank)
        metrics.count("kv.owner_requests", owner)
        if hops:
            metrics.observe("kv.chain_hops", self.ctx.rank, hops)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def get(self, key: int):
        """Value stored under ``key``, or None."""
        owner, slot = self._place(key)
        _kw, _head, hops, loc, val = yield from self._locate(owner, slot,
                                                             key)
        if self.ctx.obs is not None:
            self._note("get", owner, hops)
        return val if loc is not None else None

    def put(self, key: int, value: int):
        """Store ``value`` under ``key``; returns the path taken
        ('table' | 'heap' | 'update')."""
        value &= _MASK63
        path, _new = yield from self._upsert(key, "put", lambda cur: value)
        return path

    def update(self, key: int, delta: int):
        """Add ``delta`` to ``key``'s value (inserting ``delta`` if the
        key is absent) via CAS on the value word; returns the new value."""
        _path, new = yield from self._upsert(
            key, "update", lambda cur: ((cur or 0) + delta) & _MASK63)
        return new

    # ------------------------------------------------------------------
    def scan_local(self) -> dict[int, int]:
        """This rank's stored (key, value) pairs via the zero-copy local
        view.  Only sound after the remote traffic is ordered before the
        scan (e.g. flush_all + barrier); the access is declared to the
        race checker through :meth:`Window.note_local`, so an unordered
        scan is *reported*, not silently missed."""
        self.win.note_local("load", self.layout.nbytes)
        return self.layout.scan(self.win.local_view(np.int64))
