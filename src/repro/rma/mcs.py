"""Distributed MCS queue lock over RMA atomics.

The paper (Section 2.3): "The number of remote requests while waiting can
be bound by using MCS locks [24]".  The back-off protocol of Figure 3
issues an unbounded number of remote reads under contention; an MCS queue
bounds the traffic to O(1) remote operations per acquire/release because
each waiter spins on a *local* flag that its predecessor sets exactly
once.

Layout (on a window created with :func:`mcs_alloc`, disp_unit 8):

    word 0 at the master rank   tail: rank+1 of the last enqueued waiter
    word 1 at every rank        next: rank+1 of my successor (0 = none)
    word 2 at every rank        flag: set by my predecessor on hand-off

Acquire: SWAP my id into the tail; if there was a predecessor, publish
myself as its ``next`` and spin locally until it hands off.  Release: if
``next`` is empty, try CAS tail (me -> 0); on failure wait for the
successor to appear, then set its flag.  Every path issues a bounded
number of remote AMOs.

There is one wire protocol, on every fabric.  Each AMO carries an
``on_applied`` delivery callback that notes where this rank now stands in
the queue; only :mod:`repro.rma.recovery` reads those notes, to turn a
dead rank's queue node into a token forwarder.  What a run with a failure
notifier adds is confined to the ``ctx.notifier`` tests below: structured
errors for a dead master and a direct store for a dead queue neighbour.
A waiter's spin is the plain local ``wait_until`` on every run: a dead
neighbour's forwarder writes the word it waits on.
"""

from __future__ import annotations

from repro.errors import LockError, NodeCrashedError
from repro.rma import recovery

__all__ = ["McsLock", "IDX_TAIL", "IDX_NEXT", "IDX_FLAG"]

IDX_TAIL = 0
IDX_NEXT = 1
IDX_FLAG = 2


class McsLock:
    """One MCS lock instance bound to a window's control structures.

    All ranks of the window share the lock; the tail word lives at the
    window master.  Uses three control words per rank (O(1) memory).
    """

    def __init__(self, win, cell_base: int | None = None) -> None:
        # cell_base: first control word to use (defaults to the user-
        # extension words past the PSCW ring; several MCS locks can
        # coexist by passing staggered bases).
        from repro.rma.window import CTRL_WORDS_BASE

        self.win = win
        self.base = (CTRL_WORDS_BASE + win.params.pscw_ring_capacity
                     if cell_base is None else cell_base)
        self.holding = False
        self.remote_ops = 0  # for the boundedness tests
        # Queue-membership notes, written at AMO *delivery* time by the
        # ``on_applied`` callbacks so they reflect what actually took
        # effect remotely, never this rank's possibly-stale view.
        self._queued = False      # swap delivered at the master
        self._pred = 0            # predecessor id (rank+1) the swap saw
        self._published = False   # next-pointer publication delivered
        self._token = False       # token held (acquired, or handed to us)
        self._handed = False      # hand-off to the successor delivered
        self._turn = 0            # acquires begun; dates the hand-off note
        ctx = win.ctx
        if ctx.notifier is not None:
            ctx.world.blackboard.setdefault(
                ("mcs", win.win_id, self.base), {})[ctx.rank] = self

    def _cells(self, rank: int):
        return self.win.ctrl_refs[rank]

    def _amo(self, target: int, idx: int, op: str, a: int, b: int = 0,
             blocking: bool = True, on_applied=None):
        ctx = self.win.ctx
        self.remote_ops += 1
        cells = self._cells(target)
        if ctx.same_node(target):
            return (yield from ctx.xpmem.amo(cells, self.base + idx, op, a, b,
                                             on_applied))
        if blocking:
            return (yield from ctx.dmapp.amo_b(target, cells, self.base + idx,
                                               op, a, b, on_applied))
        yield from ctx.dmapp.amo_nbi(target, cells, self.base + idx, op, a, b,
                                     on_applied=on_applied)
        return None

    def _set_peer_word(self, target: int, idx: int, value: int, on_applied):
        """Non-blocking ``replace`` on a queue neighbour's word.  The link
        must be written even when the neighbour is dead (or dies
        mid-write) -- its zombie forwarder reads it to pass the token on
        -- so then the store goes straight to the shared cells, which
        outlive the simulated process."""
        ctx = self.win.ctx
        try:
            yield from self._amo(target, idx, "replace", value,
                                 blocking=False, on_applied=on_applied)
        except NodeCrashedError:
            if ctx.notifier is None:
                raise
            yield from ctx.instr(self.win.params.instr_lock)
            on_applied(self._cells(target).apply(self.base + idx, "replace",
                                                 value))

    # ------------------------------------------------------------------
    def acquire(self):
        """Enqueue and wait; O(1) remote AMOs regardless of contention."""
        if self.holding:
            raise LockError("MCS lock is not reentrant")
        win = self.win
        ctx = win.ctx
        t0 = ctx.now
        me = ctx.rank + 1
        my = self._cells(ctx.rank)
        my.store(self.base + IDX_NEXT, 0)
        my.store(self.base + IDX_FLAG, 0)
        self._queued = self._published = self._token = self._handed = False
        self._pred = 0
        self._turn += 1

        def swapped(old):
            self._queued = True
            self._pred = int(old)
            self._token = old == 0  # empty queue: token is ours on arrival

        def published(_old):
            self._published = True

        try:
            pred = yield from self._amo(win.master, IDX_TAIL, "replace", me,
                                        on_applied=swapped)
        except NodeCrashedError as exc:
            recovery.fail_acquire(ctx, exc, "mcs acquire")
        if pred != 0:
            yield from self._set_peer_word(int(pred) - 1, IDX_NEXT, me,
                                           published)
            # Spin on MY flag: no remote traffic while waiting (the MCS
            # property).
            yield my.wait_until(self.base + IDX_FLAG, lambda v: v != 0)
            my.store(self.base + IDX_FLAG, 0)
        self._token = True
        self.holding = True
        obs = ctx.obs
        if obs is not None:
            # Lock-contention span: wait time is the whole enqueue-to-
            # hand-off interval (uncontended acquires show the bare AMO
            # round trip).  Pure recording -- never perturbs schedules.
            obs.rank_span(ctx.rank, "mcs.acquire", t0, ctx.now, cat="lock",
                          args={"win": win.win_id, "base": self.base})
            obs.metrics.count("mcs.acquires", ctx.rank)
            obs.metrics.observe("mcs.acquire_wait_ns", ctx.rank,
                                ctx.now - t0)
        ck = ctx.checker
        if ck is not None:
            # Happens-before: an exclusive MCS acquire is ordered after
            # every prior release of this lock instance.
            ck.mcs_acquired(ctx.rank, (win.win_id, self.base))

    def release(self):
        """Hand off to the successor (or clear the tail).

        Checker contract: the release deposits this rank's clock *before*
        the hand-off AMO fires, so a successor's acquire observes it.
        Like the paper's lock examples, the program must flush its RMA
        operations before releasing for the edge to be truthful -- the
        MCS hand-off itself completes no RMA operations.
        """
        if not self.holding:
            raise LockError("releasing an MCS lock not held")
        win = self.win
        ctx = win.ctx
        ck = ctx.checker
        if ck is not None:
            ck.mcs_released(ctx.rank, (win.win_id, self.base))
        t0 = ctx.now
        me = ctx.rank + 1
        my = self._cells(ctx.rank)
        turn = self._turn

        def retired(old):
            if old == me:
                self._queued = self._token = False

        def handed(_old):
            # The hand-off is not waited for: one still in flight when this
            # rank enqueues again must not touch the new turn's notes.
            if self._turn == turn:
                self._handed = True
                self._queued = self._token = False

        if my.load(self.base + IDX_NEXT) == 0:
            try:
                old = yield from self._amo(win.master, IDX_TAIL, "cas", me, 0,
                                           on_applied=retired)
            except NodeCrashedError:
                if ctx.notifier is None:
                    raise
                # The master died: the queue is gone with it.  Clear local
                # state; no survivor can be waiting on this lock's words.
                old = me
                retired(old)
            if old != me:
                # A successor is in the middle of enqueueing: wait for its
                # next-pointer publication.
                yield my.wait_until(self.base + IDX_NEXT, lambda v: v != 0)
        succ = int(my.load(self.base + IDX_NEXT))
        if succ != 0:
            yield from self._set_peer_word(succ - 1, IDX_FLAG, 1, handed)
            # Cleared only *after* the hand-off is issued: if this rank
            # dies before that, its zombie forwarder still needs the link.
            my.store(self.base + IDX_NEXT, 0)
        self.holding = False
        obs = ctx.obs
        if obs is not None:
            obs.rank_span(ctx.rank, "mcs.release", t0, ctx.now, cat="lock",
                          args={"win": win.win_id, "base": self.base})
            obs.metrics.count("mcs.releases", ctx.rank)
