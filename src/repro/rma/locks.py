"""Passive-target lock synchronization (paper Section 2.3, Figure 3).

Two-level 64-bit lock hierarchy:

* one **global** lock word at a designated *master* rank::

      [ lock_all (shared) count : 32 | exclusive-origin count : 32 ]

  The two halves guarantee that lock_all epochs and exclusive locks are
  mutually exclusive window-wide.

* one **local** lock word per rank (a classic reader-writer word,
  cf. Mellor-Crummey/Scott)::

      [ writer flag : 1 | shared-lock count : 63 ]

Protocol invariants for a local exclusive lock (quoted from the paper):
(1) no global shared lock can be held or acquired during it, and (2) no
local shared or exclusive lock can be held or acquired during it.  The
code below is a line-for-line realization of the acquisition/back-off
schedule of Figure 3c, including the shortcut where an origin already
holding an exclusive lock skips the global registration, and exponential
back-off on every retry path.

Costs land on the measured constants: shared/lock_all = one remote AMO
(~2.7 us), first exclusive = two AMOs (~5.4 us), unlock = one fire-and-
forget AMO (~0.4 us).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LockError, NodeCrashedError
from repro.rma import recovery
from repro.rma import window as win_mod
from repro.rma.enums import LockType

__all__ = ["LockState", "lock", "unlock", "lock_all", "unlock_all",
           "WRITER_BIT", "GLOBAL_SHARED_UNIT"]

WRITER_BIT = 1 << 63
GLOBAL_SHARED_UNIT = 1 << 32
_EXCL_MASK = (1 << 32) - 1


@dataclass
class LockState:
    """Per-window, per-origin lock bookkeeping."""

    held: dict = field(default_factory=dict)   # target -> LockType
    lock_all_held: bool = False
    exclusive_count: int = 0                   # locks this origin holds
    retries: int = 0                           # back-off statistics
    acquired_at: dict = field(default_factory=dict)  # obs: target -> ns

    def snapshot(self) -> dict:
        """Checkpointable protocol state (repro.ft): what the restored
        incarnation must believe it holds.  Timings/statistics stay out --
        they belong to the incarnation, not the protocol."""
        return {
            "held": dict(self.held),
            "lock_all_held": self.lock_all_held,
            "exclusive_count": self.exclusive_count,
        }

    def restore(self, snap: dict) -> None:
        self.held = dict(snap["held"])
        self.lock_all_held = snap["lock_all_held"]
        self.exclusive_count = snap["exclusive_count"]


def _backoff(win, attempt: int):
    """Deterministic exponential back-off (the paper: 'All waits/retries
    can be performed with exponential back off to avoid congestion')."""
    win.lock_state.retries += 1
    delay = min(win.params.backoff_base_ns * (1 << min(attempt, 16)),
                win.params.backoff_max_ns)
    yield int(delay)


def _amo(win, target: int, idx: int, op: str, operand: int,
         operand2: int = 0, blocking: bool = True):
    """One AMO on ``target``'s control words, CPU or NIC path."""
    ctx = win.ctx
    ledger = ctx.lock_ledger
    record = None
    if ledger is not None:
        # A crash plan is active: charge this origin for what the AMO did
        # to the word, at delivery -- a packet injected before its
        # origin's crash still lands, and a deduplicated replay never
        # calls back, so a contribution is neither lost nor counted twice.
        def record(old):
            if op == "add":
                ledger.record(win.win_id, target, idx, ctx.rank, operand)
            elif op == "cas" and old == operand:
                ledger.record(win.win_id, target, idx, ctx.rank,
                              operand2 - operand)
            elif op == "replace":
                ledger.record(win.win_id, target, idx, ctx.rank,
                              operand - old)

    cells = win.ctrl_refs[target]
    if ctx.same_node(target):
        return (yield from ctx.xpmem.amo(cells, idx, op, operand, operand2,
                                         record))
    if blocking:
        return (yield from ctx.dmapp.amo_b(target, cells, idx, op,
                                           operand, operand2, record))
    yield from ctx.dmapp.amo_nbi(target, cells, idx, op, operand, operand2,
                                 on_applied=record)
    return None


def lock(win, target: int, lock_type: LockType = LockType.SHARED):
    """MPI_Win_lock on one target."""
    st = win.lock_state
    if win.epoch_access not in (None, "lock"):
        raise LockError(f"lock() during a {win.epoch_access!r} epoch")
    if st.lock_all_held:
        raise LockError("lock() while holding lock_all")
    if target in st.held:
        raise LockError(f"target {target} already locked")
    win.ctx.note_api(f"win.lock(target={target}, {lock_type.name.lower()})")
    recovery.check_peer_alive(win, target,
                              f"lock({lock_type.name.lower()})")
    t0 = win.ctx.now
    yield from win.ctx.instr(win.params.instr_lock)

    try:
        if lock_type is LockType.SHARED:
            yield from _lock_shared(win, target)
        else:
            yield from _lock_exclusive(win, target)
    except NodeCrashedError as exc:
        recovery.fail_acquire(win.ctx, exc, f"lock(target={target})")
    obs = win.ctx.obs
    if obs is not None:
        now = win.ctx.now
        obs.rank_span(win.ctx.rank, f"lock.{lock_type.name.lower()}",
                      t0, now, cat="lock", args={"target": target})
        obs.metrics.count("rma.lock", win.ctx.rank)
        obs.metrics.observe("lock_acquire_ns", win.ctx.rank, now - t0)
        st.acquired_at[target] = now
    ck = win.ctx.checker
    if ck is not None:
        ck.lock_acquired(win, target, lock_type is LockType.EXCLUSIVE)
    st.held[target] = lock_type
    win.epoch_access = "lock"
    # Acquisition is forward progress; the retry loops above are not --
    # that contrast is what lets the watchdog tell contention (someone
    # keeps acquiring) from livelock (nobody does).
    win.ctx.env.note_progress()


def _lock_shared(win, target: int):
    """Invariant: no local writer.  Fetch-add the reader count; roll back
    and spin-read while a writer holds the word."""
    attempt = 0
    while True:
        old = yield from _amo(win, target, win_mod.IDX_LOCAL_LOCK, "add", 1)
        if not (old & WRITER_BIT):
            return
        # Writer present: undo our reader registration and wait.
        yield from _amo(win, target, win_mod.IDX_LOCAL_LOCK, "add", -1,
                        blocking=False)
        while True:
            yield from _backoff(win, attempt)
            attempt += 1
            cur = yield from _amo(win, target, win_mod.IDX_LOCAL_LOCK,
                                  "add", 0)  # remote read
            if not (cur & WRITER_BIT):
                break


def _lock_exclusive(win, target: int):
    st = win.lock_state
    attempt = 0
    while True:
        if st.exclusive_count == 0:
            # Invariant (1): register at the master; back off on lock_all.
            yield from _acquire_global_writer(win)
        # Invariant (2): CAS the target's local word 0 -> WRITER.
        try:
            old = yield from _amo(win, target, win_mod.IDX_LOCAL_LOCK,
                                  "cas", 0, WRITER_BIT)
        except NodeCrashedError:
            # The target died after we registered at the master: undo the
            # registration before failing, or the survivors' lock_all
            # would wait on a phantom exclusive holder.
            if st.exclusive_count == 0:
                yield from _amo(win, win.master, win_mod.IDX_GLOBAL_LOCK,
                                "add", -1, blocking=False)
            raise
        if old == 0:
            st.exclusive_count += 1
            return
        # Failed: release the global registration (only if we hold no
        # other exclusive lock) and retry the two-step operation.
        if st.exclusive_count == 0:
            yield from _amo(win, win.master, win_mod.IDX_GLOBAL_LOCK,
                            "add", -1, blocking=False)
        yield from _backoff(win, attempt)
        attempt += 1


def _acquire_global_writer(win):
    attempt = 0
    while True:
        old = yield from _amo(win, win.master, win_mod.IDX_GLOBAL_LOCK,
                              "add", 1)
        if (old >> 32) == 0:  # no lock_all (global shared) holders
            return
        yield from _amo(win, win.master, win_mod.IDX_GLOBAL_LOCK, "add", -1,
                        blocking=False)
        yield from _backoff(win, attempt)
        attempt += 1


def _forgiving_add(win, target: int, idx: int, delta: int):
    """Fire-and-forget lock-word decrement that tolerates a dead home
    rank: the word died with its owner, so there is nothing to release."""
    try:
        yield from _amo(win, target, idx, "add", delta, blocking=False)
    except NodeCrashedError:
        if win.ctx.notifier is None:
            raise


def unlock(win, target: int):
    """MPI_Win_unlock: completes all operations to ``target`` first
    (gsync is free when nothing is outstanding -- the measured 0.4 us)."""
    st = win.lock_state
    lt = st.held.get(target)
    if lt is None:
        raise LockError(f"unlock() of unlocked target {target}")
    ctx = win.ctx
    ctx.note_api(f"win.unlock(target={target})")
    yield from ctx.xpmem.mfence()
    yield from ctx.dmapp.gsync()
    if lt is LockType.SHARED:
        yield from _forgiving_add(win, target, win_mod.IDX_LOCAL_LOCK, -1)
    else:
        yield from _forgiving_add(win, target, win_mod.IDX_LOCAL_LOCK,
                                  -WRITER_BIT)
        st.exclusive_count -= 1
        if st.exclusive_count == 0:
            yield from _forgiving_add(win, win.master,
                                      win_mod.IDX_GLOBAL_LOCK, -1)
    obs = ctx.obs
    if obs is not None:
        t_acq = st.acquired_at.pop(target, ctx.now)
        obs.rank_span(ctx.rank, "lock.hold", t_acq, ctx.now, cat="lock",
                      args={"target": target})
        obs.metrics.observe("lock_hold_ns", ctx.rank, ctx.now - t_acq)
    ck = ctx.checker
    if ck is not None:
        ck.lock_released(win, target, lt is LockType.EXCLUSIVE)
    del st.held[target]
    if not st.held:
        win.epoch_access = None
    win.ctx.env.note_progress()


def lock_all(win):
    """MPI_Win_lock_all: a *shared* lock on every rank via one AMO on the
    global word (the spec has no exclusive lock_all)."""
    st = win.lock_state
    ctx = win.ctx
    if ctx.ft is not None and ctx.ft.consume_restored_lock_all(ctx.rank, win):
        # Restarted incarnation re-executing its program from the top: the
        # checkpoint says this epoch was already open and the global-word
        # registration survived the crash (lock words are checkpointed
        # state, not revoked for recoverable ranks) -- re-enter silently
        # without touching the master's word again.
        st.lock_all_held = True
        win.epoch_access = "lock_all"
        return
    if win.epoch_access is not None:
        raise LockError(f"lock_all() during a {win.epoch_access!r} epoch")
    if st.lock_all_held:
        raise LockError("lock_all() already held")
    win.ctx.note_api("win.lock_all()")
    t0 = win.ctx.now
    yield from win.ctx.instr(win.params.instr_lock)
    attempt = 0
    try:
        while True:
            old = yield from _amo(win, win.master, win_mod.IDX_GLOBAL_LOCK,
                                  "add", GLOBAL_SHARED_UNIT)
            if (old & _EXCL_MASK) == 0:  # no exclusive holders
                break
            yield from _amo(win, win.master, win_mod.IDX_GLOBAL_LOCK, "add",
                            -GLOBAL_SHARED_UNIT, blocking=False)
            yield from _backoff(win, attempt)
            attempt += 1
    except NodeCrashedError as exc:
        recovery.fail_acquire(win.ctx, exc, "lock_all")
    obs = win.ctx.obs
    if obs is not None:
        now = win.ctx.now
        obs.rank_span(win.ctx.rank, "lock.lock_all", t0, now, cat="lock")
        obs.metrics.count("rma.lock_all", win.ctx.rank)
        obs.metrics.observe("lock_acquire_ns", win.ctx.rank, now - t0)
        st.acquired_at["all"] = now
    ck = win.ctx.checker
    if ck is not None:
        ck.lock_all_acquired(win)
    st.lock_all_held = True
    win.epoch_access = "lock_all"
    win.ctx.env.note_progress()


def unlock_all(win):
    st = win.lock_state
    if not st.lock_all_held:
        raise LockError("unlock_all() without lock_all()")
    ctx = win.ctx
    yield from ctx.xpmem.mfence()
    yield from ctx.dmapp.gsync()
    yield from _forgiving_add(win, win.master, win_mod.IDX_GLOBAL_LOCK,
                              -GLOBAL_SHARED_UNIT)
    obs = ctx.obs
    if obs is not None:
        t_acq = st.acquired_at.pop("all", ctx.now)
        obs.rank_span(ctx.rank, "lock.hold_all", t_acq, ctx.now, cat="lock")
        obs.metrics.observe("lock_hold_ns", ctx.rank, ctx.now - t_acq)
    ck = ctx.checker
    if ck is not None:
        ck.lock_all_released(win)
    st.lock_all_held = False
    win.epoch_access = None
    win.ctx.env.note_progress()
