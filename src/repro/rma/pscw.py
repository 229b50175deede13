"""General Active Target Synchronization -- PSCW (paper Section 2.3, Fig 2).

The scalable matching protocol:

* ``post(group)``: the exposing rank announces itself to every rank j in
  the group by *appending its id to a matching list local to j*.  The
  append acquires a free element in the remote list through the
  free-storage protocol of Figure 2c -- here a single chained NIC
  operation (fetch a free slot, write ``rank+1``, bump the version word
  that start() watches).  O(k) messages, zero waiting.
* ``start(group)``: waits until every group member is present in the
  *local* matching list, then consumes those entries (freeing the slots).
  Entries posted for future epochs simply stay -- matching is by process
  id, exactly the paper's matching rule.
* ``complete()``: guarantees remote visibility of the epoch's RMA ops
  (gsync; CPU stores are visible at once), then atomically increments
  the completion counter at every exposure target.  O(k) messages.
* ``wait()``: blocks until the completion counter reaches the exposure
  group size, then resets it.

Memory: ``ring_capacity`` slots + 2 counters per rank = O(k).  The paper
assumes k (max neighbors over all epochs) is known; exceeding the ring
capacity raises, mirroring that contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EpochError, NodeCrashedError, RmaError
from repro.rma import window as win_mod
from repro.sim.kernel import AnyOf

__all__ = ["PscwState", "post", "start", "complete", "wait"]


@dataclass
class PscwState:
    """Per-window PSCW bookkeeping on one rank."""

    access_group: set = field(default_factory=set)
    exposure_group: set = field(default_factory=set)


def _append_entry(ctrl, capacity: int, poster_rank: int):
    """The free-storage append executed atomically at the target NIC:
    find a free slot, write the poster's id, bump the version word."""
    def mutate():
        for s in range(capacity):
            idx = win_mod.IDX_PSCW_SLOTS + s
            if ctrl.load(idx) == 0:
                ctrl.store(idx, poster_rank + 1)
                ctrl.fadd(win_mod.IDX_PSCW_VERSION, 1)
                return s
        raise RmaError(
            "PSCW matching list overflow: more outstanding posts than "
            "ring_capacity (the paper assumes k is known and bounded)")
    return mutate


def post(win, group):
    """MPI_Win_post: open an exposure epoch for ``group``."""
    group = list(group)
    st = win.pscw_state
    if win.epoch_exposure == "pscw":
        raise EpochError("post() while an exposure epoch is already open")
    if win.rank in group:
        raise EpochError("a rank cannot post to itself")
    ctx = win.ctx
    ctx.note_api(f"win.post(group={sorted(group)})")
    t0 = ctx.now
    hook = ctx.sync_hook
    if hook is not None:
        # Deposit before the matching-list appends a peer's start() can
        # observe: any start() that matches this post happens-after it.
        hook.on_sync("post_enter", win, group, t0)
    notifier = ctx.notifier
    dead: set = set()
    if notifier is not None:
        dead = set(group) & notifier.known(win.rank)
    # This rank's prior stores are already visible to its peers (unified
    # memory model), so no fence precedes the appends.
    cap = win.params.pscw_ring_capacity
    for j in group:
        if j in dead:
            continue
        try:
            yield from ctx.amo_custom(
                j, _append_entry(win.peers[j].ctrl, cap, win.rank),
                win.params.instr_lock)
        except NodeCrashedError as exc:
            if notifier is None:
                raise
            dead.update(r for r in group if ctx.node_of(r) == exc.node)
    # Fault containment: the epoch opens for the surviving peers, and the
    # dead ones are reported in a structured error.
    st.exposure_group = set(group) - dead
    win.epoch_exposure = "pscw"
    if hook is not None:
        hook.on_sync("post", win, group, t0)
    ctx.env.note_progress()
    if dead:
        ctx.world.injector.stats.epochs_failed += 1
        raise EpochError("post(): access peers failed", failed_ranks=dead)


def start(win, group):
    """MPI_Win_start: open an access epoch; blocks until all matching
    posts arrived (the paper's start *may block*, Section 2.5)."""
    group = list(group)
    st = win.pscw_state
    if win.epoch_access is not None:
        raise EpochError(
            f"start() while in a {win.epoch_access!r} access epoch")
    ctx = win.ctx
    ctx.note_api(f"win.start(group={sorted(group)})")
    t0 = ctx.now
    yield from ctx.compute(win.params.pscw_start_overhead)
    cap = win.params.pscw_ring_capacity
    ctrl = win.ctrl
    needed = set(group)
    notifier = ctx.notifier
    while needed:
        # Scan the matching list, consume entries for ranks we wait on:
        # one read of the list, then the live slots in ascending order.
        slots = ctrl.load_block(win_mod.IDX_PSCW_SLOTS, cap)
        for s, v in enumerate(slots):
            if v != 0 and (v - 1) in needed:
                needed.discard(v - 1)
                ctrl.store(win_mod.IDX_PSCW_SLOTS + s, 0)  # free the slot
                if not needed:
                    break
        if needed:
            if notifier is not None:
                dead = needed & notifier.known(win.rank)
                if dead:
                    # Their posts can never arrive: fail the epoch on the
                    # survivor instead of blocking in the matching list.
                    ctx.world.injector.stats.epochs_failed += 1
                    raise EpochError(
                        "start(): exposure peers failed before posting",
                        failed_ranks=dead)
            version = ctrl.load(win_mod.IDX_PSCW_VERSION)
            wait_ev = ctrl.wait_until(win_mod.IDX_PSCW_VERSION,
                                      lambda v, _v0=version: v != _v0)
            if notifier is None:
                yield wait_ev
            else:
                yield AnyOf(ctx.env, [wait_ev,
                                      notifier.failure_event(win.rank)])
    hook = ctx.sync_hook
    if hook is not None:
        hook.on_sync("start", win, group, t0)
    st.access_group = set(group)
    win.epoch_access = "pscw"
    ctx.env.note_progress()


def complete(win):
    """MPI_Win_complete: close the access epoch."""
    st = win.pscw_state
    if win.epoch_access != "pscw":
        raise EpochError("complete() without a matching start()")
    ctx = win.ctx
    ctx.note_api("win.complete()")
    t0 = ctx.now
    hook = ctx.sync_hook
    if hook is not None:
        # Deposit before the completion-counter AMOs a peer's wait()
        # observes; also orders this origin's ops (complete = flush).
        hook.on_sync("complete_enter", win, st.access_group, t0)
    # Remote visibility of all epoch operations first ...
    yield from ctx.dmapp.gsync()
    # ... then notify each exposure peer's completion counter.  Not
    # ctx.amo: on this node the add is an uncounted in-place increment
    # charged at instr_lock, not a counted CPU atomic.
    notifier = ctx.notifier
    dead: set = set()
    for j in sorted(st.access_group):
        if notifier is not None and notifier.rank_failed(win.rank, j):
            dead.add(j)
            continue
        if ctx.same_node(j):
            yield from ctx.instr(win.params.instr_lock)
            win.peers[j].ctrl.fadd(win_mod.IDX_PSCW_DONE, 1)
        else:
            try:
                yield from ctx.dmapp.amo_nbi(j, win.peers[j].ctrl,
                                             win_mod.IDX_PSCW_DONE,
                                             "add", 1)
            except NodeCrashedError as exc:
                if notifier is None:
                    raise
                dead.update(r for r in st.access_group
                            if ctx.node_of(r) == exc.node)
    st.access_group = set()
    win.epoch_access = None
    if hook is not None:
        hook.on_sync("complete", win, None, t0)
    ctx.env.note_progress()
    if dead:
        # The epoch is closed on this survivor; the dead exposure peers
        # are reported (they will never see the completion counter).
        ctx.world.injector.stats.epochs_failed += 1
        raise EpochError("complete(): exposure peers failed",
                         failed_ranks=dead)


def wait(win):
    """MPI_Win_wait: block until every access peer called complete()."""
    st = win.pscw_state
    if win.epoch_exposure != "pscw":
        raise EpochError("wait() without a matching post()")
    ctx = win.ctx
    ctx.note_api("win.wait()")
    t0 = ctx.now
    expected = len(st.exposure_group)
    yield from ctx.compute(win.params.pscw_wait_overhead)
    notifier = ctx.notifier
    if expected and notifier is None:
        yield win.ctrl.wait_until(win_mod.IDX_PSCW_DONE,
                                  lambda v: v >= expected)
        win.ctrl.fadd(win_mod.IDX_PSCW_DONE, -expected)
    elif expected:
        # Check the counter FIRST: a complete() that landed before its
        # origin died still counts (the op took effect; only the rank is
        # gone), so a satisfied epoch never turns into an error.
        while True:
            if win.ctrl.load(win_mod.IDX_PSCW_DONE) >= expected:
                win.ctrl.fadd(win_mod.IDX_PSCW_DONE, -expected)
                break
            dead = st.exposure_group & notifier.known(win.rank)
            if dead:
                st.exposure_group = set()
                win.epoch_exposure = None
                ctx.world.injector.stats.epochs_failed += 1
                raise EpochError(
                    "wait(): access peers failed before complete()",
                    failed_ranks=dead)
            yield AnyOf(ctx.env, [
                win.ctrl.wait_until(win_mod.IDX_PSCW_DONE,
                                    lambda v: v >= expected),
                notifier.failure_event(win.rank)])
    hook = ctx.sync_hook
    if hook is not None:
        hook.on_sync("wait", win, st.exposure_group, t0)
    st.exposure_group = set()
    win.epoch_exposure = None
    ctx.env.note_progress()
