"""Survivor-side revocation of RMA protocol state owned by crashed ranks.

PR 1 hardened the *transport* (retransmit, AMO dedup, quarantine); this
module closes the protocol-layer gap: when a node crashes, the two-level
lock words of Figure 3, the MCS queue links, fence/PSCW epochs and window
resources it owned must be cleaned up or every survivor livelocks in a
spin loop (or hangs in a matching list) that can never complete.

Three cooperating mechanisms, all driven by the
:class:`~repro.runtime.notify.FailureNotifier` and fully deterministic
under the run seed.  There is one policy: every run with a crash plan
revokes, and ranks that rollback recovery (:mod:`repro.ft`) will restart
keep their state for the restore instead:

**Revocation ledger** (:class:`RevocationLedger`).  Every lock-word AMO an
origin issues through ``locks._amo`` -- the two-level lock words and the
software accumulate's ``IDX_ACC_LOCK`` -- is the ordinary ``ctx.amo``
call (CPU on the node, NIC off it) with the ledger record as its
``on_applied`` delivery callback -- the same interposition the FT layer
uses for its put/AMO log.  An ``add`` records its operand, a successful
``cas`` ``swap - compare`` and a ``replace`` ``new - old``.  Recording
at delivery -- not at the origin -- matters: a packet injected before its
origin's crash still delivers, so an origin that dies between remote
effect and acknowledgment must still be charged for its contribution
(and a deduplicated replay never calls back, so it is charged once).  On failure, the per-origin *net* contribution of
each dead rank to each lock word is rolled back with one compensating
atomic, which wakes any watchers of the word.

**Zombie forwarders** for MCS queues.  Splicing a dead waiter out of an
MCS queue in place is racy (the predecessor's hand-off may already be in
flight; moving the tail back can strand a releasing predecessor waiting
on its next-pointer).  Instead the dead rank's queue node becomes a
token *forwarder*: a recovery process waits until the token reaches the
dead node -- by the predecessor's normal hand-off, or immediately when
the dead rank held the lock -- then forwards it to the successor or
retires it by CAS-ing the tail back to empty.  Token conservation holds
by construction and adjacent dead ranks chain naturally.  Where the dead
rank stood is read from the notes ``McsLock``'s own AMOs leave at
delivery (``on_applied`` again); the lock runs one protocol body on
every fabric.

**Epoch fault containment.**  Fence and collective window free run their
barrier in a child process raced against the rank's failure-notification
event; PSCW waits race their condition against the same event.  A crashed
participant turns the epoch into a structured
:class:`~repro.errors.EpochError` carrying ``failed_ranks`` on every
survivor instead of a hang or a watchdog livelock.  ``win_free`` degrades
to a local free so a dead rank cannot deadlock collective teardown, and
the dead ranks' dynamic attach lists and heap segments are reclaimed.

All three read the world's window table (``World.windows``, win_id ->
rank -> Window): a compensation lands on the target Window's control
words, and zombies and reclaim visit the dead ranks' Windows by win_id,
then MCS cell base, then rank -- attach lists before heap segments.

Timing assumption (documented, also in DESIGN.md section 9): revocation
runs at least ``DETECT_NS + REVOKE_NS`` (:mod:`repro.runtime.notify`)
after the crash, which must exceed the maximum in-flight packet latency
so that every pre-crash effect has landed before compensation.  The
constants leave a wide margin over the modeled wire latencies.
"""

from __future__ import annotations

from repro.errors import (EpochError, FaultError, NodeCrashedError,
                          RankFailedError)
from repro.runtime.notify import REVOKE_NS
from repro.sim.kernel import AnyOf

__all__ = [
    "RevocationLedger",
    "install",
    "fail_acquire",
    "check_peer_alive",
    "guarded_barrier",
    "guarded_free",
]


class RevocationLedger:
    """Net lock-word contributions per ``(window, word, origin)``.

    ``record`` is called from the lock AMOs' delivery callbacks, so the
    ledger always reflects exactly the mutations that took effect at the
    target -- never the origin's possibly-stale view.
    """

    def __init__(self) -> None:
        self._net: dict[tuple[int, int, int, int], int] = {}

    def record(self, win_id: int, target: int, idx: int, origin: int,
               delta: int) -> None:
        if delta == 0:
            return
        key = (win_id, target, idx, origin)
        new = self._net.get(key, 0) + delta
        if new:
            self._net[key] = new
        else:
            self._net.pop(key, None)

    def sums(self, win_id: int, target: int) -> dict[int, int]:
        """Non-destructive view for the FT layer: total net contribution
        to each lock word ``idx`` of ``target``'s window, summed over all
        origins.  Checkpoints record this; restore re-applies only the
        delta accrued since (see repro.ft.core)."""
        out: dict[int, int] = {}
        for (w, t, idx, _origin), delta in self._net.items():
            if w == win_id and t == target:
                out[idx] = out.get(idx, 0) + delta
        return out

    def debts_of(self, failed_ranks) -> list:
        """Pop and return ``(win_id, target, idx, origin, delta)`` for
        every net contribution owed by a dead origin."""
        failed = set(failed_ranks)
        out = []
        for key in list(self._net):
            if key[3] in failed:
                out.append(key + (self._net.pop(key),))
        return out


# ----------------------------------------------------------------------
# structured-failure helpers for the lock layer
# ----------------------------------------------------------------------
def fail_acquire(ctx, exc: NodeCrashedError, op: str):
    """Convert a transport-level quarantine error hit inside a lock
    acquisition into the user-level structured error."""
    if ctx.notifier is None:
        raise exc
    ctx.world.injector.stats.acquisitions_failed += 1
    raise RankFailedError(ctx.world.rank_map.ranks_on(exc.node), op=op,
                          detail=str(exc)) from exc


def check_peer_alive(win, target: int, op: str) -> None:
    """Fail a new acquisition addressed to a rank already known dead."""
    ctx = win.ctx
    notifier = ctx.notifier
    if notifier is None:
        return
    if notifier.rank_failed(ctx.rank, target):
        ctx.world.injector.stats.acquisitions_failed += 1
        raise RankFailedError((target,), op=op)


# ----------------------------------------------------------------------
# epoch fault containment
# ----------------------------------------------------------------------
def guarded_barrier(ctx, op: str):
    """Run the collective barrier racing this rank's failure-notification
    event; a crashed participant yields ``EpochError(failed_ranks=...)``
    on every survivor instead of an unbounded hang."""
    notifier = ctx.notifier
    env = ctx.env
    stats = ctx.world.injector.stats
    known = notifier.known(ctx.rank)
    if known:
        stats.epochs_failed += 1
        raise EpochError(f"{op}: participants already failed",
                         failed_ranks=known)

    def _child():
        yield from ctx.coll.barrier()

    proc = env.process(_child(), name=f"{op}-barrier:rank{ctx.rank}")
    try:
        yield AnyOf(env, [proc, notifier.failure_event(ctx.rank)])
    except BaseException as exc:
        if proc.is_alive:
            proc.interrupt(exception=EpochError(f"{op}: barrier abandoned"))
        if isinstance(exc, FaultError) and not isinstance(exc, RankFailedError):
            stats.epochs_failed += 1
            failed = set(notifier.known(ctx.rank))
            if isinstance(exc, NodeCrashedError):
                failed.update(ctx.world.rank_map.ranks_on(exc.node))
            raise EpochError(f"{op} aborted", failed_ranks=failed) from exc
        raise
    if proc.is_alive:
        # The failure notification won the race: contain the epoch.
        stats.epochs_failed += 1
        failed = set(notifier.known(ctx.rank))
        proc.interrupt(exception=EpochError(f"{op}: barrier abandoned",
                                            failed_ranks=failed))
        env.note_progress()
        raise EpochError(f"{op} aborted", failed_ranks=failed)


def guarded_free(win):
    """Collective free that survives dead participants: on epoch failure
    the free degrades to a local teardown instead of deadlocking."""
    ctx = win.ctx
    try:
        yield from guarded_barrier(ctx, "win_free")
    except EpochError:
        ctx.world.injector.stats.degraded_frees += 1
        ctx.env.note_progress()


# ----------------------------------------------------------------------
# revocation service (runs inside the notifier's dissemination process)
# ----------------------------------------------------------------------
def install(world) -> None:
    """Register the revocation hook on the world's failure notifier."""
    world.notifier.on_revoke(
        lambda failed_ranks: _revoke(world, failed_ranks))


def _revoke(world, failed_ranks):
    failed = set(failed_ranks)
    if world.ft is not None:
        # Ranks the FT layer will restore keep their protocol state: their
        # lock-word contributions, queue slots, registrations and heap
        # segments are rolled back to a checkpoint, not revoked.
        failed -= world.ft.recoverable(failed)
        if not failed:
            return
    yield from _revoke_lock_words(world, failed)
    _spawn_mcs_zombies(world, failed)
    yield from _reclaim(world, failed)


def _revoke_lock_words(world, failed):
    """Roll back the dead origins' net contributions to every lock word
    (global and local halves of the two-level hierarchy alike)."""
    env = world.env
    inj = world.injector
    node_of = world.rank_map.node_of
    comp: dict[tuple[int, int, int], int] = {}
    for win_id, target, idx, _, delta in world.lock_ledger.debts_of(failed):
        key = (win_id, target, idx)
        comp[key] = comp.get(key, 0) + delta
    for key in sorted(comp):
        delta = comp[key]
        if delta == 0:
            continue
        win_id, target, idx = key
        if inj.node_crashed(node_of(target), env.now):
            continue  # the word died with its home rank
        ctrl = world.windows[win_id][target].ctrl
        yield REVOKE_NS
        ctrl.apply(idx, "add", -delta)  # wakes any watchers of the word
        inj.stats.locks_revoked += 1
        env.note_progress()


def _dead_windows(world, failed) -> list:
    """``(rank, Window)`` of every dead rank in the window table, by
    win_id, then rank."""
    return [(r, row[r]) for _, row in sorted(world.windows.items())
            for r in sorted(failed) if r in row]


def _spawn_mcs_zombies(world, failed) -> None:
    locks = [(r, lock) for r, win in _dead_windows(world, failed)
             for lock in win.mcs_locks.values()]
    # By win_id, then cell base, then rank (the sort is stable).
    for r, lock in sorted(locks, key=lambda e: (e[1].win.win_id, e[1].base)):
        if lock._queued:
            world.env.process(_mcs_zombie(world, lock, r),
                              name=f"mcs-zombie:rank{r}")


def _mcs_zombie(world, lock, rank: int):
    """Token-conserving MCS revocation for dead ``rank``: wait for the
    token at the dead node, then forward it to the successor or retire it
    (see the module docstring for why in-place splicing is racy)."""
    from repro.rma.mcs import IDX_FLAG, IDX_NEXT, IDX_TAIL

    env = world.env
    inj = world.injector
    base = lock.base
    my = lock._cells(rank)
    me = rank + 1

    # The dead rank may have enqueued (swap delivered at the master)
    # without ever publishing itself to its predecessor -- finish the
    # publication so the predecessor's release can find this node.
    if lock._pred and not lock._published:
        yield REVOKE_NS
        lock._cells(lock._pred - 1).apply(base + IDX_NEXT, "replace", me)
        lock._published = True
        env.note_progress()

    # Wait for the token: the dead rank either had it already (held the
    # lock, or its swap found an empty queue) or receives it through its
    # FLAG word by the predecessor's normal hand-off.
    if not (lock._token or lock.holding) \
            and my.load(base + IDX_FLAG) == 0:
        yield my.wait_until(base + IDX_FLAG, lambda v: v != 0)
    if lock._handed:
        return  # the hand-off was already delivered before the crash

    # Forward to the successor, or retire the token at the tail.
    while True:
        yield REVOKE_NS
        succ = int(my.load(base + IDX_NEXT))
        if succ != 0 and succ != me:
            lock._cells(succ - 1).apply(base + IDX_FLAG, "replace", 1)
            break
        tail = lock._cells(lock.win.master)
        if tail.cas(base + IDX_TAIL, me, 0) == me:
            break
        # A successor is mid-enqueue: wait for its publication.
        yield my.wait_until(base + IDX_NEXT, lambda v: v != 0)
    lock._queued = False
    lock._token = False
    lock.holding = False
    inj.stats.queue_splices += 1
    env.note_progress()


def _reclaim(world, failed):
    """Window teardown for dead ranks: deregister their dynamic attach
    lists and reclaim their window heap segments so crashed ranks cannot
    leak registrations."""
    env = world.env
    inj = world.injector
    dead = _dead_windows(world, failed)
    for r, win in dead:  # dynamic attach lists first, then heap segments
        st = win.dyn
        if st is None or not st.regions:
            continue
        n = len(st.regions)
        yield REVOKE_NS
        for desc in list(st.regions):
            try:
                world.reg_tables[r].deregister(desc)
            except Exception:
                pass
        st.regions.clear()
        st.cache.clear()
        inj.stats.regions_reclaimed += n
        env.note_progress()
    for r, win in dead:
        if win.freed or win.seg is None:
            continue
        yield REVOKE_NS
        try:
            world.spaces[r].free(win.seg)
        except Exception:
            pass
        win.freed = True
        inj.stats.regions_reclaimed += 1
        env.note_progress()
