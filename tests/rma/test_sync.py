"""Synchronization protocols: fence, PSCW, locks, flush."""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig
from repro.errors import EpochError, LockError
from repro.rma.enums import LockType
from repro.rma.locks import GLOBAL_SHARED_UNIT, WRITER_BIT
from repro.rma.window import IDX_GLOBAL_LOCK, IDX_LOCAL_LOCK

INTER = MachineConfig(ranks_per_node=1)


# ---------------------------------------------------------------------------
# fence
# ---------------------------------------------------------------------------
def test_fence_orders_puts():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from win.fence()
        if ctx.rank == 0:
            yield from win.put(np.full(8, 7, np.uint8), 1, 0)
        yield from win.fence()
        return int(win.local_view()[0])

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1] == 7


def test_fence_scales_logarithmically():
    times = {}
    for p in (2, 8, 32):
        def program(ctx):
            win = yield from ctx.rma.win_allocate(64)
            yield from win.fence()
            t0 = ctx.now
            yield from win.fence()
            return ctx.now - t0

        res = run_spmd(program, p, machine=INTER)
        times[p] = max(res.returns)
    # log2(32)/log2(2) = 5: expect ~5x, definitely < 10x (not linear: 16x)
    assert times[32] < times[2] * 10
    assert times[8] > times[2]


# ---------------------------------------------------------------------------
# PSCW
# ---------------------------------------------------------------------------
def test_pscw_ring_exchange():
    p = 6

    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        left = (ctx.rank - 1) % p
        right = (ctx.rank + 1) % p
        win.local_view(np.int64)[0] = ctx.rank * 100
        yield from win.post([left, right])
        yield from win.start([left, right])
        out = np.zeros(1, np.int64)
        yield from win.get(out, right, 0)
        yield from win.flush(right)
        yield from win.complete()
        yield from win.wait()
        return int(out[0])

    res = run_spmd(program, p, machine=INTER)
    assert res.returns == [((r + 1) % p) * 100 for r in range(p)]


def test_pscw_put_visible_after_wait():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        if ctx.rank == 0:
            yield from win.start([1])
            yield from win.put(np.full(8, 5, np.uint8), 1, 0)
            yield from win.complete()
            yield from ctx.coll.barrier()
            return None
        yield from win.post([0])
        yield from win.wait()
        val = int(win.local_view()[0])
        yield from ctx.coll.barrier()
        return val

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1] == 5


def test_pscw_start_blocks_until_post():
    """start() must wait for the matching post (paper Section 2.5b)."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        if ctx.rank == 0:
            t0 = ctx.now
            yield from win.start([1])
            waited = ctx.now - t0
            yield from win.complete()
            return waited
        yield from ctx.compute(50_000)  # post arrives late
        yield from win.post([0])
        yield from win.wait()
        return None

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] > 40_000


def test_pscw_multiple_epochs_match_in_order():
    """Figure 2a: two distinct matches from one origin."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        if ctx.rank == 0:
            yield from win.start([1, 2])
            yield from win.put(np.full(1, 11, np.uint8), 1, 0)
            yield from win.put(np.full(1, 12, np.uint8), 2, 0)
            yield from win.complete()
            yield from win.start([3])
            yield from win.put(np.full(1, 13, np.uint8), 3, 0)
            yield from win.complete()
            yield from ctx.coll.barrier()
            return None
        yield from win.post([0])
        yield from win.wait()
        val = int(win.local_view()[0])
        yield from ctx.coll.barrier()
        return val

    res = run_spmd(program, 4, machine=INTER)
    assert res.returns[1:] == [11, 12, 13]


def test_pscw_access_restricted_to_group():
    def prog(ctx):
        win = yield from ctx.rma.win_allocate(64)
        if ctx.rank == 0:
            yield from win.start([1])
            with pytest.raises(EpochError):
                yield from win.put(np.zeros(1, np.uint8), 2, 0)
            yield from win.complete()
        elif ctx.rank == 1:
            yield from win.post([0])
            yield from win.wait()
        yield from ctx.coll.barrier()

    run_spmd(prog, 3, machine=INTER)


def test_pscw_message_complexity_is_o_k():
    """post+complete issue O(k) network ops, start/wait zero (paper)."""
    from repro.runtime.job import Job, run_on_world

    counts = {}
    for p in (4, 8):
        job = Job(nranks=p, machine=INTER)
        world = job.build_world()

        def program(ctx):
            win = yield from ctx.rma.win_allocate(64)
            yield from ctx.coll.barrier()
            base = dict(world.counters.remote_ops)
            left, right = (ctx.rank - 1) % ctx.nranks, (ctx.rank + 1) % ctx.nranks
            yield from win.post([left, right])
            yield from win.start([left, right])
            yield from win.complete()
            yield from win.wait()
            return world.counters.remote_ops[ctx.rank] - base.get(ctx.rank, 0)

        res = run_on_world(world, program)
        counts[p] = max(res.returns)
    # k=2 for both sizes: per-rank op count must not grow with p
    assert counts[8] == counts[4]
    assert counts[4] <= 8  # 2 posts + 2 completes (+ slack)


# ---------------------------------------------------------------------------
# locks
# ---------------------------------------------------------------------------
def test_lock_put_unlock_roundtrip():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        if ctx.rank == 0:
            yield from win.lock(1, LockType.EXCLUSIVE)
            yield from win.put(np.full(4, 9, np.uint8), 1, 0)
            yield from win.unlock(1)
        yield from ctx.coll.barrier()
        return int(win.local_view()[0])

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1] == 9


def test_exclusive_locks_mutually_exclude():
    """Two writers increment a non-atomic counter under exclusive locks;
    without mutual exclusion updates would be lost."""
    N = 5

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from ctx.coll.barrier()
        if ctx.rank in (0, 1):
            for _ in range(N):
                yield from win.lock(2, LockType.EXCLUSIVE)
                cur = np.zeros(1, np.int64)
                yield from win.get(cur, 2, 0)
                yield from win.flush(2)
                cur += 1
                yield from win.put(cur, 2, 0)
                yield from win.unlock(2)
        yield from ctx.coll.barrier()
        return int(win.local_view(np.int64)[0])

    res = run_spmd(program, 3, machine=INTER)
    assert res.returns[2] == 2 * N


def test_shared_locks_allow_concurrency():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        win.local_view(np.int64)[0] = 42
        yield from ctx.coll.barrier()
        if ctx.rank != 2:
            yield from win.lock(2, LockType.SHARED)
            out = np.zeros(1, np.int64)
            yield from win.get(out, 2, 0)
            yield from win.flush(2)
            # both readers hold the lock here; reader count visible
            yield from ctx.compute(1)
            yield from win.unlock(2)
            return int(out[0])
        yield from ctx.compute(1)
        return None

    res = run_spmd(program, 3, machine=INTER)
    assert res.returns[0] == 42 and res.returns[1] == 42


def test_lock_all_excludes_exclusive():
    """A lock_all epoch delays an exclusive lock (Figure 3c schedule)."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from ctx.coll.barrier()
        if ctx.rank == 1:
            yield from win.lock_all()
            hold_until = ctx.now + 30_000
            yield from ctx.compute(30_000)
            yield from win.unlock_all()
            return hold_until
        if ctx.rank == 2:
            yield from ctx.compute(5_000)  # let rank 1 grab lock_all first
            yield from win.lock(0, LockType.EXCLUSIVE)
            acquired_at = ctx.now
            yield from win.unlock(0)
            return acquired_at
        return None

    res = run_spmd(program, 3, machine=INTER)
    hold_until, acquired_at = res.returns[1], res.returns[2]
    assert acquired_at > hold_until  # exclusive waited for lock_all to end


def test_lock_word_encoding():
    """Check the Figure 3a bit layout directly."""
    from repro.runtime.job import Job, run_on_world

    job = Job(nranks=3, machine=INTER)
    world = job.build_world()
    observed = {}

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            yield from win.lock(2, LockType.SHARED)
            observed["shared"] = win.peers[2].ctrl.load(IDX_LOCAL_LOCK)
            yield from win.unlock(2)
            yield from ctx.coll.barrier()
            yield from win.lock(2, LockType.EXCLUSIVE)
            observed["excl_local"] = win.peers[2].ctrl.load(IDX_LOCAL_LOCK)
            observed["excl_global"] = win.peers[0].ctrl.load(IDX_GLOBAL_LOCK)
            yield from win.unlock(2)
        else:
            yield from ctx.coll.barrier()
        yield from ctx.coll.barrier()
        if ctx.rank == 1:
            yield from win.lock_all()
            observed["lockall_global"] = win.peers[0].ctrl.load(IDX_GLOBAL_LOCK)
            yield from win.unlock_all()
        yield from ctx.coll.barrier()

    run_on_world(world, program)
    assert observed["shared"] == 1                      # one reader
    assert observed["excl_local"] == WRITER_BIT         # writer bit set
    assert observed["excl_global"] == 1                 # one excl holder
    assert observed["lockall_global"] == GLOBAL_SHARED_UNIT


def test_lock_errors():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        with pytest.raises(LockError):
            yield from win.unlock(0)
        yield from win.lock(1, LockType.SHARED)
        with pytest.raises(LockError):
            yield from win.lock(1, LockType.SHARED)  # double lock
        with pytest.raises(LockError):
            yield from win.lock_all()  # lock_all during lock epoch
        yield from win.unlock(1)
        yield from ctx.coll.barrier()

    run_spmd(program, 2, machine=INTER)


def test_flush_guarantees_remote_completion():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            yield from win.lock(1, LockType.EXCLUSIVE)
            yield from win.put(np.full(8, 3, np.uint8), 1, 0)
            yield from win.flush(1)
            # after flush the data must already be at the target
            assert ctx.world.spaces[1].segments  # target memory written
            out = np.zeros(8, np.uint8)
            yield from win.get(out, 1, 0)
            yield from win.flush(1)
            yield from win.unlock(1)
            return out.tolist()
        yield from ctx.compute(1)
        return None

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] == [3] * 8


def test_unlock_without_outstanding_is_cheap():
    """Measured P_unlock = 0.4 us: fire-and-forget AMO."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            yield from win.lock(1, LockType.SHARED)
            t0 = ctx.now
            yield from win.unlock(1)
            return ctx.now - t0
        return None

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] < 1000  # well under one AMO round trip


def test_pscw_start_reads_the_matching_list_once_per_wake(monkeypatch):
    """start() reads the 64-slot matching list with one block read per
    wake-up, not one ``load`` per slot: two ranks, two epochs, the second
    rank posting late so that the first one's start() blocks.  The
    ``load`` calls left are the post-side appends (one per post: slot 0
    is free) and one version read per blocking wait; scanning slot by
    slot made 138."""
    from repro.mem.atomic import SegmentCells

    calls = []
    orig = SegmentCells.load

    def load(self, idx):
        calls.append(idx)
        return orig(self, idx)

    monkeypatch.setattr(SegmentCells, "load", load)

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        peer = 1 - ctx.rank
        for epoch in range(2):
            if ctx.rank == 1:
                yield from ctx.compute(5_000)
            yield from win.post([peer])
            yield from win.start([peer])
            yield from win.put(np.full(8, epoch + 1, np.uint8), peer, 0)
            yield from win.complete()
            yield from win.wait()
        return int(win.local_view()[0])

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns == [2, 2]
    assert len(calls) <= 6, calls
