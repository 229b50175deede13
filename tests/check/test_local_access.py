"""Target-side local accesses as the checker records them.

``Window.local_load`` / ``local_store`` are the checker-visible way for
a rank to touch its own window memory.  These tests pin what the
checker reports for the local-access demos and for a ``local_store``
racing a remote ``put``: its statistics and every violation's
``(kind, lo, hi, first.kind, second.kind)``.  The ranges are bytes from
the window base -- on a ``win_allocate_shared`` window that is not the
offset into the shared segment.
"""

import numpy as np
import pytest

from repro.check.runner import run_checked
from repro.workloads import run_workload


def _summary(ck):
    return ck.stats_snapshot(), sorted(
        (v.kind, v.lo, v.hi, v.first.kind, v.second.kind)
        for v in ck.violations)


def _stats(accesses, by_kind=None):
    """A ``stats_snapshot()`` with every record pruned at the end."""
    by_kind = by_kind or {}
    return {"violations": sum(by_kind.values()), "unique": len(by_kind),
            "by_kind": by_kind, "accesses": accesses, "live_records": 0,
            "pruned_records": accesses}


# racy_local's race is found in both orders: two unique findings, one kind.
# At one rank per node two loads precede the put; the second takes over
# the first one's bytes, so the put races one load there, not two.
_LOAD_PUT = ("local-remote", 0, 8, "local_load", "put")
_PUT_LOAD = ("local-remote", 0, 8, "put", "local_load")


DEMO_PINS = {
    ("racy_local", 1): ({**_stats(5, {"local-remote": 3}), "unique": 2},
                        [_LOAD_PUT, _PUT_LOAD]),
    ("racy_local", 4): ({**_stats(5, {"local-remote": 4}), "unique": 2},
                        [_LOAD_PUT, _PUT_LOAD]),
    ("clean_local", 1): (_stats(2), []),
    ("clean_local", 4): (_stats(2), []),
    ("racy_msg_nosync", 1): (_stats(2, {"local-remote": 1}), [_LOAD_PUT]),
    ("racy_msg_nosync", 4): (_stats(2, {"local-remote": 1}), [_PUT_LOAD]),
    ("clean_msg_sync", 1): (_stats(2), []),
    ("clean_msg_sync", 4): (_stats(2), []),
}


@pytest.mark.parametrize("name,rpn", sorted(DEMO_PINS))
def test_local_demo_findings_are_pinned(name, rpn):
    res = run_workload(name, nranks=4, seed=11, ranks_per_node=rpn,
                       check=True)
    assert _summary(res.check) == DEMO_PINS[name, rpn]


def _store_vs_put(ctx, shared: bool):
    """Rank 2 stores 4 uint8 bytes at window offset 8 while rank 0 puts
    4 bytes at offset 10 of rank 2's window; nothing orders the two."""
    if shared:
        win = yield from ctx.rma.win_allocate_shared(32)
    else:
        win = yield from ctx.rma.win_allocate(32)
    yield from ctx.coll.barrier()
    if ctx.rank == 2:
        win.local_store(np.arange(1, 5, dtype=np.uint8), 8)
    elif ctx.rank == 0:
        yield from win.lock(2)
        yield from win.put(np.full(4, 9, np.uint8), 2, 10)
        yield from win.unlock(2)
    yield from ctx.coll.barrier()
    yield from win.free()


# [10, 12) is the overlap in window-base bytes; a range taken from the
# shared segment's base (rank 2's part starts at byte 64) would miss it.
_STORE = (_stats(2, {"local-remote": 1}),
          [("local-remote", 10, 12, "local_store", "put")])
STORE_PINS = {
    ("allocate", 1): _STORE,
    ("allocate", 4): _STORE,
    ("shared", 4): _STORE,
}


@pytest.mark.parametrize("flavor,rpn", sorted(STORE_PINS))
def test_local_store_racing_a_put_is_pinned(flavor, rpn):
    _, ck = run_checked(_store_vs_put, 4, seed=11, ranks_per_node=rpn,
                        shared=flavor == "shared")
    assert _summary(ck) == STORE_PINS[flavor, rpn]


def test_local_store_writes_the_bytes_of_its_data():
    """An int64 array lands as its 16 bytes, not as two values cast to
    uint8, and the checker records all 16: a put at byte 20 races it."""
    data = np.array([300, 7], np.int64)

    def program(ctx):
        win = yield from ctx.rma.win_allocate(32)
        yield from ctx.coll.barrier()
        if ctx.rank == 1:
            win.local_store(data, 8)
        else:
            yield from win.lock(1)
            yield from win.put(np.full(1, 9, np.uint8), 1, 20)
            yield from win.unlock(1)
        yield from ctx.coll.barrier()
        got = win.local_view()[8:24].tobytes()
        yield from win.free()
        return got

    res, ck = run_checked(program, 2, seed=11)
    expect = bytearray(data.tobytes())
    expect[20 - 8] = 9
    assert res.returns[1] == bytes(expect)
    assert _summary(ck)[1] == [("local-remote", 20, 21, "local_store", "put")]


def _own_store_then_load(ctx, via_put: bool):
    """Rank 0 writes bytes [8, 12) of its own window -- a local store, or
    a put to itself -- then loads [10, 14) with no flush between."""
    win = yield from ctx.rma.win_allocate(32)
    yield from ctx.coll.barrier()
    if ctx.rank == 0:
        yield from win.lock_all()
        if via_put:
            yield from win.put(np.full(4, 9, np.uint8), 0, 8)
        else:
            win.local_store(np.full(4, 9, np.uint8), 8)
        win.local_load(4, 10)
        yield from win.unlock_all()
    yield from ctx.coll.barrier()
    yield from win.free()


@pytest.mark.parametrize("rpn", [1, 2])
def test_own_local_accesses_follow_program_order(rpn):
    """Program order orders a rank's two local CPU accesses; a put to
    itself is a NIC access and still races the load that follows it."""
    _, ck = run_checked(_own_store_then_load, 2, seed=11,
                        ranks_per_node=rpn, via_put=False)
    assert ck.stats_snapshot()["by_kind"] == {}
    _, ck = run_checked(_own_store_then_load, 2, seed=11,
                        ranks_per_node=rpn, via_put=True)
    assert ck.stats_snapshot()["by_kind"] == {"local-remote": 1}


def _send_and_store(ctx, store_first: bool):
    """Rank 0 sends rank 1 a message and stores 8 bytes of its own window,
    in either order; rank 1 receives, then puts to the same bytes."""
    win = yield from ctx.rma.win_allocate(32)
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    if ctx.rank == 0:
        if store_first:
            win.local_store(np.full(8, 1, np.uint8))
        yield from ctx.mpi.send(1, b"x")
        if not store_first:
            win.local_store(np.full(8, 1, np.uint8))
    else:
        yield from ctx.mpi.recv(0)
        yield from win.put(np.full(8, 2, np.uint8), 0, 0)
        yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()


@pytest.mark.parametrize("store_first", [True, False],
                         ids=["store-send", "send-store"])
def test_a_send_orders_only_the_accesses_before_it(store_first):
    """The receive orders the put after a store made before the send; a
    store made after the send is another epoch, unordered with the put."""
    _, ck = run_checked(_send_and_store, 2, seed=11, store_first=store_first)
    if store_first:
        assert ck.clean, [v.describe() for v in ck.violations]
    else:
        assert _summary(ck)[1] == [("local-remote", 0, 8, "local_store",
                                    "put")]
