"""The local_view annotation API and the kvstore's value-word
discipline, each with its racy twin.

``Window.local_view`` hands out a zero-copy numpy array the checker
cannot see through -- the documented tracking gap.  ``note_local``
closes it by explicit declaration: an annotated unordered scan is
*flagged*, its unannotated twin silently passes (the gap, pinned as a
test so the docs stay honest), and the properly ordered scan is clean.

The kvstore's data plane is lock-free: shared words are read with
``get_accumulate(NO_OP)`` and written with CAS, and accumulate-family
operations compose under MPI-3's ``same_op_no_op``.  That discipline is
load-bearing: the twins that read with a plain get, or write with a
plain put, are the atomic-vs-nonatomic races the checker must flag
(unless an MCS lock orders them, as the store's first version did).
"""

import numpy as np

from repro.check.runner import run_checked
from repro.rma.enums import Op
from repro.rma.mcs import McsLock
from repro.rma.window import CTRL_WORDS_BASE


def _scan_program(ctx, annotate: bool, ordered: bool):
    win = yield from ctx.rma.win_allocate(64, disp_unit=8)
    yield from win.lock_all()
    if ctx.rank == 1:
        yield from win.put(np.array([7], np.int64), 0, 0)
        yield from win.flush(0)
    if ordered:
        yield from ctx.coll.barrier()
    if ctx.rank == 0:
        if annotate:
            win.note_local("load", 8)
        _ = int(win.local_view(np.int64)[0])
    yield from win.unlock_all()
    yield from ctx.coll.barrier()


def test_annotated_unordered_scan_is_flagged():
    _, ck = run_checked(_scan_program, 2, seed=11, annotate=True,
                        ordered=False)
    assert not ck.clean
    assert any({v.first.kind, v.second.kind} == {"local_load", "put"}
               for v in ck.violations)


def test_unannotated_twin_passes_the_documented_gap():
    """Bit-for-bit the same racy access pattern, minus the annotation:
    the checker cannot see through the zero-copy view.  This test IS
    the documentation of the gap -- if the checker ever learns to see
    through ``local_view``, this flips and the docs get updated."""
    _, ck = run_checked(_scan_program, 2, seed=11, annotate=False,
                        ordered=False)
    assert ck.clean


def test_annotated_ordered_scan_is_clean():
    _, ck = run_checked(_scan_program, 2, seed=11, annotate=True,
                        ordered=True)
    assert ck.clean, [v.describe() for v in ck.violations]


def test_note_local_rejects_bad_kind():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.lock_all()
        try:
            win.note_local("write", 8)
        except ValueError:
            caught = True
        else:
            caught = False
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return caught

    res, _ = run_checked(program, 2, seed=11)
    assert res.returns[0] is True


# ----------------------------------------------------------------------
# the kvstore CAS-update access pattern: atomic read + CAS, and its twins
# ----------------------------------------------------------------------
def _cas_update_program(ctx, atomic_read: bool, locked: bool = False):
    """Both ranks add 1 to word 1 of rank 0, twice -- the kvstore update
    path distilled.  ``atomic_read`` reads the word with
    ``get_accumulate(NO_OP)``, which is what the real store does (no
    lock); the twin reads it with a plain get.  ``locked`` wraps each
    read-CAS in an MCS critical section (flushed before release)."""
    win = yield from ctx.rma.win_allocate(64, disp_unit=8)
    lock = McsLock(win, cell_base=CTRL_WORDS_BASE
                   + win.params.pscw_ring_capacity)
    yield from win.lock_all()
    for _ in range(2):
        if locked:
            yield from lock.acquire()
        if atomic_read:
            got = yield from win.get_accumulate(np.zeros(1, np.int64), 0, 1,
                                                Op.NO_OP)
        else:
            got = yield from win.get_blocking(0, 1, 8, np.int64)
            yield from win.flush(0)
        cur = int(got[0])
        while True:
            old = int((yield from win.compare_and_swap(
                np.int64(cur), np.int64(cur + 1), 0, 1)))
            if old == cur:
                break
            cur = old
        yield from win.flush(0)
        if locked:
            yield from lock.release()
    yield from ctx.coll.barrier()
    final = None
    if ctx.rank == 0:
        got = yield from win.get_blocking(0, 1, 8, np.int64)
        final = int(got[0])
        yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    return final


def _kind_pairs(ck):
    return {frozenset((v.first.kind, v.second.kind)): v.kind
            for v in ck.violations}


def test_lock_free_cas_update_is_clean():
    res, ck = run_checked(_cas_update_program, 2, seed=11, atomic_read=True)
    assert ck.clean, [v.describe() for v in ck.violations]
    assert res.returns[0] == 4          # the CAS loop loses no update


def test_cas_update_reading_with_a_plain_get_is_flagged():
    res, ck = run_checked(_cas_update_program, 2, seed=11,
                          atomic_read=False)
    assert res.returns[0] == 4          # it still "works" -- and is a race
    assert _kind_pairs(ck)[frozenset(("get", "cas"))] == "atomic-nonatomic"


def test_cas_update_with_a_plain_get_under_mcs_lock_is_clean():
    """The lock's happens-before edge is the other way to make the mixed
    get/CAS access well-defined -- at the price the lock-free store no
    longer pays."""
    res, ck = run_checked(_cas_update_program, 2, seed=11,
                          atomic_read=False, locked=True)
    assert ck.clean, [v.describe() for v in ck.violations]
    assert res.returns[0] == 4


def test_plain_put_racing_an_atomic_read_is_flagged():
    """Overwriting a value word with ``put`` instead of CAS breaks the
    discipline even though every *reader* is atomic."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.lock_all()
        if ctx.rank == 1:
            yield from win.put(np.array([7], np.int64), 0, 1)
        else:
            yield from win.get_accumulate(np.zeros(1, np.int64), 0, 1,
                                          Op.NO_OP)
        yield from win.flush(0)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()

    _, ck = run_checked(program, 2, seed=11)
    assert _kind_pairs(ck) == {
        frozenset(("put", "get_acc")): "atomic-nonatomic"}
