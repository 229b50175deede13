"""Accumulates, fetch-and-op, CAS: fast path and software fallback."""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig
from repro.errors import MemoryError_
from repro.rma.enums import Op

INTER = MachineConfig(ranks_per_node=1)
INTRA = MachineConfig(ranks_per_node=64)

#: One call per atomic, at word displacement ``disp`` on ``target``.
ATOMICS = {
    "compare_and_swap": lambda win, target, disp: win.compare_and_swap(
        np.int64(0), np.int64(7), target, disp),
    "fetch_and_op": lambda win, target, disp: win.fetch_and_op(
        np.int64(7), target, disp, Op.SUM),
    "accumulate": lambda win, target, disp: win.accumulate(
        np.array([1, 2], np.int64), target, disp, Op.SUM),
    "get_accumulate": lambda win, target, disp: win.get_accumulate(
        np.array([1, 2], np.int64), target, disp, Op.SUM),
}


@pytest.mark.parametrize("cfg", [INTER, INTRA], ids=["inter", "intra"])
def test_accumulate_sum_hw_path(cfg):
    p = 4

    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        yield from win.fence()
        vals = np.full(4, ctx.rank + 1, dtype=np.int64)
        yield from win.accumulate(vals, 0, 0, Op.SUM)
        yield from win.fence()
        return win.local_view(np.int64)[:4].tolist()

    res = run_spmd(program, p, machine=cfg)
    total = sum(r + 1 for r in range(p))
    assert res.returns[0] == [total] * 4


def test_accumulate_band_bor_bxor():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        win.local_view(np.int64)[:3] = [0b1111, 0b0000, 0b1010]
        yield from win.fence()
        if ctx.rank == 1:
            yield from win.accumulate(np.array([0b1100], np.int64), 0, 0, Op.BAND)
            yield from win.accumulate(np.array([0b0011], np.int64), 0, 1, Op.BOR)
            yield from win.accumulate(np.array([0b0110], np.int64), 0, 2, Op.BXOR)
        yield from win.fence()
        return win.local_view(np.int64)[:3].tolist()

    # disp_unit=1 -> displacements are bytes; use element stride of 8
    def program8(ctx):
        win = yield from ctx.rma.win_allocate(256, disp_unit=8)
        win.local_view(np.int64)[:3] = [0b1111, 0b0000, 0b1010]
        yield from win.fence()
        if ctx.rank == 1:
            yield from win.accumulate(np.array([0b1100], np.int64), 0, 0, Op.BAND)
            yield from win.accumulate(np.array([0b0011], np.int64), 0, 1, Op.BOR)
            yield from win.accumulate(np.array([0b0110], np.int64), 0, 2, Op.BXOR)
        yield from win.fence()
        return win.local_view(np.int64)[:3].tolist()

    res = run_spmd(program8, 2, machine=INTER)
    assert res.returns[0] == [0b1100, 0b0011, 0b1100]


def test_accumulate_min_fallback_path():
    """MPI_MIN has no NIC AMO: takes the lock-get-modify-put protocol."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256, disp_unit=8)
        win.local_view(np.int64)[:4] = [10, -5, 7, 100]
        yield from win.fence()
        if ctx.rank == 1:
            vals = np.array([3, 0, 50, -2], dtype=np.int64)
            yield from win.accumulate(vals, 0, 0, Op.MIN)
        yield from win.fence()
        return win.local_view(np.int64)[:4].tolist()

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] == [3, -5, 7, -2]


def test_accumulate_float_takes_fallback():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256, disp_unit=8)
        yield from win.fence()
        vals = np.array([0.5, 1.25], dtype=np.float64)
        yield from win.accumulate(vals, 0, 0, Op.SUM)
        yield from win.fence()
        return win.local_view(np.float64)[:2].tolist()

    res = run_spmd(program, 3, machine=INTER)
    assert res.returns[0] == [1.5, 3.75]


def test_fallback_is_atomic_under_contention():
    """All ranks MIN-accumulate concurrently; the internal lock must
    serialize read-modify-write cycles (no lost updates)."""
    p, iters = 4, 3

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        win.local_view(np.float64)[0] = 0.0
        yield from win.fence()
        for i in range(iters):
            yield from win.accumulate(np.array([1.0]), 0, 0, Op.SUM)
        yield from win.fence()
        return win.local_view(np.float64)[0]

    res = run_spmd(program, p, machine=INTER)
    assert res.returns[0] == p * iters


def test_get_accumulate_returns_old():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        win.local_view(np.int64)[0] = 100
        yield from win.fence()
        old = None
        if ctx.rank == 1:
            old = yield from win.get_accumulate(np.array([5], np.int64),
                                                0, 0, Op.SUM)
        yield from win.fence()
        return (None if old is None else int(old[0]),
                int(win.local_view(np.int64)[0]))

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1][0] == 100   # fetched pre-update value
    assert res.returns[0][1] == 105   # target updated


def test_fetch_and_op_serializes():
    """Concurrent fetch-and-add must hand out unique tickets -- this is
    the hashtable's next-free-slot pattern."""
    p = 6

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.fence()
        old = yield from win.fetch_and_op(np.int64(1), 0, 0, Op.SUM)
        yield from win.fence()
        return int(old)

    res = run_spmd(program, p, machine=INTER)
    assert sorted(res.returns) == list(range(p))


def test_compare_and_swap():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.fence()
        old = yield from win.compare_and_swap(np.int64(0), np.int64(ctx.rank + 1),
                                              0, 0)
        yield from win.fence()
        winner = int(win.local_view(np.int64)[0]) if ctx.rank == 0 else None
        return int(old), winner

    res = run_spmd(program, 4, machine=INTER)
    olds = [r[0] for r in res.returns]
    assert olds.count(0) == 1          # exactly one CAS won
    winner_val = res.returns[0][1]
    assert winner_val == olds.index(0) + 1


def test_cas_latency_matches_paper():
    """P_CAS = 2.4 us (Figure 6a)."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.lock_all()
        t0 = ctx.now
        if ctx.rank == 0:
            yield from win.compare_and_swap(np.int64(0), np.int64(1), 1, 0)
        dt = ctx.now - t0
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return dt

    res = run_spmd(program, 2, machine=INTER)
    assert 2000 <= res.returns[0] <= 2900, res.returns[0]


def test_accumulate_stream_rate_matches_paper():
    """P_acc,sum ~ 28 ns/element + 2.4 us."""
    def timed(n):
        def program(ctx):
            win = yield from ctx.rma.win_allocate(1 << 21, disp_unit=8)
            yield from win.lock_all()
            t0 = ctx.now
            if ctx.rank == 0:
                vals = np.ones(n, dtype=np.int64)
                yield from win.accumulate(vals, 1, 0, Op.SUM)
                yield from win.flush(1)
            dt = ctx.now - t0
            yield from win.unlock_all()
            yield from ctx.coll.barrier()
            return dt

        return run_spmd(program, 2, machine=INTER).returns[0]

    t1, t4096 = timed(1), timed(4096)
    per_elem = (t4096 - t1) / 4095
    assert 20 <= per_elem <= 40, per_elem      # ~28 ns/elem
    assert 2000 <= t1 <= 3200, t1              # ~2.4 us base


def test_min_fallback_beats_sum_stream_at_large_counts():
    """Figure 6a crossover: the locked protocol has higher base cost but
    put/get bandwidth, so it wins for large element counts."""
    n = 1 << 15

    def program(ctx):
        win = yield from ctx.rma.win_allocate(n * 8 + 64, disp_unit=8)
        yield from win.lock_all()
        out = {}
        if ctx.rank == 0:
            vals = np.ones(n, dtype=np.int64)
            t0 = ctx.now
            yield from win.accumulate(vals, 1, 0, Op.SUM)
            yield from win.flush(1)
            out["sum"] = ctx.now - t0
            t0 = ctx.now
            yield from win.accumulate(vals, 1, 0, Op.MIN)
            yield from win.flush(1)
            out["min"] = ctx.now - t0
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return out

    res = run_spmd(program, 2, machine=INTER)
    out = res.returns[0]
    assert out["min"] < out["sum"]


@pytest.mark.parametrize("cfg", [INTER, INTRA], ids=["inter", "intra"])
def test_no_op_is_an_atomic_read_on_the_hw_path(cfg):
    """MPI_NO_OP through get_accumulate / fetch_and_op: the fetch-only
    AMO stream.  It returns the target's contents, modifies nothing,
    ignores the origin buffer, and costs what a fetching SUM of the same
    length costs (P_acc) -- not the 7.3 us locked fallback."""
    from repro.rma.accumulate import acc_path

    init = [7, -3, 1 << 40, 11]

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        win.local_view(np.int64)[:4] = init
        yield from ctx.coll.barrier()
        yield from win.lock_all()
        out = None
        if ctx.rank == 0:
            junk = np.array([99, 98, 97], np.int64)
            t0 = ctx.now
            got = yield from win.get_accumulate(junk, 1, 1, Op.NO_OP)
            t_read = ctx.now - t0
            t0 = ctx.now
            yield from win.get_accumulate(np.zeros(3, np.int64), 1, 1,
                                          Op.SUM)
            t_sum = ctx.now - t0
            t0 = ctx.now
            one = yield from win.fetch_and_op(np.int64(5), 1, 0, Op.NO_OP)
            t_fao = ctx.now - t0
            t0 = ctx.now
            yield from win.fetch_and_op(np.int64(0), 1, 0, Op.SUM)
            t_fadd = ctx.now - t0
            out = (got.tolist(), got.dtype, int(one), t_read, t_sum,
                   t_fao, t_fadd,
                   acc_path(win, Op.NO_OP, np.dtype(np.int64), 8))
        yield from win.flush_all()
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return out, win.local_view(np.int64)[:4].tolist()

    res = run_spmd(program, 2, machine=cfg)
    got, dtype, one, t_read, t_sum, t_fao, t_fadd, path = res.returns[0][0]
    assert got == init[1:4] and dtype == np.int64
    assert one == init[0]
    assert res.returns[1][1] == init             # nothing was modified
    assert path == "hw"
    assert t_read == t_sum and t_fao == t_fadd   # same cost as the RMW
    if cfg is INTER:
        assert 2000 <= t_read <= 3200, t_read    # P_acc base, not 7.3 us


# ---------------------------------------------------------------------------
# A displacement outside the target's window is refused at issue
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("rpn", [1, 2], ids=["dmapp", "xpmem"])
@pytest.mark.parametrize("disp", [-1, 8], ids=["before", "past_end"])
@pytest.mark.parametrize("call", sorted(ATOMICS))
def test_atomic_outside_created_window_raises_at_issue(call, disp, rpn):
    """A 64-byte ``win_create`` window at ``disp_unit=8`` has words 0-7:
    every atomic at word -1 or 8 raises ``MemoryError_`` at issue, as put
    and get do, and the target's memory stays untouched."""
    def program(ctx):
        win = yield from ctx.rma.win_create(ctx.space.alloc(64), disp_unit=8)
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            with pytest.raises(MemoryError_):
                yield from ATOMICS[call](win, 1, disp)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return win.local_view(np.int64).tolist()

    res = run_spmd(program, 2, machine=MachineConfig(ranks_per_node=rpn))
    assert res.returns == [[0] * 8, [0] * 8]


@pytest.mark.parametrize("origin,target,disp", [(1, 0, -1), (0, 1, 8)],
                         ids=["before_rank0", "past_end"])
@pytest.mark.parametrize("call", sorted(ATOMICS))
def test_atomic_outside_shared_window_raises_at_issue(call, origin, target,
                                                      disp):
    """On a ``win_allocate_shared`` window the ranks' regions are one
    segment: word -1 of rank 0 is outside it (not rank 1's last word), and
    so is the word past rank 1's region."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate_shared(64, disp_unit=8)
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        if ctx.rank == origin:
            with pytest.raises(MemoryError_):
                yield from ATOMICS[call](win, target, disp)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return win.local_view(np.int64).tolist()

    res = run_spmd(program, 2, machine=MachineConfig(ranks_per_node=2))
    assert res.returns == [[0] * 8, [0] * 8]


@pytest.mark.parametrize("rpn", [1, 2], ids=["dmapp", "xpmem"])
def test_accumulate_captures_the_origin_buffer_at_issue(rpn):
    """The origin buffer is read when the accumulate is issued: writing to
    it before the flush changes nothing at the target."""
    first = [1, -2, 3, 1 << 62]
    second = [10, 20, -30, 1 << 62]

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        win.local_view(np.int64)[:4] = 100
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            vals = np.array(first, np.int64)
            yield from win.accumulate(vals, 1, 0, Op.SUM)
            vals[:] = second
            yield from win.accumulate(vals, 1, 0, Op.SUM)
            vals[:] = -999
            yield from win.flush(1)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return win.local_view(np.int64)[:4].tolist()

    res = run_spmd(program, 2, machine=MachineConfig(ranks_per_node=rpn))
    # Two 2**62 addends wrap the signed word: the cells are mod 2**64.
    assert res.returns[1] == [(100 + a + b + (1 << 63)) % (1 << 64)
                              - (1 << 63) for a, b in zip(first, second)]
