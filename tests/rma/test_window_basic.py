"""Window creation + basic put/get across flavors and transports."""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig
from repro.errors import EpochError, WindowError
from repro.mem.symheap import propose_address
from repro.rma.enums import WinFlavor

INTER = MachineConfig(ranks_per_node=1)   # all ranks on distinct nodes
INTRA = MachineConfig(ranks_per_node=64)  # all ranks on one node


def _fence_put_get(ctx, make_win):
    win = yield from make_win(ctx)
    yield from win.fence()
    data = (np.arange(32, dtype=np.uint8) + ctx.rank * 10)
    target = (ctx.rank + 1) % ctx.nranks
    yield from win.put(data, target, 0)
    yield from win.fence()
    local = win.local_view()[:32].copy()
    out = np.zeros(32, dtype=np.uint8)
    yield from win.get(out, target, 0)
    yield from win.fence()
    return local.tolist(), out.tolist()


@pytest.mark.parametrize("cfg", [INTER, INTRA], ids=["inter", "intra"])
def test_allocate_put_get(cfg):
    def make(ctx):
        return ctx.rma.win_allocate(4096)

    def program(ctx):
        return (yield from _fence_put_get(ctx, make))

    res = run_spmd(program, 4, machine=cfg)
    for rank, (local, got) in enumerate(res.returns):
        src = (rank - 1) % 4
        assert local == [(i + src * 10) % 256 for i in range(32)]
        # the get reads back what this rank put at its target
        assert got == [(i + rank * 10) % 256 for i in range(32)]


@pytest.mark.parametrize("cfg", [INTER, INTRA], ids=["inter", "intra"])
def test_create_put_get(cfg):
    def make(ctx):
        seg = ctx.space.alloc(4096, label="user")
        return ctx.rma.win_create(seg)

    def program(ctx):
        return (yield from _fence_put_get(ctx, make))

    res = run_spmd(program, 4, machine=cfg)
    for rank, (local, got) in enumerate(res.returns):
        src = (rank - 1) % 4
        assert local == [(i + src * 10) % 256 for i in range(32)]


def test_alternating_windows_on_one_target():
    """Two allocated windows on the same target, written in turn: the
    target table's one remembered registration must never answer for the
    other window (put, atomics and get each translate on their own)."""
    def program(ctx):
        wins = []
        for _ in range(2):
            wins.append((yield from ctx.rma.win_allocate(64, disp_unit=8)))
        for win in wins:
            yield from win.lock_all()
        yield from ctx.coll.barrier()
        got = None
        if ctx.rank == 0:
            for i in range(4):
                for w, win in enumerate(wins):
                    yield from win.put(np.full(1, 10 * w + i, np.int64), 1, i)
                    yield from win.fetch_and_op(np.int64(w + 1), 1, 4)
            got = []
            for win in wins:
                yield from win.flush(1)
                out = np.zeros(5, np.int64)
                yield from win.get(out, 1, 0)
                yield from win.flush(1)
                got.append(out.tolist())
        for win in wins:
            yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return got, [w.local_view(np.int64)[:5].tolist() for w in wins]

    res = run_spmd(program, 2, machine=INTER)
    expected = [[0, 1, 2, 3, 4], [10, 11, 12, 13, 8]]
    assert res.returns[0][0] == expected      # read back through get
    assert res.returns[1][1] == expected      # what landed at the target


def test_allocate_is_symmetric():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(1024)
        return win.seg.vaddr

    res = run_spmd(program, 8)
    assert len(set(res.returns)) == 1  # same base address everywhere


def test_symheap_retry_on_collision(monkeypatch):
    """Force the first two proposals to collide with existing mappings."""
    from repro.rma import runtime as rma_runtime

    taken = []
    proposed = []

    def propose(rng, size):
        proposed.append(propose_address(rng, size))
        attempt = len(proposed) - 1
        return taken[attempt] if attempt < 2 else proposed[-1]

    monkeypatch.setattr(rma_runtime, "propose_address", propose)

    def program(ctx):
        # Pre-occupy two ranges on rank 2 so MAP_FIXED fails there.
        if ctx.rank == 2 and not taken:
            for _ in range(2):
                seg = ctx.space.alloc(1 << 16)
                taken.append(seg.vaddr)
        yield from ctx.coll.barrier()
        win = yield from ctx.rma.win_allocate(4096)
        return win.seg.vaddr

    res = run_spmd(program, 4, machine=INTER)
    assert len(set(res.returns)) == 1
    assert res.returns[0] not in taken
    assert len(proposed) == 3  # two collisions, then success


def test_allocate_control_memory_constant_create_linear():
    """The paper's central memory claim: allocated windows need O(1)
    control state; traditional windows need Omega(p) descriptors."""
    sizes = {}
    for p in (4, 16):
        def program(ctx):
            wa = yield from ctx.rma.win_allocate(256)
            seg = ctx.space.alloc(256)
            wc = yield from ctx.rma.win_create(seg)
            return wa.control_words(), wc.control_words()

        res = run_spmd(program, p, machine=INTER)
        sizes[p] = res.returns[0]
    alloc4, create4 = sizes[4]
    alloc16, create16 = sizes[16]
    assert alloc4 == alloc16                      # O(1)
    assert create16 - create4 == 12               # Omega(p): +1 word/rank


def test_put_outside_epoch_raises():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        with pytest.raises(EpochError):
            yield from win.put(np.zeros(8, np.uint8), (ctx.rank + 1) % 2, 0)
        yield from ctx.coll.barrier()

    run_spmd(program, 2, machine=INTER)


def test_put_out_of_range_raises():
    from repro.errors import MemoryError_

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from win.fence()
        if ctx.rank == 0:
            with pytest.raises(MemoryError_):
                yield from win.put(np.zeros(128, np.uint8), 1, 0)
        yield from win.fence()

    run_spmd(program, 2, machine=INTER)


def test_freed_window_rejects_ops():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from win.free()
        with pytest.raises(WindowError):
            yield from win.fence()

    run_spmd(program, 2, machine=INTER)


def test_disp_unit_scales_offsets():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64 * 8, disp_unit=8)
        yield from win.fence()
        if ctx.rank == 0:
            vals = np.array([123], dtype=np.int64)
            yield from win.put(vals, 1, 5)  # element displacement 5
        yield from win.fence()
        return int(win.local_view(np.int64)[5])

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1] == 123


def test_rput_rget_requests():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        yield from win.lock_all()
        if ctx.rank == 0:
            req = yield from win.rput(np.full(16, 9, np.uint8), 1, 0)
            yield from req.wait()
            out = np.zeros(16, np.uint8)
            req = yield from win.rget(out, 1, 0)
            yield from req.wait()
            yield from win.unlock_all()
            return out.tolist()
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return None

    def program0(ctx):
        return (yield from program(ctx))

    # rank 1 must not exit before rank 0 reads; add a barrier on both sides
    def program_sync(ctx):
        win = yield from ctx.rma.win_allocate(256)
        yield from win.lock_all()
        out = None
        if ctx.rank == 0:
            req = yield from win.rput(np.full(16, 9, np.uint8), 1, 0)
            yield from req.wait()
            buf = np.zeros(16, np.uint8)
            req = yield from win.rget(buf, 1, 0)
            out = yield from req.wait()
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return None if out is None else out.tolist()

    res = run_spmd(program_sync, 2, machine=INTER)
    assert res.returns[0] == [9] * 16


def test_window_local_view_roundtrip():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(128)
        win.local_view(np.int64)[:4] = [1, 2, 3, 4]
        yield from win.fence()
        return win.local_view(np.int64)[:4].tolist()

    res = run_spmd(program, 2)
    assert res.returns[0] == [1, 2, 3, 4]


def test_flavor_tags():
    def program(ctx):
        wa = yield from ctx.rma.win_allocate(64)
        wd = yield from ctx.rma.win_create_dynamic()
        return wa.flavor, wd.flavor

    res = run_spmd(program, 2)
    assert res.returns[0] == (WinFlavor.ALLOCATE, WinFlavor.DYNAMIC)
