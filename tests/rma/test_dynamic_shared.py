"""Dynamic windows (attach/detach + descriptor cache) and shared windows."""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig
from repro.errors import RegistrationError, WindowError

INTER = MachineConfig(ranks_per_node=1)
INTRA = MachineConfig(ranks_per_node=64)


def test_dynamic_attach_put_get():
    def program(ctx):
        win = yield from ctx.rma.win_create_dynamic()
        seg = ctx.space.alloc(256, label="region")
        yield from win.attach(seg)
        vaddrs = yield from ctx.coll.allgather(seg.vaddr)
        yield from win.lock_all()
        if ctx.rank == 0:
            yield from win.put(np.full(8, 77, np.uint8), 1, vaddrs[1])
            yield from win.flush(1)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return int(seg.read(0, 1)[0])

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1] == 77


def test_dynamic_cache_hit_after_first_access():
    def program(ctx):
        win = yield from ctx.rma.win_create_dynamic()
        seg = ctx.space.alloc(256)
        yield from win.attach(seg)
        vaddrs = yield from ctx.coll.allgather(seg.vaddr)
        yield from win.lock_all()
        if ctx.rank == 0:
            for i in range(5):
                yield from win.put(np.full(8, i, np.uint8), 1, vaddrs[1])
            yield from win.flush(1)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return (win.dyn.cache_misses, win.dyn.cache_hits)

    res = run_spmd(program, 2, machine=INTER)
    misses, hits = res.returns[0]
    assert misses == 1 and hits == 4


def test_dynamic_detach_invalidates_remote_cache():
    def program(ctx):
        win = yield from ctx.rma.win_create_dynamic()
        seg = ctx.space.alloc(256)
        desc = yield from win.attach(seg)
        vaddrs = yield from ctx.coll.allgather(seg.vaddr)
        yield from win.lock_all()
        if ctx.rank == 0:
            yield from win.put(np.full(8, 1, np.uint8), 1, vaddrs[1])
            yield from win.flush(1)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        # Target detaches and re-attaches a new region at a new address.
        new_vaddr = None
        if ctx.rank == 1:
            yield from win.detach(desc)
            seg2 = ctx.space.alloc(256)
            yield from win.attach(seg2)
            new_vaddr = seg2.vaddr
        new_vaddrs = yield from ctx.coll.allgather(new_vaddr)
        yield from ctx.coll.barrier()
        yield from win.lock_all()
        ok = None
        if ctx.rank == 0:
            # Old address must now fail; new address must work after the
            # id-counter check forces a cache refresh.
            try:
                yield from win.put(np.full(8, 2, np.uint8), 1, vaddrs[1])
                ok = False
            except WindowError:
                ok = True
            yield from win.put(np.full(8, 3, np.uint8), 1, new_vaddrs[1])
            yield from win.flush(1)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return ok, win.dyn.cache_misses if ctx.rank == 0 else None

    res = run_spmd(program, 2, machine=INTER)
    ok, misses = res.returns[0]
    assert ok is True
    assert misses >= 2  # initial load + refresh after detach


def test_dynamic_detach_unknown_region_raises():
    def program(ctx):
        win = yield from ctx.rma.win_create_dynamic()
        seg = ctx.space.alloc(64)
        desc = yield from win.attach(seg)
        yield from win.detach(desc)
        with pytest.raises(WindowError):
            yield from win.detach(desc)
        yield from ctx.coll.barrier()

    run_spmd(program, 2, machine=INTER)


def test_dynamic_access_unattached_raises():
    def program(ctx):
        win = yield from ctx.rma.win_create_dynamic()
        yield from win.lock_all()
        if ctx.rank == 0:
            with pytest.raises(WindowError):
                yield from win.put(np.zeros(8, np.uint8), 1, 0x3000_0000_0000)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()

    run_spmd(program, 2, machine=INTER)


@pytest.mark.parametrize("machine", [INTER, INTRA], ids=["dmapp", "xpmem"])
def test_dynamic_cas_raises_at_issue(machine):
    """A dynamic window has a descriptor per attached region, not one word
    address per target: its CAS is refused at issue, on or off the node."""
    def program(ctx):
        win = yield from ctx.rma.win_create_dynamic()
        seg = ctx.space.alloc(64)
        yield from win.attach(seg)
        yield from win.lock_all()
        if ctx.rank == 0:
            with pytest.raises(WindowError, match="direct addressing"):
                yield from win.compare_and_swap(np.int64(0), np.int64(1), 1,
                                                seg.vaddr)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()

    run_spmd(program, 2, machine=machine)


def test_shared_window_direct_access():
    def program(ctx):
        win = yield from ctx.rma.win_allocate_shared(64)
        win.local_view(np.int64)[0] = ctx.rank + 1
        yield from win.fence()
        out = np.zeros(1, np.int64)
        yield from win.get(out, (ctx.rank + 1) % ctx.nranks, 0)
        yield from win.fence()
        return int(out[0])

    res = run_spmd(program, 4, machine=INTRA)
    assert res.returns == [2, 3, 4, 1]


def test_shared_window_query_offsets():
    def program(ctx):
        win = yield from ctx.rma.win_allocate_shared(128)
        seg, off = win.shared_query(ctx.nranks - 1)
        return off

    res = run_spmd(program, 4, machine=INTRA)
    assert res.returns[0] == 3 * 128


def test_shared_window_rejects_multi_node():
    def program(ctx):
        with pytest.raises(WindowError):
            yield from ctx.rma.win_allocate_shared(64)
        yield from ctx.coll.barrier()

    run_spmd(program, 2, machine=INTER)


def test_xpmem_attach_rejects_off_node():
    def program(ctx):
        seg = ctx.space.alloc(64)
        token = ctx.xpmem.expose(seg)
        tokens = yield from ctx.coll.allgather(token)
        if ctx.rank == 0:
            with pytest.raises(RegistrationError):
                ctx.xpmem.attach(tokens[1])
        yield from ctx.coll.barrier()

    run_spmd(program, 2, machine=INTER)
