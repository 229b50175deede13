"""The put data path: what lands at the target, and when it is read.

``Window.put`` reads its origin once, at issue, as the C-order bytes
``np.ascontiguousarray(np.asarray(data)).view(np.uint8)`` would give, and
every path below it (DMAPP, XPMEM, a datatype split, a dynamic window)
lands exactly those bytes.  A write to the origin buffer after ``put``
returns changes nothing at the target, as for accumulate
(``test_accumulate_captures_the_origin_buffer_at_issue``).  The target
range is checked once, at issue, against the window's own segment.
"""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig
from repro.errors import MemoryError_
from repro.rma.datatypes import BYTE, Vector
from repro.rma.enums import Op

#: Origin buffers of every kind ``Window.put`` takes.
ORIGINS = {
    "contiguous": lambda: np.arange(-3, 5, dtype=np.int64) * 0x0102030405,
    "strided": lambda: (np.arange(16, dtype=np.int64) * 0x1111111111)[::2],
    "zero_d": lambda: np.array(-0x123456789, np.int64),
    "list": lambda: [7, -1, 1 << 40, 3],
    "bytes": lambda: bytes(range(250, 218, -1)),
}

DISP = 16          # byte displacement of every put below


def _expected(kind: str) -> bytes:
    x = ORIGINS[kind]()
    return np.ascontiguousarray(np.asarray(x)).view(np.uint8).tobytes()


def _split(nbytes: int) -> Vector:
    """4-byte blocks every 8 bytes: one DMAPP op or store per block."""
    return Vector(nbytes // 4, 4, 8, BYTE)


def _landed(mem: np.ndarray, nbytes: int, split: bool) -> bytes:
    if not split:
        return mem[DISP:DISP + nbytes].tobytes()
    return b"".join(mem[DISP + 8 * i:DISP + 8 * i + 4].tobytes()
                    for i in range(nbytes // 4))


def _run_static(kind: str, rpn: int, split: bool) -> bytes:
    nbytes = len(_expected(kind))

    def program(ctx):
        win = yield from ctx.rma.win_allocate(512)
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            kw = {"target_datatype": _split(nbytes)} if split else {}
            yield from win.put(ORIGINS[kind](), 1, DISP, **kw)
            yield from win.flush(1)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return _landed(win.local_view(np.uint8), nbytes, split)

    res = run_spmd(program, 2, machine=MachineConfig(ranks_per_node=rpn))
    return res.returns[1]


def _run_dynamic(kind: str) -> bytes:
    nbytes = len(_expected(kind))

    def program(ctx):
        win = yield from ctx.rma.win_create_dynamic()
        seg = ctx.space.alloc(512, label="region")
        yield from win.attach(seg)
        vaddrs = yield from ctx.coll.allgather(seg.vaddr)
        yield from win.lock_all()
        if ctx.rank == 0:
            yield from win.put(ORIGINS[kind](), 1, vaddrs[1] + DISP)
            yield from win.flush(1)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return seg.read(DISP, nbytes).tobytes()

    res = run_spmd(program, 2, machine=MachineConfig(ranks_per_node=1))
    return res.returns[1]


PATHS = {
    "dmapp": lambda kind: _run_static(kind, 1, False),
    "xpmem": lambda kind: _run_static(kind, 2, False),
    "datatype": lambda kind: _run_static(kind, 1, True),
    "datatype_xpmem": lambda kind: _run_static(kind, 2, True),
    "dynamic": _run_dynamic,
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", ORIGINS)
def test_every_origin_kind_lands_its_c_order_bytes(kind, path):
    assert PATHS[path](kind) == _expected(kind)


@pytest.mark.parametrize("rpn", [1, 2], ids=["dmapp", "xpmem"])
def test_put_captures_the_origin_buffer_at_issue(rpn):
    """The origin buffer is read when the put is issued: writing to it
    before the flush changes nothing at the target -- for a whole put and
    for every block of a datatype-split one."""
    first = np.arange(1, 9, dtype=np.int64)

    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            buf = first.copy()
            yield from win.put(buf, 1, 0)
            buf[:] = -1
            split = first.copy()
            yield from win.put(split, 1, 128, target_datatype=_split(64))
            split[:] = -1
            yield from win.flush(1)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        mem = win.local_view(np.uint8)
        return (mem[:64].tobytes(),
                b"".join(mem[128 + 8 * i:132 + 8 * i].tobytes()
                         for i in range(16)))

    res = run_spmd(program, 2, machine=MachineConfig(ranks_per_node=rpn))
    whole, split = res.returns[1]
    assert whole == first.tobytes()
    assert split == first.tobytes()


#: One access of each kind past window ``a`` at ``disp``: every one that
#: writes would leave a 9 in the first word there.
PAST_END = {
    "put": lambda a, disp: a.put(np.full(8, 9, np.uint8), 1, disp),
    "get": lambda a, disp: a.get(np.empty(8, np.uint8), 1, disp),
    "cas": lambda a, disp: a.compare_and_swap(np.int64(0), np.int64(9), 1,
                                              disp),
    "fetch_and_op": lambda a, disp: a.fetch_and_op(np.int64(9), 1, disp,
                                                   Op.SUM),
    "accumulate": lambda a, disp: a.accumulate(np.full(1, 9, np.int64), 1,
                                               disp, Op.SUM),
    "get_accumulate": lambda a, disp: a.get_accumulate(
        np.full(1, 9, np.int64), 1, disp, Op.SUM),
}


@pytest.mark.parametrize("op", list(PAST_END))
def test_access_past_the_window_never_reaches_another_window(op):
    """A put, get or atomic past the end of one allocated window, at the
    displacement where the target's next window lies, is refused at issue
    by the bounds of the window's own segment; nothing lands in the other
    window."""

    def program(ctx):
        a = yield from ctx.rma.win_allocate(64)
        b = yield from ctx.rma.win_allocate(64)
        yield from a.lock_all()
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            disp = b.seg.vaddr - a.seg.vaddr
            with pytest.raises(MemoryError_):
                yield from PAST_END[op](a, disp)
            yield from a.flush(1)
        yield from ctx.coll.barrier()
        yield from a.unlock_all()
        return b.local_view()[:8].tolist()

    res = run_spmd(program, 2, machine=MachineConfig(ranks_per_node=1))
    assert res.returns[1] == [0] * 8
