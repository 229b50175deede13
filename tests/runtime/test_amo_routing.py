"""Every single-word and chained atomic takes the CPU path to a word on
this node and the NIC path to a word off it.

Each entry point runs from rank 1 against rank 0 of a 2-rank world, once
with both ranks on one node (rpn 2) and once on two nodes (rpn 1); rank 0
idles meanwhile, so every atomic counted is rank 1's.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import run_spmd
from repro.config import FTConfig, MachineConfig
from repro.rma.enums import LockType, Op
from repro.rma.mcs import McsLock


def _fetch_and_op(ctx, s):
    yield from s.win.lock_all()
    yield from s.win.fetch_and_op(np.int64(1), 0, 0, Op.SUM)
    yield from s.win.unlock_all()


def _compare_and_swap(ctx, s):
    yield from s.win.lock_all()
    yield from s.win.compare_and_swap(np.int64(0), np.int64(1), 0, 0)
    yield from s.win.unlock_all()


def _exclusive_lock(ctx, s):
    yield from s.win.lock(0, LockType.EXCLUSIVE)
    yield from s.win.unlock(0)


def _mcs(ctx, s):
    yield from s.mcs.acquire()
    yield from s.mcs.release()


def _dynamic_id_read(ctx, s):
    yield from s.dyn.dyn.resolve(s.dyn, 0, s.vaddr, 8)


def _pscw_post(ctx, s):
    yield from s.win.post([0])


def _aadd_nb(ctx, s):
    yield from ctx.upc.aadd_nb(s.upc, 0, 0, 1)


# entry point -> the atomics it issues, by op
ENTRIES = {
    "fetch_and_op": (_fetch_and_op, {"add": 3}),
    "compare_and_swap": (_compare_and_swap, {"add": 2, "cas": 1}),
    "exclusive_lock": (_exclusive_lock, {"add": 3, "cas": 1}),
    "mcs": (_mcs, {"cas": 1, "replace": 1}),
    "dynamic_id_read": (_dynamic_id_read, {"add": 1}),
    "aadd_nb": (_aadd_nb, {"add": 1}),
}


def _amo_kinds(entry, rpn: int) -> dict:
    """The AMO kinds rank 1's ``entry`` adds to the world's counters."""

    def program(ctx):
        s = SimpleNamespace()
        s.win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        s.mcs = McsLock(s.win)
        s.upc = yield from ctx.upc.all_alloc(64)
        s.dyn = yield from ctx.rma.win_create_dynamic()
        seg = ctx.space.alloc(64)
        yield from s.dyn.attach(seg)
        s.vaddr = (yield from ctx.coll.allgather(seg.vaddr))[0]
        yield from ctx.coll.barrier()
        added = None
        if ctx.rank == 1:
            by_kind = ctx.world.counters.by_kind
            before = dict(by_kind)
            yield from entry(ctx, s)
            added = {k: n - before.get(k, 0) for k, n in by_kind.items()
                     if "amo" in k and n != before.get(k, 0)}
        else:
            yield from ctx.compute(1_000_000)
        yield from ctx.coll.barrier()
        if entry is _pscw_post:     # close the epoch the post opened
            if ctx.rank == 0:
                yield from s.win.start([1])
                yield from s.win.complete()
            else:
                yield from s.win.wait()
        return added

    machine = MachineConfig(ranks_per_node=rpn)
    return run_spmd(program, 2, machine=machine).returns[1]


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_atomic_takes_cpu_on_node_and_nic_off_node(name):
    entry, ops = ENTRIES[name]
    assert _amo_kinds(entry, 2) == {f"cpu-amo:{op}": n
                                    for op, n in ops.items()}
    assert _amo_kinds(entry, 1) == {f"amo:{op}": n for op, n in ops.items()}


def test_pscw_post_appends_uncounted_on_node_and_by_one_nic_op_off_it():
    assert _amo_kinds(_pscw_post, 2) == {}
    assert _amo_kinds(_pscw_post, 1) == {"amo:custom": 1}


def test_ft_logs_only_atomics_the_nic_applies():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        ctx.ft.protect(ctx.rank, win)
        yield from ctx.coll.barrier()
        cells = win.seg.cells64()
        return [(ctx.same_node(r), ctx.ft.amo_logger(win, r, cells, 0))
                for r in range(ctx.nranks) if r != ctx.rank]

    res = run_spmd(program, 4, machine=MachineConfig(ranks_per_node=2),
                   ft=FTConfig())
    loggers = dict(res.returns[0])
    assert loggers[True] is None
    assert callable(loggers[False])
