"""Python calls per RMA operation: the simulator's instruction count.

The paper's software claim is a count -- foMPI adds 173 CPU instructions
to the critical path of a put and 78 to a flush (Section 3).  Here the
matching count is Python calls per operation: every function call and
every generator resume of the ``repro`` package, the kernel's included,
counted with ``sys.setprofile`` while rank 0 runs a loop of one operation
against an inter-node peer (or, for the -same-node rows, a node-mate).  The
ceilings are the counts of the flattened issue path (DESIGN.md section 8,
"Issue path"); a forwarding frame or a helper call put back on the path
fails here, not only in perfbench.

The same count bounds the MPI-1 serving store's idle tick: a client
pacing toward its next arrival with nothing queued costs one call per
400 ns tick, the kernel's resume of the program itself.
"""

import os
import sys

import numpy as np
import pytest

import repro
from repro.apps.kvstore.mpi1_kv import mpi1_kv_program
from repro.config import MachineConfig
from repro.rma.enums import Op
from repro.runtime.job import Job, run_on_world
from repro.serve.zipf import ServeSpec

_REPRO = os.path.dirname(repro.__file__)
_OPS = 64


def _put_flush(win):
    yield from win.put(np.full(1, 7, np.int64), 1, 0)
    yield from win.flush(1)


def _get_blocking(win):
    yield from win.get_blocking(1, 0, 8)


def _cas(win):
    yield from win.compare_and_swap(np.int64(0), np.int64(1), 1, 1)


def _fao(win):
    yield from win.fetch_and_op(np.int64(1), 1, 2, Op.SUM)


def _atomic_read(win):
    yield from win.get_accumulate(np.zeros(3, np.int64), 1, 0, Op.NO_OP)


def _acc(win):
    yield from win.accumulate(np.ones(1, np.int64), 1, 3, Op.SUM)


def _calls_per_op(op, ranks_per_node: int = 1) -> float:
    counted = []

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            yield from op(win)          # first use fills the memos
            calls = [0]

            def profile(frame, event, _arg):
                if event == "call" and \
                        frame.f_code.co_filename.startswith(_REPRO):
                    calls[0] += 1

            sys.setprofile(profile)
            try:
                for _ in range(_OPS):
                    yield from op(win)
            finally:
                sys.setprofile(None)
            counted.append(calls[0] / _OPS)
        else:
            yield from ctx.compute(1_000_000)   # idle through the loop
        yield from win.unlock_all()
        yield from ctx.coll.barrier()

    world = Job(nranks=2, machine=MachineConfig(
        ranks_per_node=ranks_per_node)).build_world()
    run_on_world(world, program)
    return counted[0]


@pytest.mark.parametrize("op, ranks_per_node, ceiling", [
    (_put_flush, 1, 22.0),  # 40 before the issue path was flattened, 31
                            # before the put data path captured once
    (_put_flush, 2, 15.0),  # XPMEM: 19 before the capture-once data path
    (_get_blocking, 1, 29.0),  # get + wait on its handle
    (_get_blocking, 2, 16.0),  # XPMEM load
    (_cas, 1, 25.0),        # 45
    (_cas, 2, 14.0),        # CPU atomic: 15 while ALLOCATE found the
                            # segment by address, not by the mapping
    (_fao, 1, 27.0),        # 47
    (_fao, 2, 16.0),        # CPU atomic: 17, likewise
    (_atomic_read, 1, 23.0),  # 36: three words, NO_OP
    (_acc, 1, 20.0),        # 30.8: one word, SUM (not every stream lands
                            # inside the measured loop)
], ids=["put+flush", "put+flush-same-node", "get_blocking",
        "get_blocking-same-node", "cas", "cas-same-node",
        "fetch_and_op", "fetch_and_op-same-node", "get_accumulate",
        "accumulate"])
def test_calls_per_op_stay_under_the_flattened_count(op, ranks_per_node,
                                                     ceiling):
    assert _calls_per_op(op, ranks_per_node) <= ceiling


def _calls_and_events(rate_hz: float) -> tuple[int, int]:
    """Python calls and events of a one-rank MPI-1 serving run: every
    request is local, so the unexpected queue stays empty throughout."""
    spec = ServeSpec(nkeys=8, total_requests=4, rate_hz=rate_hz, seed=3)
    world = Job(nranks=1).build_world()
    calls = [0]

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(_REPRO):
            calls[0] += 1

    sys.setprofile(profile)
    try:
        run_on_world(world, mpi1_kv_program, spec)
    finally:
        sys.setprofile(None)
    return calls[0], world.env.events_processed


def test_idle_tick_is_one_call():
    """Stretching the same schedule 4x adds only idle ticks (one event
    each); each added tick may add one call, its resume -- no probe."""
    _calls_and_events(4000.0)           # first use fills the memos
    calls, events = _calls_and_events(4000.0)
    calls_slow, events_slow = _calls_and_events(1000.0)
    ticks = events_slow - events
    assert ticks > 5000
    # 1.001 with the probe skipped (the watchdog checks every 800
    # events); 2.001 when every tick also called improbe.
    assert (calls_slow - calls) / ticks < 1.01
