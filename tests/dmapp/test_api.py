"""DMAPP endpoint semantics: completion ordering, handles, gsync.

The transport tests run on both fabrics: no injector (the inline single
transmission) and an injector with an empty plan (the retransmit loop,
which then never retransmits).
"""

import inspect

import numpy as np
import pytest

from repro import run_spmd
from repro.config import FaultPlan, MachineConfig
from repro.dmapp.amo import AMO_OPS, amo_supported
from repro.dmapp.api import DmappEndpoint
from repro.errors import SimulationError, WindowError
from repro.rma.cray22 import win_allocate_cray22

INTER = MachineConfig(ranks_per_node=1)


@pytest.fixture(params=[None, FaultPlan()],
                ids=["clean-fabric", "empty-fault-plan"])
def faults(request):
    return request.param


def _with_window(body):
    """Boilerplate: register a 256-B segment on every rank."""
    def program(ctx):
        seg = ctx.space.alloc(256, label="buf")
        desc = ctx.reg.register(seg)
        descs = yield from ctx.coll.allgather(desc)
        yield from ctx.coll.barrier()
        out = yield from body(ctx, seg, descs)
        yield from ctx.coll.barrier()
        return out

    return program


def test_amo_supported_predicate():
    assert amo_supported("add", 8)
    assert amo_supported("cas", 8)
    assert not amo_supported("add", 4)   # 8-byte only
    assert not amo_supported("min", 8)   # not in the NIC set
    assert "min" not in AMO_OPS


def test_layer_boundaries_are_generator_functions():
    """perfbench's span wrappers patch these names on the class and
    refuse anything that is not a generator function."""
    for name in ("put_nbi", "get_nbi", "amo_nbi", "amo_custom_nbi",
                 "amo_stream_nbi", "wait", "wait_local", "gsync"):
        assert inspect.isgeneratorfunction(
            inspect.getattr_static(DmappEndpoint, name)), name


def _boundary_calls(machine, expected, measured):
    """Run ``measured(win)`` on rank 0 against rank 1 with every boundary
    in ``expected`` wrapped on its class by a call counter; returns the
    counts of the measured phase."""
    from repro.runtime.job import Job, run_on_world

    calls = dict.fromkeys(expected, 0)

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            for key in calls:       # count the measured phase only
                calls[key] = 0
            yield from measured(win)
            counted = dict(calls)
        else:
            # Idle through it, so every packet counted is rank 0's.
            yield from ctx.compute(1_000_000)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return counted if ctx.rank == 0 else None

    def counting(key, orig):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return orig(*args, **kwargs)
        return wrapper

    world = Job(nranks=2, machine=machine).build_world()
    originals = [(owner, attr, inspect.getattr_static(owner, attr))
                 for owner, attr in expected]
    try:
        for owner, attr, orig in originals:
            setattr(owner, attr, counting((owner, attr), orig))
        return run_on_world(world, program).returns[0]
    finally:
        for owner, attr, orig in originals:
            setattr(owner, attr, orig)


def _accumulates(win):
    """8 three-word atomic reads and 8 one-word accumulates."""
    from repro.rma.enums import Op

    for _ in range(8):
        yield from win.get_accumulate(np.zeros(3, np.int64), 1, 0, Op.NO_OP)
    for _ in range(8):
        yield from win.accumulate(np.ones(1, np.int64), 1, 3, Op.SUM)


def test_layer_boundaries_are_called_once_per_op():
    """perfbench patches the boundaries on the *class*, after the world is
    built: an op must reach each of them through the class, exactly once
    -- no bound method cached at construction, no inlined ``gsync`` or
    ``wait``, no boundary skipped by a flattened path."""
    from repro.machine.network import Network
    from repro.rma.enums import Op
    from repro.rma.window import Window

    # 8 each of put + flush, CAS, fetch-and-op, get + flush, atomic read
    # and accumulate (one AMO stream each; only the read waits on it).
    expected = {(Window, "put"): 8, (Window, "flush"): 16,
                (Window, "compare_and_swap"): 8, (Window, "fetch_and_op"): 8,
                (Window, "get"): 8,
                (Window, "get_accumulate"): 8, (Window, "accumulate"): 8,
                (DmappEndpoint, "put_nbi"): 8, (DmappEndpoint, "gsync"): 16,
                (DmappEndpoint, "amo_nbi"): 16,
                (DmappEndpoint, "amo_stream_nbi"): 16,
                (DmappEndpoint, "get_nbi"): 8,
                (DmappEndpoint, "wait"): 24,
                (Network, "packet"): 32}

    def measured(win):
        for i in range(8):
            yield from win.put(np.full(1, i, np.int64), 1, 0)
            yield from win.flush(1)
        for i in range(8):
            yield from win.compare_and_swap(np.int64(i), np.int64(i + 1),
                                            1, 1)
        for _ in range(8):
            yield from win.fetch_and_op(np.int64(1), 1, 2, Op.SUM)
        out = np.empty(1, np.int64)
        for _ in range(8):
            yield from win.get(out, 1, 0)
            yield from win.flush(1)
        yield from _accumulates(win)

    assert _boundary_calls(INTER, expected, measured) == expected


def test_accumulate_boundaries_are_called_once_per_op_intra_node():
    """The same rule on the CPU path: a same-node accumulate reaches
    ``XpmemEndpoint.amo_stream`` once and no DMAPP boundary."""
    from repro.rma.window import Window
    from repro.xpmem.api import XpmemEndpoint

    expected = {(Window, "get_accumulate"): 8, (Window, "accumulate"): 8,
                (XpmemEndpoint, "amo_stream"): 16,
                (DmappEndpoint, "amo_stream_nbi"): 0,
                (DmappEndpoint, "wait"): 0}
    got = _boundary_calls(MachineConfig(ranks_per_node=2), expected,
                          _accumulates)
    assert got == expected


def test_put_data_captured_at_issue(faults):
    def body(ctx, seg, descs):
        if ctx.rank == 0:
            buf = np.full(8, 1, np.uint8)
            yield from ctx.dmapp.put_nbi(descs[1], 0, buf)
            buf[:] = 77  # mutate after issue
            yield from ctx.dmapp.gsync()
        yield from ctx.coll.barrier()
        return seg.read(0, 8).tolist()

    res = run_spmd(_with_window(body), 2, machine=INTER, faults=faults)
    assert res.returns[1] == [1] * 8


def test_gsync_guarantees_visibility(faults):
    def body(ctx, seg, descs):
        if ctx.rank == 0:
            yield from ctx.dmapp.put_nbi(descs[1], 0, np.full(8, 9, np.uint8))
            yield from ctx.dmapp.gsync()
            # after gsync the remote memory is committed
            return ctx.world.spaces[1].segments[
                descs[1].seg_id].read(0, 8).tolist()
        yield from ctx.compute(1)
        return None

    res = run_spmd(_with_window(body), 2, machine=INTER, faults=faults)
    assert res.returns[0] == [9] * 8


def test_put_not_visible_before_delivery(faults):
    def body(ctx, seg, descs):
        if ctx.rank == 0:
            yield from ctx.dmapp.put_nbi(descs[1], 0, np.full(8, 5, np.uint8))
            # immediately after issue the data is still in flight
            early = ctx.world.spaces[1].segments[
                descs[1].seg_id].read(0, 1)[0]
            yield from ctx.dmapp.gsync()
            late = ctx.world.spaces[1].segments[
                descs[1].seg_id].read(0, 1)[0]
            return int(early), int(late)
        yield from ctx.compute(1)
        return None

    res = run_spmd(_with_window(body), 2, machine=INTER, faults=faults)
    assert res.returns[0] == (0, 5)


def test_explicit_handle_wait(faults):
    def body(ctx, seg, descs):
        if ctx.rank == 0:
            h = yield from ctx.dmapp.put_nbi(descs[1], 4, np.full(4, 3, np.uint8))
            assert h.remote_complete > ctx.now  # still in flight
            yield from ctx.dmapp.wait(h)
            assert ctx.now >= h.remote_complete
            yield from ctx.dmapp.wait_local(h)  # no-op after remote
        yield from ctx.coll.barrier()
        return seg.read(4, 4).tolist()

    res = run_spmd(_with_window(body), 2, machine=INTER, faults=faults)
    assert res.returns[1] == [3] * 4


def test_get_out_buffer_size_checked(faults):
    def body(ctx, seg, descs):
        if ctx.rank == 0:
            out = np.zeros(4, np.uint8)
            with pytest.raises(SimulationError):
                yield from ctx.dmapp.get_nbi(descs[1], 0, 8, out=out)
        yield from ctx.compute(1)
        return None

    run_spmd(_with_window(body), 2, machine=INTER, faults=faults)


# Every get that lands in a caller's buffer, as (collective set-up ->
# (target-side segment, issue(buf), complete()), error it raises).
def _window_get(ctx, rget=False):
    win = yield from ctx.rma.win_allocate(64)
    yield from win.lock_all()
    issue = win.rget if rget else win.get
    return win.seg, lambda buf: issue(buf, 1, 0), lambda: win.flush(1)


def _endpoint_get(ctx):
    seg = ctx.space.alloc(64)
    descs = yield from ctx.coll.allgather(ctx.reg.register(seg), nbytes=32)
    return (seg, lambda buf: ctx.dmapp.get_nbi(descs[1], 0, 8, out=buf),
            ctx.dmapp.gsync)


def _cray22_get(ctx):
    win = yield from win_allocate_cray22(ctx, 64)
    return win.seg, lambda buf: win.get(buf, 1, 0), lambda: win.flush(1)


def _upc_get(ctx):
    arr = yield from ctx.upc.all_alloc(64)
    return (arr.seg, lambda buf: ctx.upc.memget_nb(arr, 1, 0, 8, buf),
            ctx.upc.fence)


GETS = {
    "window": (_window_get, WindowError),
    "window-rget": (lambda ctx: _window_get(ctx, rget=True), WindowError),
    "endpoint": (_endpoint_get, SimulationError),
    "cray22": (_cray22_get, WindowError),
    "upc": (_upc_get, SimulationError),
}
STRIDED = {
    "1d-strided": lambda: np.zeros(16, np.uint8)[::2],
    "2d-column": lambda: np.zeros((4, 4), np.uint8)[:, :2],
}


@pytest.mark.parametrize("rpn", [1, 2])
@pytest.mark.parametrize("layout", sorted(STRIDED))
@pytest.mark.parametrize("entry", sorted(GETS))
def test_get_refuses_a_strided_out_buffer_at_issue(entry, layout, rpn):
    """A non-contiguous ``out``'s flat byte view is a copy, so a get into
    it used to return normally and land nothing.  Every get taking a
    caller's buffer now refuses it before charging any time; a contiguous
    get after the refusal lands all 8 bytes."""
    setup, error = GETS[entry]

    def program(ctx):
        seg, issue, complete = yield from setup(ctx)
        seg.typed(np.uint8)[:] = 11
        yield from ctx.coll.barrier()
        refused = landed = None
        if ctx.rank == 0:
            t0 = ctx.now
            try:
                yield from issue(STRIDED[layout]())
            except (WindowError, SimulationError) as exc:
                refused = (type(exc), "origin_datatype" in str(exc),
                           ctx.now - t0)
            buf = np.zeros(8, np.uint8)
            yield from issue(buf)
            yield from complete()
            landed = buf.tolist()
        yield from ctx.coll.barrier()
        return refused, landed

    res = run_spmd(program, 2, machine=MachineConfig(ranks_per_node=rpn))
    assert res.returns[0] == ((error, True, 0), [11] * 8)


def test_large_put_chunked(faults):
    from repro.machine.params import GeminiParams

    n = 3 * (1 << 20) + 5  # > 3 chunks at max_chunk = 1 MiB

    def program(ctx):
        seg = ctx.space.alloc(n)
        desc = ctx.reg.register(seg)
        descs = yield from ctx.coll.allgather(desc, nbytes=32)
        yield from ctx.coll.barrier()
        drain = None
        if ctx.rank == 0:
            data = (np.arange(n) % 251).astype(np.uint8)
            issued = ctx.now
            h = yield from ctx.dmapp.put_nbi(descs[1], 0, data)
            drain = h.local_complete - issued
            assert h.local_complete <= h.remote_complete
            yield from ctx.dmapp.gsync()
        yield from ctx.coll.barrier()
        return int(seg.typed(np.uint8).sum()) if ctx.rank == 1 else drain

    res = run_spmd(program, 2, machine=INTER, faults=faults)
    expected = int(((np.arange(n) % 251).astype(np.uint64)).sum())
    assert res.returns[1] == expected
    # The origin buffer is reusable once *every* chunk has drained: the
    # 5-byte tail leaves on the FMA path long before the bulk chunks.
    assert res.returns[0] >= 3 * int((1 << 20) * GeminiParams().gap_per_byte)


def test_amo_stream_empty_rejected(faults):
    from repro.mem import control_words
    from repro.runtime.job import Job, run_on_world

    job = Job(nranks=2, machine=INTER, faults=faults)
    world = job.build_world()
    cells = control_words(world.env, 4)

    def program(ctx):
        if ctx.rank == 0:
            with pytest.raises(SimulationError):
                yield from ctx.dmapp.amo_stream_nbi(1, cells, 0, "add", [])
        yield from ctx.coll.barrier()

    run_on_world(world, program)


def test_completion_horizon_monotone(faults):
    def body(ctx, seg, descs):
        if ctx.rank == 0:
            h1 = yield from ctx.dmapp.put_nbi(descs[1], 0,
                                              np.zeros(8, np.uint8))
            hz1 = ctx.dmapp.completion_horizon
            yield from ctx.dmapp.put_nbi(descs[1], 0, np.zeros(8, np.uint8))
            hz2 = ctx.dmapp.completion_horizon
            assert hz2 >= hz1 >= h1.local_complete
            yield from ctx.dmapp.gsync()
            assert ctx.now >= hz2
        yield from ctx.compute(1)
        return None

    run_spmd(_with_window(body), 2, machine=INTER, faults=faults)
