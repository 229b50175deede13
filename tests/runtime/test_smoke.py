"""End-to-end smoke tests for the runtime stack (pre-RMA layers)."""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig


def test_hello_world_returns():
    def program(ctx):
        yield from ctx.compute(10)
        return ctx.rank * 2

    res = run_spmd(program, 4)
    assert res.returns == [0, 2, 4, 6]
    assert res.sim_time_ns >= 10


def test_context_docstring_example_runs():
    """The rank program in repro.runtime.process's docstring runs."""
    import textwrap

    from repro.rma.enums import LockType
    from repro.runtime import process

    example = process.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
    scope = {"LockType": LockType, "data": np.arange(64, dtype=np.uint8)}
    exec(textwrap.dedent(example), scope)
    res = run_spmd(scope["program"], 2)
    assert all(isinstance(t, int) and t > 0 for t in res.returns)


def test_pingpong_inter_node():
    cfg = MachineConfig(ranks_per_node=1)

    def program(ctx):
        data = np.arange(8, dtype=np.uint8)
        if ctx.rank == 0:
            yield from ctx.mpi.send(1, data)
            got = yield from ctx.mpi.recv(1)
            return got.tolist()
        got = yield from ctx.mpi.recv(0)
        yield from ctx.mpi.send(0, got * 2)
        return None

    res = run_spmd(program, 2, machine=cfg)
    assert res.returns[0] == [0, 2, 4, 6, 8, 10, 12, 14]
    # half round trip should be ~1.3 us
    half = res.sim_time_ns / 2
    assert 900 < half < 2000, half


def test_rendezvous_large_message():
    cfg = MachineConfig(ranks_per_node=1)
    n = 64 * 1024

    def program(ctx):
        if ctx.rank == 0:
            data = np.full(n, 7, dtype=np.uint8)
            yield from ctx.mpi.send(1, data)
            return None
        got = yield from ctx.mpi.recv(0)
        return int(got.sum())

    res = run_spmd(program, 2, machine=cfg)
    assert res.returns[1] == 7 * n


@pytest.mark.parametrize("p", [2, 3, 4, 7, 8, 16])
def test_barrier_completes(p):
    def program(ctx):
        yield from ctx.coll.barrier()
        return ctx.now

    res = run_spmd(program, p)
    assert len(res.returns) == p


@pytest.mark.parametrize("p", [1, 2, 5, 8])
def test_bcast(p):
    def program(ctx):
        val = f"hello-{ctx.rank}" if ctx.rank == 0 else None
        got = yield from ctx.coll.bcast(val, root=0)
        return got

    res = run_spmd(program, p)
    assert res.returns == ["hello-0"] * p


@pytest.mark.parametrize("p", [2, 3, 4, 6, 8, 16])
def test_allreduce_sum(p):
    def program(ctx):
        got = yield from ctx.coll.allreduce(ctx.rank + 1)
        return got

    res = run_spmd(program, p)
    expected = p * (p + 1) // 2
    assert res.returns == [expected] * p


@pytest.mark.parametrize("p", [2, 4, 5, 8])
def test_allgather(p):
    def program(ctx):
        got = yield from ctx.coll.allgather(ctx.rank ** 2)
        return got

    res = run_spmd(program, p)
    for r in res.returns:
        assert r == [i ** 2 for i in range(p)]


@pytest.mark.parametrize("p", [2, 4, 8])
def test_reduce_scatter_block(p):
    def program(ctx):
        vec = np.arange(p, dtype=np.int64) + ctx.rank
        got = yield from ctx.coll.reduce_scatter_block(vec)
        return int(got)

    res = run_spmd(program, p)
    base = p * (p - 1) // 2
    assert res.returns == [base + i * p for i in range(p)]


@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_alltoall(p):
    def program(ctx):
        out = [ctx.rank * 100 + d for d in range(p)]
        got = yield from ctx.coll.alltoall(out)
        return got

    res = run_spmd(program, p)
    for r, got in enumerate(res.returns):
        assert got == [s * 100 + r for s in range(p)]


def test_ibarrier_nonblocking():
    def program(ctx):
        ib = ctx.coll.ibarrier()
        # do some local work while the barrier progresses
        yield from ctx.compute(50)
        yield from ib.wait()
        return True

    res = run_spmd(program, 8)
    assert all(res.returns)


def test_dmapp_put_get_roundtrip():
    cfg = MachineConfig(ranks_per_node=1)

    def program(ctx):
        seg = ctx.space.alloc(64, label="buf")
        desc = ctx.reg.register(seg)
        descs = yield from ctx.coll.allgather(desc)
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            data = np.arange(16, dtype=np.uint8) + 100
            h = yield from ctx.dmapp.put_nbi(descs[1], 0, data)
            yield from ctx.dmapp.gsync()
        yield from ctx.coll.barrier()
        if ctx.rank == 1:
            return seg.read(0, 16).tolist()
        got = yield from ctx.dmapp.get_b(descs[1], 0, 16)
        return got.tolist()

    res = run_spmd(program, 2, machine=cfg)
    expected = list(range(100, 116))
    assert res.returns[0] == expected
    assert res.returns[1] == expected


def test_dmapp_amo_fadd_and_cas():
    from repro.mem import control_words

    cfg = MachineConfig(ranks_per_node=1)

    def program(ctx, cells):
        if ctx.rank == 0:
            old = yield from ctx.amo(1, cells, 0, "add", 5)
            assert old == 0
            old = yield from ctx.amo(1, cells, 0, "cas", 5, 99)
            assert old == 5
            return cells.load(0)
        yield from ctx.compute(1)
        return None

    from repro.runtime.job import Job, run_on_world

    job = Job(nranks=2, machine=cfg)
    world = job.build_world()
    cells = control_words(world.env, 4, name="test")
    res = run_on_world(world, program, cells)
    assert res.returns[0] == 99


def test_xpmem_store_load_same_node():
    def program(ctx):
        seg = ctx.space.alloc(32)
        token = ctx.xpmem.expose(seg)
        tokens = yield from ctx.coll.allgather(token)
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            yield from ctx.xpmem.store(ctx.xpmem.attach(tokens[1]), 0,
                                       np.full(8, 42, np.uint8))
        yield from ctx.coll.barrier()
        return int(seg.read(0, 1)[0])

    res = run_spmd(program, 2)  # default 32 ranks/node: same node
    assert res.returns[1] == 42


def test_determinism_same_seed():
    def program(ctx):
        for i in range(3):
            yield from ctx.coll.barrier()
        got = yield from ctx.coll.allreduce(ctx.rank)
        return (got, ctx.now)

    r1 = run_spmd(program, 8)
    r2 = run_spmd(program, 8)
    assert r1.returns == r2.returns
    assert r1.sim_time_ns == r2.sim_time_ns
    assert r1.events_processed == r2.events_processed
