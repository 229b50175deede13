"""XPMEM substrate unit tests."""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig
from repro.machine.params import XpmemParams

INTRA = MachineConfig(ranks_per_node=8)


def test_store_then_load_roundtrip():
    def prog(ctx):
        seg = ctx.space.alloc(64)
        token = ctx.xpmem.expose(seg)
        tokens = yield from ctx.coll.allgather(token)
        yield from ctx.coll.barrier()
        out = None
        if ctx.rank == 0:
            att = ctx.xpmem.attach(tokens[1])
            yield from ctx.xpmem.store(att, 4, np.arange(8, dtype=np.uint8))
            got = yield from ctx.xpmem.load(att, 4, 8)
            out = got.tolist()
        yield from ctx.coll.barrier()
        return out

    res = run_spmd(prog, 2, machine=INTRA)
    assert res.returns[0] == list(range(8))


def test_store_cheap_load_pays_latency():
    p = XpmemParams()

    def program(ctx):
        seg = ctx.space.alloc(64)
        token = ctx.xpmem.expose(seg)
        tokens = yield from ctx.coll.allgather(token)
        yield from ctx.coll.barrier()
        out = None
        if ctx.rank == 0:
            att = ctx.xpmem.attach(tokens[1])
            t0 = ctx.now
            yield from ctx.xpmem.store(att, 0, np.zeros(8, np.uint8))
            t_store = ctx.now - t0
            t0 = ctx.now
            yield from ctx.xpmem.load(att, 0, 8)
            t_load = ctx.now - t0
            out = (t_store, t_load)
        yield from ctx.coll.barrier()
        return out

    t_store, t_load = run_spmd(program, 2, machine=INTRA).returns[0]
    assert t_store < p.latency / 2     # write-behind
    assert t_load >= p.latency         # cache-miss chain


def test_copy_bandwidth():
    n = 256 * 1024
    p = XpmemParams()

    def program(ctx):
        seg = ctx.space.alloc(n)
        token = ctx.xpmem.expose(seg)
        tokens = yield from ctx.coll.allgather(token)
        yield from ctx.coll.barrier()
        out = None
        if ctx.rank == 0:
            att = ctx.xpmem.attach(tokens[1])
            t0 = ctx.now
            yield from ctx.xpmem.store(att, 0, np.zeros(n, np.uint8))
            out = ctx.now - t0
        yield from ctx.coll.barrier()
        return out

    t = run_spmd(program, 2, machine=INTRA).returns[0]
    expected = n * p.copy_per_byte
    assert abs(t - expected) < 0.1 * expected  # ~40 us for 256 KiB


def test_cpu_amo_on_shared_cells():
    from repro.mem import control_words
    from repro.runtime.job import Job, run_on_world

    job = Job(nranks=4, machine=INTRA)
    world = job.build_world()
    cells = control_words(world.env, 2, name="shared")
    applied = []    # on_applied: the old value, with each effect

    def program(ctx):
        old = yield from ctx.xpmem.amo(cells, 0, "add", 1,
                                       on_applied=applied.append)
        yield from ctx.coll.barrier()
        return int(old)

    res = run_on_world(world, program)
    assert sorted(res.returns) == applied == [0, 1, 2, 3]
    assert cells.load(0) == 4


def test_amo_stream_fetch():
    from repro.mem import control_words
    from repro.runtime.job import Job, run_on_world

    job = Job(nranks=1, machine=INTRA)
    world = job.build_world()
    cells = control_words(world.env, 4)

    def program(ctx):
        old = yield from ctx.xpmem.amo_stream(cells, 0, "add",
                                              [1, 2, 3, 4], fetch=True)
        return old.tolist()

    res = run_on_world(world, program)
    assert res.returns[0] == [0, 0, 0, 0]
    assert cells.snapshot() == [1, 2, 3, 4]
