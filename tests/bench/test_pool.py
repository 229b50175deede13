"""Parallel fan-out vs serial: bit-identical results (ISSUE acceptance).

Every comparison here is exact equality -- the pool must return the very
floats/ints the serial loop produces, for clean figure points and for a
fault-injected run alike.
"""

from repro.bench import microbench as mb
from repro.bench import syncbench as sb
from repro.bench.pool import (BenchPoint, default_workers, last_run_stats,
                              run_points)
from repro.config import FaultPlan, MachineConfig
from repro.runtime.job import run_spmd

INTER = MachineConfig(ranks_per_node=1)


def _faulty_ping(ctx):
    import numpy as np
    win = yield from ctx.rma.win_allocate(64)
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    if ctx.rank == 0:
        data = np.ones(16, np.uint8)
        for _ in range(4):
            yield from win.put(data, 1, 0)
            yield from win.flush(1)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    return ctx.now


def _faulty_result(drop_prob):
    """A fault-injected run: drops + deterministic retries (picklable)."""
    res = run_spmd(_faulty_ping, 2, machine=INTER,
                   faults=FaultPlan(drop_prob=drop_prob))
    return (res.returns, res.sim_time_ns, res.events_processed, res.stats)


def _figure_points():
    """Points drawn from three different figures + one faulty run."""
    pts = [
        # Figure 4: put/get latency over two transports and sizes
        BenchPoint(mb.put_latency, ("fompi", 8)),
        BenchPoint(mb.put_latency, ("cray22", 4096), {"intra": True}),
        BenchPoint(mb.get_latency, ("upc", 512)),
        # Figure 5: message rate
        BenchPoint(mb.message_rate, ("fompi", 64), {"nmsgs": 50}),
        # Figure 6: atomics + global sync
        BenchPoint(mb.atomic_latency, ("fompi_sum", 64), {"reps": 2}),
        BenchPoint(sb.global_sync_latency, ("fompi", 8)),
        # fault-injected run (deterministic retries, see FaultPlan)
        BenchPoint(_faulty_result, (0.2,)),
    ]
    return pts


def test_parallel_matches_serial_bit_identical():
    serial = run_points(_figure_points(), workers=1)
    assert last_run_stats().parallel is False
    parallel = run_points(_figure_points(), workers=4)
    assert parallel == serial          # exact: same floats, same counters
    assert last_run_stats().points == len(serial)


def test_parallel_path_actually_used():
    """On this platform the pool must really fan out (not fall back)."""
    pts = [BenchPoint(mb.put_latency, ("fompi", s)) for s in (8, 64, 512)]
    out = run_points(pts, workers=4)
    assert last_run_stats().parallel is True
    assert out == run_points(pts, workers=1)


def test_serial_fallback_on_unpicklable_points():
    """Closures can't cross a process boundary; the sweep must still run."""
    def local_fn(x):
        return x * 3

    pts = [BenchPoint(local_fn, (i,)) for i in range(4)]
    assert run_points(pts, workers=4) == [0, 3, 6, 9]
    assert last_run_stats().parallel is False


def test_single_point_runs_in_process():
    pts = [BenchPoint(mb.put_latency, ("fompi", 8))]
    out = run_points(pts, workers=4)
    assert last_run_stats().parallel is False
    assert out == [mb.put_latency("fompi", 8)]


def test_faulty_run_reproducible_across_pool():
    """Fault injection derives from the master seed -- process boundary
    must not change drops/retries/times."""
    a = run_points([BenchPoint(_faulty_result, (0.3,))] * 2, workers=1)
    b = run_points([BenchPoint(_faulty_result, (0.3,))] * 2, workers=4)
    assert a == b
    assert a[0] == a[1]


def test_default_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "7")
    assert default_workers() == 7
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "not-a-number")
    assert default_workers() >= 1
