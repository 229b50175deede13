"""DES kernel event-throughput microbenchmarks.

Measures the raw event rate of :mod:`repro.sim.kernel`'s fast loop
(front-slot scheduler, sleep tokens) on two synthetic workloads and on
two full-stack runs, asserts a generous absolute events/sec floor, then
writes the machine-readable perf report ``BENCH_simperf.json`` at the
repository root (the per-figure wall-clock and pool sections are
appended by ``conftest.py`` at session end, so this file is the report's
anchor).  ``repro.bench.perfgate`` holds the recorded rates against the
machine-scaled baseline.

Workloads
---------
ring
    ``NPROC`` processes passing a token, each sleeping ``yield ns``
    between hand-offs as every CPU charge in ``src/`` does -- the pure
    scheduler loop, dominated by queue churn and one ``Event`` per
    hand-off (the strict-min entry sits in the front slot: ~100%
    front-hit rate).
put/get pattern
    An origin/NIC generator pair mimicking the kernel-level shape of a
    flushed fompi put: descriptor-write sleep, a NIC service event
    chain, and an URGENT remote-completion wakeup (~58% front-hit rate).
full stack
    4096 fompi put + flush between two nodes on a world built outside the
    timer: ~20 k events of the issue path (``Window`` -> ``dmapp`` ->
    ``machine``), not of world construction.
mpi1 path
    200 16-byte allreduces on 64 ranks at 32 per node, world built
    outside the timer: ~0.35 M events of the two-sided message path
    (``runtime.collectives`` -> ``mpi1.pt2pt`` -> XPMEM copy or
    ``machine``) that carries every collective of every run and is the
    comparator of every application figure.
"""

import json
import pathlib
import time

from repro.bench import microbench as mb
from repro.config import MachineConfig
from repro.runtime.job import Job, run_on_world
from repro.sim.kernel import URGENT, Environment

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "BENCH_simperf.json"

RING_NPROC = 64
RING_STEPS = 4000          # ~= RING_NPROC * RING_STEPS * 2 events
PUTGET_N = 30_000
FULL_STACK_PUTS = 4096     # put + flush each: ~20 k events
MPI1_RANKS = 64            # at 32 per node: 5 of 6 rounds stay on the node
MPI1_ALLREDUCES = 200      # 6 rounds x 64 ranks each: ~0.35 M events
# Best-of rounds: rates jitter a few percent in noisy containers.
BEST_OF = 5

# Generous absolute floor: the container sustains >1M ev/s on the fast
# loop; CI machines vary wildly, so assert an order of magnitude below.
EVENTS_PER_SEC_FLOOR = 80_000.0


def _ring_proc(env, idx, inboxes, steps):
    nproc = len(inboxes)
    for _ in range(steps):
        yield inboxes[idx]
        inboxes[idx] = env.event()
        yield 10
        nxt = (idx + 1) % nproc
        inboxes[nxt].succeed(None)


def _build_ring(env, nproc=RING_NPROC, steps=RING_STEPS):
    inboxes = [env.event() for _ in range(nproc)]
    for i in range(nproc):
        env.process(_ring_proc(env, i, inboxes, steps), name=f"ring{i}")
    inboxes[0].succeed(None, delay=1)


def _putget_origin(env, n, nic_ev):
    for _ in range(n):
        yield 40                           # descriptor write / o_inject
        ev = env.event()
        nic_ev.append(ev)
        done = env.event()
        ev.succeed(done, delay=700)        # wire + ejection service
        yield done                         # flush: wait remote completion


def _putget_nic(env, n, nic_ev):
    served = 0
    while served < n:
        while not nic_ev:
            yield 10                       # poll
        ev = nic_ev.pop()
        done = yield ev
        done.succeed(None, delay=50, priority=URGENT)
        served += 1


def _build_putget(env, n=PUTGET_N):
    nic_ev = []
    env.process(_putget_origin(env, n, nic_ev), name="origin")
    env.process(_putget_nic(env, n, nic_ev), name="nic")


def _bench_workload(name, build):
    """Best-of-N event rate of ``build``'s workload on the fast loop."""
    best = 0.0
    for _ in range(BEST_OF):
        env = Environment()
        build(env)
        t0 = time.perf_counter()
        env.run()
        best = max(best, env.events_processed / (time.perf_counter() - t0))
    return {
        "workload": name,
        "events": env.events_processed,
        "sim_time_ns": env.now,
        "fast_events_per_sec": round(best, 1),
    }


def _full_stack_program(ctx):
    """A real fompi put+flush ping, as the Figure 4 driver runs it."""
    import numpy as np
    data = np.ones(8, np.uint8)
    win = yield from ctx.rma.win_allocate(8)
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    if ctx.rank == 0:
        for _ in range(FULL_STACK_PUTS):
            yield from win.put(data, 1, 0)
            yield from win.flush(1)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    return ctx.now


def _mpi1_path_program(ctx):
    """The reduction cadence of the MILC solver, without the solver."""
    total = 0.0
    for _ in range(MPI1_ALLREDUCES):
        total = yield from ctx.coll.allreduce(1.0, nbytes=16)
    return total


def _stack_rate(workload, program, nranks, machine):
    """Events/sec of ``program`` on the whole stack (best of N), timed
    from the first event: the world is built before the clock starts."""
    best = None
    for _ in range(BEST_OF):
        world = Job(nranks=nranks, machine=machine).build_world()
        t0 = time.perf_counter()
        res = run_on_world(world, program)
        wall = time.perf_counter() - t0
        rate = res.events_processed / wall
        if best is None or rate > best["events_per_sec"]:
            best = {"workload": workload,
                    "events": res.events_processed,
                    "sim_time_ns": res.sim_time_ns,
                    "events_per_sec": round(rate, 1)}
    return best


def _merge_report(section, payload):
    """Update one section of BENCH_simperf.json, keeping the others."""
    report = {}
    if REPORT.exists():
        try:
            report = json.loads(REPORT.read_text())
        except (ValueError, OSError):
            report = {}
    report[section] = payload
    REPORT.write_text(json.dumps(report, indent=1) + "\n")
    return report


def test_kernel_throughput(benchmark):
    """Kernel event-rate floor on ring and put/get pattern; the RMA issue
    path and the MPI-1 message path recorded for the perf gate."""

    def run():
        return [_bench_workload("ring", _build_ring),
                _bench_workload("putget_pattern", _build_putget)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    full = _stack_rate("full_stack_putget", _full_stack_program, 2,
                       mb.INTER_2)
    mpi1 = _stack_rate("mpi1_allreduce", _mpi1_path_program, MPI1_RANKS,
                       MachineConfig(ranks_per_node=32))
    payload = {"workloads": rows, "full_stack": full, "mpi1_path": mpi1,
               "floor_events_per_sec": EVENTS_PER_SEC_FLOOR}
    _merge_report("kernel", payload)
    print()
    for r in rows:
        print(f"{r['workload']:>16}: {r['fast_events_per_sec']:>11,.0f} ev/s")
    for r in (full, mpi1):
        print(f"{r['workload']:>16}: {r['events_per_sec']:>11,.0f} ev/s")
    for r in rows:
        assert r["fast_events_per_sec"] > EVENTS_PER_SEC_FLOOR, r
    benchmark.extra_info["kernel"] = payload
