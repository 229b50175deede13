"""Kernel golden schedules and same-tick tie-breaks.

Two contracts from DESIGN.md section 8:

* the simulator's schedule is pinned, not A/B'd: the four demo workloads,
  a faulty (drop/corrupt/delay) run, the same plan plus a NIC stall over
  every transport op kind, a fail-stop crash run, a small hashtable run,
  every data call on every window flavour, a contended MCS lock, every
  MPI-1 protocol and collective and a short MILC solve on each halo
  engine reproduce committed ``(sim_time_ns, events_processed, returns)``
  tuples.  All but the stalled, flavour, MCS, MPI-1 and MILC pins were
  captured while the pure-heap scheduler and batched link delivery still
  existed and were identical under every scheduler/batching combination
  (the hashtable point is the one where batches formed, so it pins
  times, returns and table contents but not the event count);
* every pinned event count comes with its **callback-free** count: the
  events of that run that popped with no callback and woke no process
  (MPI-1 request events nobody blocked on, a get's request-leg delivery,
  a lost packet, a failure notice for a wait that had already ended),
  counted by ``tests.conftest.IdleTracer`` before such events stopped
  being made.  The run now processes exactly the others (:func:`current`),
  and the ``*_pops_no_idle_entry`` tests check that none is left;
* the queue pops entries in ``(time, priority, seq)`` order: same-tick
  events drain in ``(priority, seq)`` FIFO order whatever order they were
  pushed in, including urgent events scheduled while the tick is already
  draining, and random mixes of sleeps, timeouts, succeeded events and
  bare callbacks fire in their sorted entry order -- on the fast loop and
  on the step loop.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.hashtable import HashTableLayout, rma_insert_program
from repro.apps.milc import MilcSpec, milc_program
from repro.config import (
    FaultPlan,
    MachineConfig,
    NicStall,
    NodeCrash,
    SimConfig,
)
from repro.mpi1 import ANY_SOURCE
from repro.rma.enums import Op
from repro.rma.mcs import McsLock
from repro.runtime.job import run_spmd
from repro.sim.kernel import NORMAL, URGENT
from repro.workloads import WORKLOADS
from tests.conftest import idle_tracers, make_env

#: Pre-gen-2 golden schedules at seed 11, 4 ranks on one node (captured
#: on the plain heap the queue is again; tests/test_workloads.py imports
#: this table): (sim_time_ns, events_processed, callback-free).
GOLDEN = {
    "putget": (11835, 502, 45),
    "locks": (22876, 566, 59),
    "fence": (33492, 490, 85),
    "pscw": (16611, 302, 45),
}

#: Per-rank return values of the same four runs.
GOLDEN_RETURNS = {
    "putget": [0, 1, 2, 3],
    "locks": [9, 23, 19, 22],
    "fence": [33432, 33492, 33432, 33432],
    "pscw": [16551, 16611, 16551, 16551],
}

#: putget, seed 13, one rank per node, drop 0.2 / corrupt 0.05 / delay
#: 0.1 x 5 us: (sim_time_ns, events_processed, callback-free, returns,
#: retransmits).
GOLDEN_FAULTY = (821343, 711, 89, [0, 1, 2, 3], 70)

#: The demo workloads under GOLDEN_FAULTY's plan plus a 60 us NIC stall on
#: node 1 (seed 13, one rank per node), and an accumulate / atomic-read
#: ring that takes the AMO-stream path and its replay dedup: (sim_time_ns,
#: events_processed, callback-free, retransmits).  Captured while the
#: hardened transport was still a second endpoint class; they pin the
#: retransmit schedule of every op kind (put, get, AMO, chained AMO, AMO
#: stream).
GOLDEN_FAULTY_STALL = {
    "putget": (1008000, 714, 87, 71),
    "locks": (3527404, 1142, 137, 171),
    "fence": (732291, 531, 91, 34),
    "pscw": (729787, 390, 71, 35),
    "acc_ring": (514586, 341, 62, 24),
}

#: Three fence epochs across a fail-stop crash of node 3 at 20 us, seed
#: 13: (sim_time_ns, events_processed, callback-free, return types,
#: retransmits).
GOLDEN_CRASH = (26200, 299, 51,
                ["EpochError", "EpochError", "EpochError",
                 "NodeCrashedError"], 0)

#: foMPI hashtable, 32 ranks x 32 inserts, 16 ranks per node, seed 1 --
#: a point where 1213 packets once shared 1210 delivery carriers:
#: (sim_time_ns, per-rank elapsed ns, crc32 of the final table volumes).
GOLDEN_HASHTABLE = (
    121584,
    [96830, 96682, 96830, 95654, 95890, 95982, 96010, 95373,
     96638, 96370, 96578, 95654, 95950, 95982, 96070, 95446,
     96638, 96338, 96458, 95470, 95590, 95890, 95950, 95458,
     96670, 96370, 96850, 95650, 96370, 96010, 96490, 95998],
    2360581955,
)


#: ``_flavour_mix`` at seed 11, 4 ranks, by ranks per node: (sim_time_ns,
#: events_processed, callback-free, per-rank crc32 per flavour).  2 per
#: node runs ALLOCATE / CREATE / DYNAMIC against one intra-node and one
#: inter-node target; 4 per node adds SHARED, all intra-node.  Captured
#: before the issue path cached any translation state.
GOLDEN_FLAVOURS = {
    2: (117080, 1432, 185,
        [[3688205378, 3688205378, 3401925421],
         [583395615, 583395615, 4274577793],
         [1072745482, 1072745482, 2393668365],
         [2504857677, 2504857677, 3647109043]]),
    4: (91792, 1630, 219,
        [[3688205378, 3688205378, 3401925421, 3688205378],
         [583395615, 583395615, 4274577793, 583395615],
         [1072745482, 1072745482, 2393668365, 1072745482],
         [2504857677, 2504857677, 3647109043, 2504857677]]),
}

#: ``_mcs_rounds`` (8 ranks x 4 acquire / 300 ns / release rounds on one
#: MCS lock), default seed, by ranks per node: (sim_time_ns,
#: events_processed, callback-free, messages), per-rank acquire instants,
#: per-rank ``remote_ops``.  Captured while McsLock still had a plain and a
#: guarded body; 4 per node mixes CPU and NIC atomics on the same queue
#: words.
GOLDEN_MCS = {
    1: ((81230, 756, 108, 171),
        [[10937, 11327, 11717, 12107], [26300, 41784, 57268, 72752],
         [17452, 32936, 48420, 63904], [19648, 35132, 50616, 66100],
         [13018, 30724, 46208, 61692], [21860, 37344, 52828, 68312],
         [24072, 39556, 55040, 70524], [28512, 43996, 59480, 74964]],
        [8, 12, 12, 12, 12, 12, 12, 12]),
    4: ((40544, 704, 110, 178),
        [[9755, 11135, 18634, 25096], [10100, 11480, 18979, 25441],
         [9065, 10445, 11825, 19324], [9410, 10790, 18289, 24751],
         [15058, 21520, 27879, 31481], [16093, 22555, 28914, 34738],
         [15403, 21865, 28224, 31826], [15748, 22210, 28569, 32171]],
        [12, 13, 12, 12, 12, 13, 12, 13]),
}


#: ``_mpi1_mix`` (every MPI-1 protocol and every collective once) at seed
#: 11, by (ranks, ranks per node): (sim_time_ns, events_processed,
#: callback-free, messages), every rank's clock after each of the 13
#: steps, and per rank a crc32 of every value it received.  Captured
#: before the message path was flattened (integer charges, lazy sites,
#: slotted messages, inline matching); 3 and 4 per node mix XPMEM and NIC
#: transfers.
GOLDEN_MPI1 = {
    (6, 1): ((61613, 1062, 221, 185),
             [[3664, 4882, 18169, 24295, 26193, 28401, 33089, 37985, 39825,
               46803, 51827, 57821, 61517],
              [3648, 4882, 18121, 24247, 26557, 27679, 32569, 37461, 40361,
               46899, 51299, 57853, 61469],
              [3664, 4882, 18169, 24295, 26793, 27915, 33185, 37889, 39989,
               47011, 51731, 57837, 61517],
              [3648, 4882, 18121, 24247, 27157, 28279, 32665, 37365, 40525,
               47107, 51203, 57949, 61501],
              [3664, 4882, 18169, 24295, 27393, 28515, 31981, 36873, 40525,
               47219, 50711, 57837, 61613],
              [3648, 4882, 18121, 24247, 27167, 28611, 32061, 36761, 41061,
               46691, 50599, 57853, 61485]],
             [3635601107, 1901328068, 2354620463, 938162013, 1698713467,
              230757979]),
    (6, 3): ((57725, 1062, 232, 185),
             [[3188, 4770, 17913, 23715, 24835, 27757, 31721, 36294, 37502,
               44464, 48470, 54137, 57361],
              [3456, 4251, 16589, 22391, 25501, 26296, 31237, 35806, 38002,
               44200, 47978, 54137, 57629],
              [3552, 4674, 17493, 23619, 25939, 27061, 31853, 36234, 38018,
               43936, 48602, 54137, 57689],
              [3188, 4770, 17913, 23715, 25713, 27157, 31333, 35710, 38554,
               44032, 48074, 54041, 57325],
              [3456, 4251, 16589, 22391, 26401, 27196, 30959, 35525, 38238,
               43768, 47695, 54233, 57593],
              [3552, 4674, 17493, 23619, 26539, 27661, 30693, 35070, 38738,
               44368, 47434, 54173, 57725]],
             [3635601107, 1901328068, 2354620463, 938162013, 1698713467,
              230757979]),
    (8, 1): ((59721, 1562, 326, 271),
             [[3680, 4898, 18233, 24359, 26209, 29033, 32887, 36365, 39555,
               43581, 47339, 55945, 59721],
              [3664, 4898, 18137, 24263, 26573, 27695, 32791, 36367, 40091,
               43485, 47435, 56041, 59593],
              [3680, 4898, 18185, 24311, 26809, 27931, 32791, 36367, 38467,
               43677, 47243, 55929, 59625],
              [3648, 4898, 18137, 24263, 27237, 28359, 32695, 36463, 39003,
               43581, 47339, 55945, 59577],
              [3680, 4898, 18233, 24359, 27409, 28531, 32791, 36367, 39019,
               43677, 47243, 55929, 59625],
              [3664, 4898, 18137, 24263, 27773, 28895, 32695, 36463, 39555,
               43581, 47339, 55945, 59577],
              [3680, 4898, 18185, 24311, 28009, 29131, 32695, 36463, 39003,
               43773, 47147, 55913, 59609],
              [3648, 4898, 18137, 24263, 27783, 29227, 32693, 36559, 39539,
               43677, 47243, 55929, 59593]],
             [886165717, 2575117702, 202127418, 3333043671, 753591334,
              3871035551, 3080220648, 4285882372]),
    (8, 4): ((54481, 1562, 332, 271),
             [[3284, 4674, 17817, 23619, 24739, 28261, 31161, 34271, 37007,
               40315, 43408, 50965, 54309],
              [3552, 4347, 16493, 22295, 24477, 25594, 31101, 34211, 37507,
               40255, 43468, 51025, 54457],
              [3344, 4407, 16166, 21968, 25705, 26500, 31041, 34151, 35935,
               40375, 43348, 50893, 54237],
              [3456, 4578, 17397, 23523, 26143, 27265, 31101, 34091, 36435,
               40315, 43408, 50905, 54385],
              [3284, 4674, 17817, 23619, 25917, 27361, 31077, 34175, 36471,
               40411, 43312, 50989, 54333],
              [3552, 4347, 16493, 22295, 24893, 26772, 31137, 34055, 36971,
               40351, 43372, 51049, 54481],
              [3344, 4407, 16166, 21968, 26905, 27700, 31197, 34115, 36471,
               40531, 43252, 50929, 54213],
              [3456, 4578, 17397, 23523, 27043, 28165, 31257, 34235, 36971,
               40471, 43312, 50929, 54393]],
             [886165717, 2575117702, 202127418, 3333043671, 753591334,
              3871035551, 3080220648, 4285882372]),
}

#: ``milc_program``, 16 ranks at 8 per node, ``MilcSpec(maxiter=4,
#: tol=0.0, seed=3)``, seed 11, by halo engine: (sim_time_ns,
#: events_processed, callback-free, messages) and the slowest rank's solve
#: time.
#: Captured before the stencil and the halo exchange were planned.  The
#: solver's floats are held to 1e-12, not pinned: ``np.vdot`` goes
#: through the host's BLAS.
GOLDEN_MILC = {
    "mpi1": ((385874, 7520, 1912, 1216), 381386),
    "rma": ((365390, 8226, 1360, 1903), 344866),
    "upc": ((357481, 7200, 1230, 1856), 344478),
}
GOLDEN_MILC_RESIDUAL = float.fromhex("0x1.df09d76f5e35dp-7")
GOLDEN_MILC_CHECKSUM = 205.22676721831235 + 0.038531896054528336j


def current(pin):
    """A pin as a run reproduces it now: ``(sim_time_ns, events,
    callback_free, *rest)`` -> ``(sim_time_ns, events - callback_free,
    *rest)``."""
    t, events, callback_free, *rest = pin
    return (t, events - callback_free, *rest)


def _acc_ring(ctx):
    """accumulate + atomic read of four uint64 on the right neighbour."""
    win = yield from ctx.rma.win_allocate(32, disp_unit=8)
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    right = (ctx.rank + 1) % ctx.nranks
    vals = np.arange(1, 5, dtype=np.uint64) * (ctx.rank + 1)
    yield from win.accumulate(vals, right, 0, Op.SUM)
    yield from win.flush(right)
    yield from ctx.coll.barrier()
    old = yield from win.get_accumulate(np.zeros(4, np.uint64), right, 0,
                                        Op.NO_OP)
    yield from win.flush(right)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    return [int(v) for v in old]


def _flavour_mix(ctx):
    """put / 4-element accumulate / fetch-and-op / CAS + flush, then get +
    flush, on every window flavour the placement supports, against the
    node-mate ``rank ^ 1`` and against ``rank + 2`` (another node at two
    ranks per node): the flavour dispatch, the xpmem/dmapp split and the
    remote-address translation of each.  Every origin owns a 64-byte
    stripe of each target; returns one crc32 per flavour over the old
    values and the bytes read back."""
    r, p = ctx.rank, ctx.nranks
    one_node = len({ctx.node_of(q) for q in range(p)}) == 1
    out = []
    for flavour in ("allocate", "create", "dynamic", "shared"):
        bases = [0] * p
        if flavour == "allocate":
            win = yield from ctx.rma.win_allocate(64 * p)
        elif flavour == "create":
            win = yield from ctx.rma.win_create(ctx.space.alloc(64 * p))
        elif flavour == "dynamic":
            win = yield from ctx.rma.win_create_dynamic()
            seg = ctx.space.alloc(64 * p)
            yield from win.attach(seg)
            bases = yield from ctx.coll.allgather(seg.vaddr)
        elif one_node:
            win = yield from ctx.rma.win_allocate_shared(64 * p)
        else:
            continue
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        seen = []
        for t in (r ^ 1, (r + 2) % p):
            at = bases[t] + 64 * r
            yield from win.put(np.arange(16, dtype=np.uint8) + 16 * r + t,
                               t, at)
            yield from win.accumulate(
                np.arange(1, 5, dtype=np.uint64) * (r + 1), t, at + 16,
                Op.SUM)
            seen.append((yield from win.fetch_and_op(
                np.int64(r + 7), t, at + 56, Op.SUM)))
            if flavour != "dynamic":    # CAS needs direct addressing
                for _ in range(2):      # 0 -> r + 1 wins, then loses
                    seen.append((yield from win.compare_and_swap(
                        np.int64(0), np.int64(r + 1), t, at + 48)))
            yield from win.flush(t)
            got = np.zeros(64, np.uint8)
            yield from win.get(got, t, at)
            yield from win.flush(t)
            seen.extend(got.tolist())
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        out.append(zlib.crc32(repr([int(v) for v in seen]).encode()))
    return out


def _mcs_rounds(ctx):
    """Every rank takes one MCS lock four times: tail swaps, next-pointer
    publications, local spins, tail CASes and hand-offs all contend."""
    win = yield from ctx.rma.win_allocate(64)
    lock = McsLock(win)
    acquired = []
    for _ in range(4):
        yield from lock.acquire()
        acquired.append(ctx.now)
        yield ctx.env.timeout(300)
        yield from lock.release()
    yield from ctx.coll.barrier()
    return acquired, lock.remote_ops


def _mpi1_mix(ctx):
    """Every MPI-1 protocol and collective once: eager and rendezvous on
    posted receives, an unexpected eager message taken by improbe / mrecv,
    a synchronous send matched late by a wildcard receive, sendrecv, and
    each collective (the non-power-of-two folds at 6 ranks, the
    recursive-doubling / halving forms at 8).  Returns this rank's clock
    after every step and a crc32 of everything it received."""
    r, p = ctx.rank, ctx.nranks
    mpi, coll = ctx.mpi, ctx.coll
    right, left = (r + 1) % p, (r - 1) % p
    times, seen = [], []

    def step(value=None):
        times.append(ctx.now)
        seen.append(value)

    yield from coll.barrier()
    step()
    for tag, payload in ((1, r), (2, np.full(8192, r, np.int64))):
        rreq = mpi.irecv(left, tag=tag)
        sreq = yield from mpi.isend(right, payload, tag=tag)
        got = yield from rreq.wait()
        yield from sreq.wait()
        step(int(np.sum(got)))
    yield from mpi.send(right, (r, "x"), tag=3, nbytes=24)
    yield ctx.env.timeout(5_000)
    step((yield from mpi.mrecv(mpi.improbe(tag=3))))
    sreq = yield from mpi.issend(right, r, tag=4)
    yield ctx.env.timeout(300 * (r + 1))
    got = yield from mpi.recv(ANY_SOURCE, tag=4)
    yield from sreq.wait()
    step(got)
    step((yield from mpi.sendrecv(right, r * 10, src=left, tag=5)))
    step((yield from coll.allreduce(r + 1, nbytes=16)))
    step((yield from coll.allreduce(np.arange(4) * r)).tolist())
    step((yield from coll.bcast(("root", r), root=2)))
    step((yield from coll.allgather(r * r)))
    step(int((yield from coll.reduce_scatter_block(np.arange(p) + r))))
    step((yield from coll.alltoall([r * p + d for d in range(p)])))
    yield from coll.ibarrier().wait()
    step()
    return times, zlib.crc32(repr(seen).encode())


_LOCAL = {"acc_ring": _acc_ring, "flavour_mix": _flavour_mix}


def _run(name, *, faults=None, seed=11, rpn=4):
    return run_spmd(
        _LOCAL.get(name) or WORKLOADS[name].program, 4,
        machine=MachineConfig(ranks_per_node=rpn),
        sim=SimConfig(seed=seed),
        faults=faults)


# ---------------------------------------------------------------------------
# golden schedules
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_workloads_reproduce_golden_pins(name):
    res = _run(name)
    assert (res.sim_time_ns, res.events_processed) == \
        current(GOLDEN[name]), \
        f"{name}: schedule drifted from the pre-gen-2 golden"
    assert res.returns == GOLDEN_RETURNS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_step_loop_reproduces_golden_pins(name):
    """The whole stack on the reference step loop: same schedule as the
    kernel's loop."""
    with idle_tracers():
        res = _run(name)
    assert (res.sim_time_ns, res.events_processed) == current(GOLDEN[name])
    assert res.returns == GOLDEN_RETURNS[name]


def test_faulty_run_reproduces_golden_pin():
    """Drops, corruption and latency spikes exercise the retransmit and
    stall paths."""
    plan = FaultPlan(drop_prob=0.2, corrupt_prob=0.05,
                     delay_prob=0.1, delay_ns=5_000)
    res = _run("putget", faults=plan, seed=13, rpn=1)
    assert (res.sim_time_ns, res.events_processed, res.returns,
            res.stats["retransmits"]) == current(GOLDEN_FAULTY)


@pytest.mark.parametrize("name", sorted(GOLDEN_FAULTY_STALL))
def test_faulty_stalled_runs_reproduce_golden_pins(name):
    """Every op kind's retransmit loop, with a NIC stall moving the
    schedule; the ring's sums also prove no replayed stream re-applied."""
    plan = FaultPlan(drop_prob=0.2, corrupt_prob=0.05,
                     delay_prob=0.1, delay_ns=5_000,
                     stalls=(NicStall(node=1, start_ns=100_000,
                                      duration_ns=60_000),))
    res = _run(name, faults=plan, seed=13, rpn=1)
    assert (res.sim_time_ns, res.events_processed,
            res.stats["retransmits"]) == current(GOLDEN_FAULTY_STALL[name])
    if name == "acc_ring":
        assert res.returns == [[k * (r + 1) for k in range(1, 5)]
                               for r in range(4)]


@pytest.mark.parametrize("rpn", sorted(GOLDEN_FLAVOURS))
def test_window_flavours_reproduce_golden_pins(rpn):
    """Every data call on every flavour, intra- and inter-node: where the
    flavour dispatch and address translation can go wrong unnoticed by
    the ``win_allocate``-only pins above."""
    res = _run("flavour_mix", rpn=rpn)
    assert (res.sim_time_ns, res.events_processed,
            res.returns) == current(GOLDEN_FLAVOURS[rpn])


@pytest.mark.parametrize("rpn", sorted(GOLDEN_MCS))
def test_mcs_rounds_reproduce_golden_pins(rpn):
    """The clean-fabric MCS wire protocol: who queues behind whom, when
    each hand-off lands and how many remote atomics each rank issued."""
    res = run_spmd(_mcs_rounds, 8, machine=MachineConfig(ranks_per_node=rpn))
    counts, acquired, remote_ops = GOLDEN_MCS[rpn]
    assert ((res.sim_time_ns, res.events_processed, res.stats["messages"]),
            [r[0] for r in res.returns],
            [r[1] for r in res.returns]) == (current(counts), acquired,
                                             remote_ops)


@pytest.mark.parametrize("shape", sorted(GOLDEN_MPI1))
def test_mpi1_mix_reproduces_golden_pins(shape):
    """The two-sided message path: eager, rendezvous and sync-eager
    protocols, the match queues in both arrival orders, and every
    collective built on them."""
    _assert_mpi1_mix_pin(shape, _run_mpi1_mix(shape))


def _run_mpi1_mix(shape):
    nranks, rpn = shape
    return run_spmd(_mpi1_mix, nranks,
                    machine=MachineConfig(ranks_per_node=rpn),
                    sim=SimConfig(seed=11))


def _assert_mpi1_mix_pin(shape, res):
    counts, clocks, crcs = GOLDEN_MPI1[shape]
    assert ((res.sim_time_ns, res.events_processed, res.stats["messages"]),
            [r[0] for r in res.returns],
            [r[1] for r in res.returns]) == (current(counts), clocks, crcs)


@pytest.mark.parametrize("variant", sorted(GOLDEN_MILC))
def test_milc_reproduces_golden_pins(variant):
    """Four CG iterations on each halo engine: the schedule is pinned, the
    solver's numbers held to the last few bits."""
    res = run_spmd(milc_program, 16, MilcSpec(maxiter=4, tol=0.0, seed=3),
                   variant, machine=MachineConfig(ranks_per_node=8),
                   sim=SimConfig(seed=11))
    counts, solve_ns = GOLDEN_MILC[variant]
    assert ((res.sim_time_ns, res.events_processed, res.stats["messages"]),
            max(r[0] for r in res.returns)) == (current(counts), solve_ns)
    assert {r[1] for r in res.returns} == {4}
    assert res.returns[0][2] == pytest.approx(GOLDEN_MILC_RESIDUAL,
                                              rel=1e-12)
    assert res.returns[0][3] == pytest.approx(GOLDEN_MILC_CHECKSUM,
                                              rel=1e-12)


def _crash_prog(ctx):
    """Fence epochs across a fail-stop crash (the fault-matrix cell):
    survivors get structured EpochErrors, the dead rank an Interrupt."""
    win = yield from ctx.rma.win_allocate(256)
    for _ in range(3):
        yield from win.fence()
    return "ok"


def test_crash_run_reproduces_golden_pin():
    """A fail-stop node crash mid-run: interrupts, quarantine errors and
    the reaper process."""
    plan = FaultPlan(crashes=(NodeCrash(node=3, time_ns=20_000),))
    res = run_spmd(
        _crash_prog, 4,
        machine=MachineConfig(ranks_per_node=1),
        sim=SimConfig(seed=13),
        faults=plan)
    assert (res.sim_time_ns, res.events_processed,
            [type(r).__name__ for r in res.returns],
            res.stats["retransmits"]) == current(GOLDEN_CRASH)


@pytest.mark.parametrize("shape", sorted(GOLDEN_MPI1))
def test_mpi1_mix_pops_no_idle_entry(shape):
    """Every entry the MPI-1 mix pops resumes a process or runs a callback
    (or is an exit or a retired sleep): no request or delivery event is
    made without a waiter.  The step loop under the tracer lands on the
    same pin."""
    with idle_tracers() as tracers:
        res = _run_mpi1_mix(shape)
    assert [t.idle for t in tracers] == [{}]
    _assert_mpi1_mix_pin(shape, res)


@pytest.mark.parametrize("rpn", sorted(GOLDEN_FLAVOURS))
def test_flavour_mix_pops_no_idle_entry(rpn):
    """The same for every data call on every window flavour: a get's
    request leg schedules nothing."""
    with idle_tracers() as tracers:
        res = _run("flavour_mix", rpn=rpn)
    assert [t.idle for t in tracers] == [{}]
    assert (res.sim_time_ns, res.events_processed,
            res.returns) == current(GOLDEN_FLAVOURS[rpn])


def test_hashtable_delivery_order_reproduces_golden_pin():
    """Same-tick deliveries on one edge decide who wins a slot CAS, so
    the table contents and per-rank times pin delivery *order*, which
    equal totals alone would not."""
    nranks, inserts = 32, 32
    layout = HashTableLayout.default(inserts)
    box = {}
    res = run_spmd(
        rma_insert_program, nranks, layout, inserts, box,
        machine=MachineConfig(ranks_per_node=16), sim=SimConfig(seed=1))
    crc = zlib.crc32(b"".join(box["volumes"][r].tobytes()
                              for r in range(nranks)))
    assert (res.sim_time_ns, res.returns, crc) == GOLDEN_HASHTABLE


# ---------------------------------------------------------------------------
# tie-break audit: the queue pops in (time, priority, seq) order
# ---------------------------------------------------------------------------
BOTH_LOOPS = pytest.mark.parametrize(
    "step_loop", [False, True], ids=["fast-loop", "step-loop"])


def _same_tick_run(step_loop):
    """Many events on one tick, mixed priorities, pushed in an order where
    later pushes sort ahead of earlier ones."""
    env = make_env(step_loop)
    order = []

    def note(tag):
        return lambda ev: order.append((env.now, tag))

    # Schedule NORMAL first, then URGENT (sorts ahead of them), then more
    # NORMAL -- all at tick 10; plus a lone later tick.
    for i in range(3):
        ev = env.event(name=f"n{i}")
        ev.callbacks.append(note(("n", i)))
        ev.succeed(delay=10, priority=NORMAL)
    for i in range(2):
        ev = env.event(name=f"u{i}")
        ev.callbacks.append(note(("u", i)))
        ev.succeed(delay=10, priority=URGENT)
    late = env.event(name="late")
    late.callbacks.append(note(("late", 0)))
    late.succeed(delay=20)
    env.run()
    return order


@BOTH_LOOPS
def test_same_tick_priority_seq_fifo(step_loop):
    assert _same_tick_run(step_loop) == [
        (10, ("u", 0)), (10, ("u", 1)),
        (10, ("n", 0)), (10, ("n", 1)), (10, ("n", 2)),
        (20, ("late", 0))]


def _urgent_mid_drain_run(step_loop):
    """An URGENT event scheduled *while its tick is draining* must fire
    before the remaining NORMAL events of that tick (priority beats seq),
    though it was pushed after them and in the middle of the drain."""
    env = make_env(step_loop)
    order = []

    def fire_urgent(_ev):
        order.append("n0")
        u = env.event(name="u")
        u.callbacks.append(lambda ev: order.append("u"))
        u.succeed(delay=0, priority=URGENT)

    first = env.event(name="n0")
    first.callbacks.append(fire_urgent)
    first.succeed(delay=5, priority=NORMAL)
    for i in (1, 2):
        ev = env.event(name=f"n{i}")
        ev.callbacks.append(lambda _e, i=i: order.append(f"n{i}"))
        ev.succeed(delay=5, priority=NORMAL)
    env.run()
    return order


@BOTH_LOOPS
def test_urgent_scheduled_mid_drain_orders_by_priority_then_seq(step_loop):
    assert _urgent_mid_drain_run(step_loop) == ["n0", "u", "n1", "n2"]


def _rollover_run(step_loop):
    env = make_env(step_loop)
    order = []
    # Tick 10 normals, then a tick-5 entry that sorts ahead of them, then
    # more tick-10 normals.
    for i in range(2):
        ev = env.event(name=f"a{i}")
        ev.callbacks.append(lambda _e, i=i: order.append(f"a{i}"))
        ev.succeed(delay=10)
    early = env.event(name="early")
    early.callbacks.append(lambda _e: order.append("early"))
    early.succeed(delay=5)
    for i in range(2):
        ev = env.event(name=f"b{i}")
        ev.callbacks.append(lambda _e, i=i: order.append(f"b{i}"))
        ev.succeed(delay=10)
    env.run()
    return order


@BOTH_LOOPS
def test_same_tick_fifo_across_rollover(step_loop):
    """FIFO within a priority class survives an earlier-tick entry pushed
    between two same-tick groups: seq order is global, so the tick-10
    entries fire in push order once the tick-5 one is gone."""
    assert _rollover_run(step_loop) == ["early", "a0", "a1", "b0", "b1"]


# Short delays so that entries from different processes collide.
_DELAY = st.sampled_from([0, 0, 1, 2, 5])
_PRIO = st.sampled_from([URGENT, NORMAL])
_OP = st.one_of(
    st.tuples(st.just("sleep"), _DELAY),
    st.tuples(st.just("timeout"), _DELAY, _PRIO),
    st.tuples(st.just("succeed"), _DELAY, _PRIO),
    st.tuples(st.just("call"), _DELAY),
    # a callback that, when it runs, succeeds an event on its own tick or
    # later: a push made while that tick drains
    st.tuples(st.just("chain"), _DELAY, _DELAY, _PRIO),
)
_PROGRAMS = st.lists(st.lists(_OP, min_size=1, max_size=8),
                     min_size=2, max_size=5)


def _mixed_order_run(programs, step_loop):
    """Run ``programs`` (one op list per process).  The log notes each
    tagged entry as ``(time, priority, seq, tag)`` when it is pushed, and
    its ``tag`` when it fires; returns it with the final clock and event
    count."""
    env = make_env(step_loop)
    log = []

    def push(tag, delay, prio):
        # the entry just pushed drew the latest seq
        log.append((env.now + delay, prio, env._seq, tag))

    def event_at(tag, delay, prio):
        ev = env.event(tag)
        ev.callbacks.append(lambda _ev: log.append(tag))
        ev.succeed(delay=delay, priority=prio)
        push(tag, delay, prio)

    def chain(tag, delay, prio):
        log.append(tag)
        event_at(tag + "+", delay, prio)

    def proc(p, ops):
        for i, (kind, delay, *rest) in enumerate(ops):
            tag = f"{p}.{i}.{kind}"
            if kind == "sleep":
                # ``yield ns`` draws its seq as the process suspends
                log.append((env.now + delay, NORMAL, env._seq + 1, tag))
                yield delay
                log.append(tag)
            elif kind == "timeout":
                t = env.timeout(delay, tag, priority=rest[0])
                push(tag, delay, rest[0])
                log.append((yield t))
            elif kind == "succeed":
                event_at(tag, delay, rest[0])
            elif kind == "call":
                env.call_at(delay, lambda tag=tag: log.append(tag))
                push(tag, delay, NORMAL)
            else:
                env.call_at(delay, lambda tag=tag, d=rest[0], pr=rest[1]:
                            chain(tag, d, pr))
                push(tag, delay, NORMAL)

    for p, ops in enumerate(programs):
        env.process(proc(p, ops), name=f"p{p}")
    env.run()
    return log, env.now, env.events_processed


@settings(max_examples=150, deadline=None)
@given(_PROGRAMS)
def test_random_mix_fires_in_sorted_entry_order(programs):
    """Sleeps, timeouts, succeeded events of both priorities and bare
    callbacks (some pushing more entries as they run), several processes,
    colliding instants: every entry that fires is the smallest
    ``(time, priority, seq)`` of the entries pending at that moment, every
    entry fires, and the fast and the step loop give the same log."""
    log, now, events = _mixed_order_run(programs, step_loop=False)
    pending = []
    for item in log:
        if isinstance(item, tuple):
            pending.append(item)
        else:
            first = min(pending)
            assert item == first[3], (item, sorted(pending))
            pending.remove(first)
    assert pending == []
    assert _mixed_order_run(programs, step_loop=True) == (log, now, events)

