"""The workload registry: every named program, once.

:data:`WORKLOADS` maps a name to a :class:`Workload` -- a small SPMD
program plus what each consumer must know about it -- and
:func:`run_workload` is the one named runner.  ``repro trace`` /
``report`` / ``check`` / ``scale`` on the CLI, the delay-bounded
explorer, the parity gate, the FT drivers, the fault sweeps and the CI
``check`` job all resolve names here, no test keeps a program table of
its own, and ``tests/test_workloads.py`` runs every oracle over every
entry.  Every program runs with no argument beyond ``ctx``; each entry's
``verify`` counts a run's wrong outputs.

The groups:

* ``putget`` / ``locks`` / ``fence`` / ``pscw`` -- one protocol family
  each, so a trace shows a characteristic timeline.  Pinned by the
  ``GOLDEN`` schedules in ``tests/sim/test_kernel_gen2.py``.
* ``racy_*`` / ``clean_*`` -- the memory-model demos.  Each ``racy_*``
  program contains exactly one deliberate violation of the paper's
  Section 4 access rules and its entry's ``expect`` names the class the
  checker must report; the ``clean_*`` programs are near-identical twins
  with the bug fixed (disjoint ranges, same-op atomics, proper
  synchronization).  ``racy_latent`` is the schedule-sensitive one: on
  the default schedule every rank's measured flush latency stays under
  the threshold and all writes land in private slots; one late packet
  on a rank's get or flush pushes it over, its put aliases the shared
  slot everyone reads, and the race manifests
  (``tests/check/test_explore.py`` finds it).
* ``fence_ring`` / ``pscw_ring`` / ``lock_ring`` / ``flush_ring`` -- the
  full-fidelity side of the hybrid parity gate, one per synchronization
  substrate the paper benchmarks (Figure 6).  Contention-free ring
  patterns (every rank talks to its neighbors), so message counts are
  deterministic at any rank count; ``scale`` is the
  :class:`~repro.scale.protocols.WorkloadSpec` of the vectorized twin.
  ``fence`` and ``fence_ring`` are different programs pinned by
  different oracles, hence two names.
* ``ft_hashtable`` / ``ft_kvstore`` -- the programs that run to
  completion through a node crash, both on :func:`repro.ft.run_steps`:
  the paper's distributed hashtable insert (Section 4.1,
  :func:`~repro.apps.hashtable.rma_ht.rma_insert`), and the served
  :class:`~repro.apps.kvstore.KvStore`
  (:func:`repro.serve.driver.ft_kvstore`); the crash-to-completion
  driver lives in :mod:`repro.ft.workloads`.
* ``put_flush`` / ``get_flush`` / ``rendezvous`` / ``lock_contention``
  / ``accumulate`` -- the transport paths the fault sweeps cover, each
  returning data that pins every byte it moved: a put and a get
  completed by a flush, MPI-1's rendezvous protocol, writes serialized
  by one exclusive lock, and the accumulate that the NIC cannot apply.
* ``hashtable_*`` / ``kv_serve`` / ``milc_*`` / ``dsde_nbx`` / ``fft`` /
  ``caf_coarray`` -- the paper's application studies (Section 4,
  Figures 7 and 8) with the UPC, CAF and MPI-1 comparators: each wraps
  an app's own program at a small size, so every sweep above covers it.
* ``mcs_lock`` / ``dynamic_window`` -- the extensions: the MCS queue
  lock (Section 2.3) and a dynamic window's attach / detach (2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.apps.dsde.common import expected_incoming
from repro.apps.dsde.protocols import dsde_program
from repro.apps.fft.parallel import (
    FftSpec,
    _initial_block,
    fft_program,
    gather_result,
)
from repro.apps.hashtable.common import HashTableLayout, verify_contents
from repro.apps.hashtable.mpi1_ht import mpi1_insert_program
from repro.apps.hashtable.rma_ht import rma_insert, rma_insert_program
from repro.apps.hashtable.upc_ht import upc_insert_program
from repro.apps.milc.driver import MilcSpec, milc_program
from repro.config import (
    CheckConfig,
    FaultPlan,
    FTConfig,
    MachineConfig,
    ObsConfig,
    RunResult,
    SimConfig,
)
from repro.ft.steps import run_steps
from repro.rma.datatypes import BYTE, Vector
from repro.rma.enums import LockType, Op
from repro.rma.mcs import McsLock
from repro.runtime.job import run_spmd
from repro.scale.protocols import WorkloadSpec
from repro.serve.driver import (
    expected_contents,
    ft_kvstore,
    kv_serve_program,
    merged_contents,
)
from repro.serve.zipf import ServeSpec
from repro.sim.random import derive_seed

__all__ = ["Workload", "WORKLOADS", "names", "lookup", "run_workload"]


def _failed(res: RunResult) -> int:
    """Ranks that ended in an exception (every entry's floor)."""
    return sum(isinstance(v, BaseException) for v in res.returns)


@dataclass(frozen=True)
class Workload:
    """One registry entry: a program and what is claimed about it.

    ``program`` is a module-level generator (picklable for pools).
    ``expect`` is the violation class ``repro check`` must report on the
    default schedule, ``None`` meaning "must be clean"; ``latent`` is
    the classes that manifest only when some packets arrive late (the
    delay-bounded explorer, ``tests/check/explore.py``).  ``scale`` is the
    spec of the hybrid twin (the program's defaults equal its
    ``epochs`` / ``nbytes``), ``ft`` marks a program that runs to
    completion through a node crash under :mod:`repro.ft`.  ``verify``
    takes a run's :class:`~repro.config.RunResult` and returns its number
    of wrong outputs, 0 when correct; by default the ranks that raised.
    """

    program: Callable[..., Any]
    expect: str | None = None
    latent: frozenset[str] = frozenset()
    scale: WorkloadSpec | None = None
    ft: bool = False
    verify: Callable[[RunResult], int] = _failed


# --- protocol-family demos (repro trace / repro report) ---
def putget(ctx, iters: int = 16, nbytes: int = 64):
    """lock_all epoch: ping data to the right neighbor, flush each put."""
    data = np.full(nbytes, ctx.rank, np.uint8)
    out = np.empty(nbytes, np.uint8)
    win = yield from ctx.rma.win_allocate(max(nbytes, 8))
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    right = (ctx.rank + 1) % ctx.nranks
    for _ in range(iters):
        yield from win.put(data, right, 0)
        yield from win.flush(right)
    yield from win.get(out, right, 0)
    yield from win.flush(right)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    return int(out[0])


#: ``locks``' acquisitions per rank.
LOCKS_ITERS = 6


def locks(ctx, iters: int = LOCKS_ITERS):
    """Every rank contends for an exclusive lock on rank 0, then holds a
    shared lock on its neighbor -- shows acquire/hold/release spans."""
    win = yield from ctx.rma.win_allocate(64, disp_unit=8)
    yield from ctx.coll.barrier()
    ticket = np.int64(1)
    for _ in range(iters):
        yield from win.lock(0, LockType.EXCLUSIVE)
        old = yield from win.fetch_and_op(ticket, 0, 0)
        yield from win.unlock(0)
        yield from win.lock((ctx.rank + 1) % ctx.nranks)
        yield from win.unlock((ctx.rank + 1) % ctx.nranks)
    yield from ctx.coll.barrier()
    yield from win.free()
    return int(old)


def fence(ctx, iters: int = 4, nbytes: int = 256):
    """Fence-delimited epochs with neighbor puts (Figure 6b's shape)."""
    data = np.full(nbytes, ctx.rank, np.uint8)
    win = yield from ctx.rma.win_allocate(nbytes)
    yield from win.fence()
    for _ in range(iters):
        yield from win.put(data, (ctx.rank + 1) % ctx.nranks, 0)
        yield from win.fence()
    yield from win.fence(no_succeed=True)
    return ctx.now


def pscw(ctx, iters: int = 3, nbytes: int = 64):
    """PSCW ring: expose to the left neighbor, access the right one."""
    data = np.full(nbytes, ctx.rank, np.uint8)
    win = yield from ctx.rma.win_allocate(nbytes)
    yield from ctx.coll.barrier()
    left = (ctx.rank - 1) % ctx.nranks
    right = (ctx.rank + 1) % ctx.nranks
    for _ in range(iters):
        yield from win.post([left])
        yield from win.start([right])
        yield from win.put(data, right, 0)
        yield from win.complete()
        yield from win.wait()
    yield from ctx.coll.barrier()
    return ctx.now


# --- memory-model demos (repro check): seeded races + clean controls ---
#: ``racy_latent``'s slow-path threshold: safely above the default
#: get+flush latency at small rank counts (~1.9 us measured), safely
#: below it plus one injected delay spike (+5 us per delayed packet).
LATENT_THRESHOLD_NS = 3_500


def racy_put_put(ctx):
    """Every rank puts to the SAME 8 bytes of rank 0 under lock_all
    (shared -- no mutual exclusion): concurrent conflicting writes."""
    win = yield from ctx.rma.win_allocate(64)
    yield from win.lock_all()
    data = np.full(8, ctx.rank + 1, np.uint8)
    yield from win.put(data, 0, 0)
    yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    yield from win.free()
    return ctx.now


def clean_put_put(ctx):
    """The fixed twin: each rank writes its OWN 8-byte slot."""
    win = yield from ctx.rma.win_allocate(8 * ctx.nranks)
    yield from win.lock_all()
    data = np.full(8, ctx.rank + 1, np.uint8)
    yield from win.put(data, 0, 8 * ctx.rank)
    yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    yield from win.free()
    return ctx.now


def racy_acc_mix(ctx):
    """Concurrent accumulates with DIFFERENT ops on one location: MPI
    only guarantees atomicity for same-op (or NO_OP) accumulates."""
    win = yield from ctx.rma.win_allocate(8, disp_unit=8)
    yield from win.fence()
    op = Op.SUM if ctx.rank % 2 == 0 else Op.REPLACE
    yield from win.accumulate(np.int64(1), 0, 0, op)
    yield from win.fence(no_succeed=True)
    yield from win.free()
    return ctx.now


def clean_acc_sum(ctx):
    """The fixed twin: everyone uses SUM -- permitted-concurrent."""
    win = yield from ctx.rma.win_allocate(8, disp_unit=8)
    yield from win.fence()
    yield from win.accumulate(np.int64(1), 0, 0, Op.SUM)
    yield from win.fence(no_succeed=True)
    yield from win.free()
    return ctx.now


def racy_atomic_nonatomic(ctx):
    """A plain put overlapping a fetch-and-op on the same 8 bytes:
    atomics do not compose with non-atomic accesses."""
    win = yield from ctx.rma.win_allocate(8, disp_unit=8)
    yield from win.lock_all()
    if ctx.rank == 0:
        yield from win.put(np.full(8, 1, np.uint8), 0, 0)
    else:
        yield from win.fetch_and_op(np.int64(1), 0, 0, Op.SUM)
    yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    yield from win.free()
    return ctx.now


def racy_local(ctx):
    """Separate memory model: rank 0 polls its window with local loads
    while rank 1 puts into it -- no synchronization between them."""
    win = yield from ctx.rma.win_allocate(8)
    yield from ctx.coll.barrier()
    if ctx.rank == 0:
        for _ in range(4):
            win.local_load(8)
            yield from ctx.compute(2_000)
    elif ctx.rank == 1:
        yield from win.lock(0)
        yield from win.put(np.full(8, 7, np.uint8), 0, 0)
        yield from win.unlock(0)
    yield from ctx.coll.barrier()
    yield from win.free()
    return ctx.now


def clean_local(ctx):
    """The fixed twin: rank 0 only reads its window AFTER the exclusive
    lock/unlock pair of the writer (release via the lock word)."""
    win = yield from ctx.rma.win_allocate(8)
    yield from ctx.coll.barrier()
    if ctx.rank == 1:
        yield from win.lock(0, LockType.EXCLUSIVE)
        yield from win.put(np.full(8, 7, np.uint8), 0, 0)
        yield from win.unlock(0)
    yield from ctx.coll.barrier()
    if ctx.rank == 0:
        win.local_load(8)
    yield from win.free()
    return ctx.now


def clean_msg_sync(ctx):
    """Mixed two-sided/one-sided: rank 1 puts into rank 0's window, then
    tells rank 0 with a plain MPI-1 message; rank 0 reads its window only
    after the recv.  The send/recv match point is a true happens-before
    edge (put -> send -> recv -> load), so this must be spotless --
    before the msg hooks it was the canonical false local-remote race."""
    win = yield from ctx.rma.win_allocate(8)
    yield from ctx.coll.barrier()
    if ctx.rank == 1:
        yield from win.lock(0, LockType.EXCLUSIVE)
        yield from win.put(np.full(8, 7, np.uint8), 0, 0)
        yield from win.unlock(0)
        yield from ctx.mpi.send(0, b"done", tag=7)
    elif ctx.rank == 0:
        yield from ctx.mpi.recv(src=1, tag=7)
        win.local_load(8)
    yield from ctx.coll.barrier()
    yield from win.free()
    return ctx.now


def racy_msg_nosync(ctx):
    """Control twin: the message leaves BEFORE the put, so the recv
    orders nothing -- the local-remote race must still be reported
    (msg edges must not blanket-suppress findings)."""
    win = yield from ctx.rma.win_allocate(8)
    yield from ctx.coll.barrier()
    if ctx.rank == 1:
        yield from ctx.mpi.send(0, b"go", tag=7)
        yield from win.lock(0, LockType.EXCLUSIVE)
        yield from win.put(np.full(8, 7, np.uint8), 0, 0)
        yield from win.unlock(0)
    elif ctx.rank == 0:
        yield from ctx.mpi.recv(src=1, tag=7)
        win.local_load(8)
    yield from ctx.coll.barrier()
    yield from win.free()
    return ctx.now


def racy_same_origin(ctx):
    """One origin overwrites its own un-completed put (no flush between
    two puts to the same target bytes): unordered same-origin conflict."""
    win = yield from ctx.rma.win_allocate(8)
    yield from win.lock_all()
    if ctx.rank == 1 % ctx.nranks:
        yield from win.put(np.full(8, 1, np.uint8), 0, 0)
        yield from win.put(np.full(8, 2, np.uint8), 0, 0)
    yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    yield from win.free()
    return ctx.now


def clean_same_origin(ctx):
    """The fixed twin: a flush between the two puts orders them."""
    win = yield from ctx.rma.win_allocate(8)
    yield from win.lock_all()
    if ctx.rank == 1 % ctx.nranks:
        yield from win.put(np.full(8, 1, np.uint8), 0, 0)
        yield from win.flush(0)
        yield from win.put(np.full(8, 2, np.uint8), 0, 0)
    yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    yield from win.free()
    return ctx.now


def clean_strided(ctx):
    """Interleaving-but-disjoint vector datatypes are NOT races: rank 1
    writes the even 8-byte lanes, rank 2 the odd lanes, concurrently."""
    lanes = 8
    win = yield from ctx.rma.win_allocate(16 * lanes)
    yield from win.lock_all()
    # Every-other-lane vector: `lanes` blocks of 8 bytes, stride 16.
    vec = Vector(lanes, 8, 16, BYTE)
    data = np.full(8 * lanes, ctx.rank, np.uint8)
    if ctx.rank == 1 % ctx.nranks:
        yield from win.put(data, 0, 0, target_datatype=vec, count=1)
    elif ctx.rank == 2 % ctx.nranks:
        yield from win.put(data, 0, 8, target_datatype=vec, count=1)
    yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    yield from win.free()
    return ctx.now


def racy_latent(ctx, threshold_ns: int = LATENT_THRESHOLD_NS):
    """Latency-dependent aliasing: a rank whose measured get+flush time
    exceeds ``threshold_ns`` reports into the shared slot 0 that every
    rank reads -- racy only when the schedule actually produces a slow
    flush (one delayed packet on its get or flush is enough)."""
    win = yield from ctx.rma.win_allocate(8 * (ctx.nranks + 1))
    yield from win.lock_all()
    out = np.empty(8, np.uint8)
    t0 = ctx.now
    yield from win.get(out, 0, 0)
    yield from win.flush(0)
    slow = (ctx.now - t0) > threshold_ns
    slot = 0 if slow else 8 * (1 + ctx.rank)
    yield from win.put(np.full(8, ctx.rank, np.uint8), 0, slot)
    yield from win.flush(0)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    yield from win.free()
    return int(slow)


# --- ring programs: the full-fidelity side of the hybrid parity gate ---
WIN_BYTES = 4096


def _payload(rank: int, nbytes: int) -> np.ndarray:
    """The bytes ``rank``'s puts carry."""
    return np.full(nbytes, rank % 127 + 1, dtype=np.uint8)


def fence_ring(ctx, epochs: int = 2, nbytes: int = 8):
    """allocate; fence; epochs x (put 8 B right; fence)"""
    win = yield from ctx.rma.win_allocate(WIN_BYTES)
    right = (ctx.rank + 1) % ctx.nranks
    data = _payload(ctx.rank, nbytes)
    yield from win.fence()
    for e in range(epochs):
        yield from win.put(data, right, 0)
        yield from win.fence(no_succeed=(e == epochs - 1))
    return ctx.now


def pscw_ring(ctx, epochs: int = 2, nbytes: int = 8):
    """allocate; epochs x (post [left]; start [right]; put right;
    complete; wait)"""
    win = yield from ctx.rma.win_allocate(WIN_BYTES)
    left = (ctx.rank - 1) % ctx.nranks
    right = (ctx.rank + 1) % ctx.nranks
    data = _payload(ctx.rank, nbytes)
    for _ in range(epochs):
        yield from win.post([left])
        yield from win.start([right])
        yield from win.put(data, right, 0)
        yield from win.complete()
        yield from win.wait()
    return ctx.now


def lock_ring(ctx, epochs: int = 2, nbytes: int = 8):
    """allocate; epochs x (lock SHARED right; put; unlock)"""
    win = yield from ctx.rma.win_allocate(WIN_BYTES)
    right = (ctx.rank + 1) % ctx.nranks
    data = _payload(ctx.rank, nbytes)
    for _ in range(epochs):
        yield from win.lock(right, LockType.SHARED)
        yield from win.put(data, right, 0)
        yield from win.unlock(right)
    return ctx.now


def flush_ring(ctx, epochs: int = 2, nbytes: int = 8):
    """allocate; lock_all; epochs x (put right; flush); unlock_all"""
    win = yield from ctx.rma.win_allocate(WIN_BYTES)
    right = (ctx.rank + 1) % ctx.nranks
    data = _payload(ctx.rank, nbytes)
    yield from win.lock_all()
    for _ in range(epochs):
        yield from win.put(data, right, 0)
        yield from win.flush(right)
    yield from win.unlock_all()
    return ctx.now


# --- crash-recoverable programs (repro.ft) ---
def _ft_keys(seed: int, rank: int, nranks: int, layout: HashTableLayout,
             inserts: int) -> list[int]:
    """``rank``'s ``ft_hashtable`` keys: all owned by the next rank, keys
    ``2k`` and ``2k + 1`` on table slot ``k``.  Key ``i`` is the first of
    its seeded draws that :meth:`HashTableLayout.place` puts there."""
    keys: list[int] = []
    for i in range(inserts):
        where = ((rank + 1) % nranks, i // 2)
        j = 0
        while True:
            draw = derive_seed(seed, f"ftkey-{rank}-{i}-{j}")
            key = draw % ((1 << 62) - 1) + 1
            if layout.place(key, nranks) == where:
                break
            j += 1
        keys.append(key)
    return keys


def ft_hashtable(ctx, inserts: int = 4):
    """One rank of the crash-recoverable hashtable insert phase: the
    paper's :func:`~repro.apps.hashtable.rma_ht.rma_insert` (Section 4.1),
    one insert per :func:`~repro.ft.run_steps` step.

    The harness keeps the steady state collective-free; what the keys add
    is a **timing-independent final state**.  Every key of rank ``r`` is
    owned by rank ``(r + 1) % nranks``, so each owner's volume has one
    writer, and keys ``2k`` and ``2k + 1`` share table slot ``k``, so
    every second insert takes the overflow path (fetch-and-add, put,
    fetch-and-replace, put, flush).  The final table bytes are a pure
    function of the seed -- the same whether a crash happened or not, and
    under both ``spare`` and ``shrink`` recovery.

    Each rank's window is one :class:`HashTableLayout` volume plus the
    8-byte completion word after it.  Returns the volume as ``bytes``.
    """
    layout = HashTableLayout(table_slots=(inserts + 1) // 2,
                             heap_cells=max(1, inserts // 2))
    keys = _ft_keys(ctx.world.sim.seed, ctx.rank, ctx.nranks, layout, inserts)

    def create():
        win = yield from ctx.rma.win_allocate(layout.nbytes + 8, disp_unit=8)
        return (win,), win, layout.words

    def insert(windows, i):
        (win,) = windows
        yield from rma_insert(win, layout, keys[i])

    (win,) = yield from run_steps(ctx, create, inserts, insert)
    return win.seg.snapshot_bytes()[:layout.nbytes]


# --- transport programs the fault sweeps share ---
def put_flush(ctx, iters: int = 4, nbytes: int = 64):
    """Figure 4a's put loop: every rank puts its bytes into its right
    neighbor's window ``iters`` times, each put completed by a flush,
    then gets them back.  Returns the bytes the get read."""
    win = yield from ctx.rma.win_allocate(max(nbytes, 8))
    right = (ctx.rank + 1) % ctx.nranks
    yield from win.lock_all()
    for _ in range(iters):
        yield from win.put(_payload(ctx.rank, nbytes), right, 0)
        yield from win.flush(right)
    got = np.zeros(nbytes, np.uint8)
    yield from win.get(got, right, 0)
    yield from win.flush(right)
    yield from win.unlock_all()
    return got


def get_flush(ctx, iters: int = 2, nbytes: int = 64):
    """Figure 4a's get loop: every rank seeds its own window, then gets
    its right neighbor's bytes ``iters`` times, each get completed by a
    flush.  Returns the bytes the last get read."""
    win = yield from ctx.rma.win_allocate(max(nbytes, 8))
    yield from win.lock_all()
    yield from win.put(_payload(ctx.rank, nbytes), ctx.rank, 0)
    yield from win.flush(ctx.rank)
    yield from ctx.coll.barrier()
    right = (ctx.rank + 1) % ctx.nranks
    got = np.zeros(nbytes, np.uint8)
    for _ in range(iters):
        yield from win.get(got, right, 0)
        yield from win.flush(right)
    yield from win.unlock_all()
    return got


#: Twice MPI-1's eager threshold (``Mpi1Params.eager_threshold``, 8 KiB):
#: every message takes the RTS / CTS / data rendezvous.
RENDEZVOUS_BYTES = 16_384


def rendezvous(ctx, nbytes: int = RENDEZVOUS_BYTES, reps: int = 6):
    """MPI-1 rendezvous in pairs: each even rank sends ``reps`` patterned
    messages to the next odd rank, which compares every byte; then a
    barrier.  Returns whether every message arrived intact (a rank
    without a partner returns True)."""
    pattern = (np.arange(nbytes, dtype=np.int64) % 251).astype(np.uint8)
    peer = ctx.rank ^ 1
    ok = True
    for i in range(reps if peer < ctx.nranks else 0):
        if ctx.rank % 2 == 0:
            yield from ctx.mpi.send(peer, pattern + i, tag=5)
        else:
            got = yield from ctx.mpi.recv(peer, tag=5)
            ok = ok and bool((got == pattern + i).all())
    yield from ctx.coll.barrier()
    return ok


def lock_contention(ctx, nbytes: int = 8):
    """Every rank takes the same exclusive lock on rank 0 and writes its
    own slice of rank 0's window; after a barrier each reads the whole
    window back under a shared lock.  Returns the bytes read."""
    win = yield from ctx.rma.win_allocate(nbytes * ctx.nranks)
    yield from ctx.coll.barrier()
    yield from win.lock(0, LockType.EXCLUSIVE)
    yield from win.put(_payload(ctx.rank, nbytes), 0, nbytes * ctx.rank)
    yield from win.flush(0)
    yield from win.unlock(0)
    yield from ctx.coll.barrier()
    got = np.zeros(nbytes * ctx.nranks, np.uint8)
    yield from win.lock(0, LockType.SHARED)
    yield from win.get(got, 0, 0)
    yield from win.flush(0)
    yield from win.unlock(0)
    yield from ctx.coll.barrier()
    return got


def accumulate(ctx, n: int = 64, reps: int = 2):
    """MIN accumulates on ``float64`` into rank 0 under ``lock_all``: the
    NIC has no MIN on a double, so each takes the software fallback under
    the accumulate lock.  Rank ``r`` folds ``-(r + 1) - i`` into element
    ``i``, the last time with ``get_accumulate``, and returns what that
    fetched.  MIN bounds it with no collective after the start: at most
    ``r``'s own values (its earlier accumulates are ordered before it)
    and at least the smallest value any rank folds in."""
    win = yield from ctx.rma.win_allocate(8 * n)
    vals = -(ctx.rank + 1.0) - np.arange(n, dtype=np.float64)
    yield from win.lock_all()
    for _ in range(reps - 1):
        yield from win.accumulate(vals, 0, 0, Op.MIN)
        yield from win.flush(0)
    old = yield from win.get_accumulate(vals, 0, 0, Op.MIN)
    yield from win.flush(0)
    yield from win.unlock_all()
    return old


# --- the paper's application studies (Section 4) and their comparators ---
#: The hashtable entries' volume, the transport tests' geometry: 16
#: table slots, heap room for tens of inserts per rank.
HT_LAYOUT = HashTableLayout(table_slots=16, heap_cells=256)


def _hashtable(ctx, program, inserts: int):
    """``program``'s timed insert phase on :data:`HT_LAYOUT`; returns
    ``(elapsed_ns, keys, volume)`` of this rank."""
    box: dict = {}
    elapsed = yield from program(ctx, HT_LAYOUT, inserts, box)
    return elapsed, box["keys"][ctx.rank], box["volumes"][ctx.rank]


def hashtable_rma(ctx, inserts: int = 2):
    """Figure 7a's foMPI curve: :mod:`~repro.apps.hashtable.rma_ht`'s
    lock-free inserts."""
    return (yield from _hashtable(ctx, rma_insert_program, inserts))


def hashtable_upc(ctx, inserts: int = 2):
    """Figure 7a's UPC curve: the same inserts through the UPC layer."""
    return (yield from _hashtable(ctx, upc_insert_program, inserts))


def hashtable_mpi1(ctx, inserts: int = 2):
    """Figure 7a's MPI-1 curve: active-message inserts with all-to-all
    termination."""
    return (yield from _hashtable(ctx, mpi1_insert_program, inserts))


#: ``kv_serve``'s schedule: 16 requests over 16 keys.
KV_SPEC = ServeSpec(nkeys=16, total_requests=16)


def kv_serve(ctx):
    """The RMA key-value store serving :data:`KV_SPEC` open-loop
    (:func:`repro.serve.driver.kv_serve_program`)."""
    return (yield from kv_serve_program(ctx, KV_SPEC))


#: One fixed CG iteration on a 2^4 local lattice.
MILC_SPEC = MilcSpec(local=(2, 2, 2, 2), maxiter=1, tol=0.0)


def milc_rma(ctx):
    """Figure 8's foMPI curve: the MILC CG proxy, RMA halo gets."""
    return (yield from milc_program(ctx, MILC_SPEC, "rma"))


def milc_mpi1(ctx):
    """Figure 8's MPI-1 curve: send / recv halos."""
    return (yield from milc_program(ctx, MILC_SPEC, "mpi1"))


def milc_upc(ctx):
    """Figure 8's UPC curve: UPC halo transfers."""
    return (yield from milc_program(ctx, MILC_SPEC, "upc"))


#: DSDE's target draw, fixed so :func:`_dsde_wrong` can recompute it.
DSDE_SEED, DSDE_K = 5, 2


def dsde_nbx(ctx):
    """Figure 7b's NBX protocol: ``DSDE_K`` targets per rank, nonblocking
    sends plus a nonblocking barrier."""
    return (yield from dsde_program(ctx, "nbx", DSDE_K, seed=DSDE_SEED))


#: A 12 x 12 x 4 transform: the process grid divides it at 1 to 4 ranks.
FFT_SPEC = FftSpec(nx=12, ny=12, nz=4, chunks=1)


def fft(ctx):
    """Figure 7c's foMPI curve: the 3-D FFT with slab-overlapped puts.
    Returns this rank's block of the transform."""
    box: dict = {}
    yield from fft_program(ctx, FFT_SPEC, "rma_overlap", box)
    return box[ctx.rank]


def caf_coarray(ctx, nbytes: int = 64):
    """The CAF comparator: ``buf(:)[right] = mine``, ``sync all``, then a
    read of this image's own ``buf``, which its left neighbor wrote."""
    caf = ctx.caf
    co = yield from caf.coarray_alloc(nbytes)
    yield from caf.assign(co, (ctx.rank + 1) % ctx.nranks, 0,
                          _payload(ctx.rank, nbytes))
    yield from caf.sync_all()
    got = yield from caf.read(co, ctx.rank, 0, nbytes)
    yield from caf.sync_all()
    return got


def mcs_lock(ctx):
    """The MCS queue lock (Section 2.3) guarding a read-modify-write of
    a counter on rank 0: get, flush, put the count plus one, flush.
    Returns the count this rank read inside its critical section."""
    win = yield from ctx.rma.win_allocate(8, disp_unit=8)
    lock = McsLock(win)
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    yield from lock.acquire()
    cur = np.zeros(1, np.int64)
    yield from win.get(cur, 0, 0)
    yield from win.flush(0)
    yield from win.put(cur + 1, 0, 0)
    yield from win.flush(0)
    yield from lock.release()
    yield from win.unlock_all()
    return int(cur[0])


def dynamic_window(ctx, nbytes: int = 64):
    """A dynamic window (Section 2.2): attach a region, exchange its
    address, put into the right neighbor's region, detach.  Returns the
    bytes the left neighbor put here."""
    win = yield from ctx.rma.win_create_dynamic()
    seg = ctx.space.alloc(nbytes)
    desc = yield from win.attach(seg)
    vaddrs = yield from ctx.coll.allgather(seg.vaddr)
    right = (ctx.rank + 1) % ctx.nranks
    yield from win.lock_all()
    yield from win.put(_payload(ctx.rank, nbytes), right, vaddrs[right])
    yield from win.flush(right)
    yield from win.unlock_all()
    yield from ctx.coll.barrier()
    yield from win.detach(desc)
    return seg.read(0, nbytes)


# --- verify: the number of wrong outputs of a run ---
def _wrong(res: RunResult, ok: Callable[[int, int, Any], bool]) -> int:
    """Ranks that raised or whose return ``v`` fails
    ``ok(rank, nranks, v)``."""
    p = len(res.returns)
    return sum(isinstance(v, BaseException) or not ok(r, p, v)
               for r, v in enumerate(res.returns))


def _from_left(res: RunResult) -> int:
    # Each rank holds the bytes its left neighbor put there.
    return _wrong(res, lambda r, p, v: np.array_equal(
        v, _payload((r - 1) % p, len(v))))


def _own(res: RunResult) -> int:
    # Each rank read back the bytes it put.
    return _wrong(res, lambda r, p, v: np.array_equal(
        v, _payload(r, len(v))))


def _slices(res: RunResult) -> int:
    # Every rank read every rank's slice, in rank order.
    return _wrong(res, lambda r, p, v: np.array_equal(
        v, np.concatenate([_payload(q, len(v) // p) for q in range(p)])))


def _from_right(res: RunResult) -> int:
    # Each rank read the bytes its right neighbor seeded.
    return _wrong(res, lambda r, p, v: np.array_equal(
        v, _payload((r + 1) % p, len(v))))


def _all_true(res: RunResult) -> int:
    return _wrong(res, lambda r, p, v: v is True)


def _putget_wrong(res: RunResult) -> int:
    # Each rank reads back, from its right neighbor, the byte it put there.
    return _wrong(res, lambda r, p, v: v == r % 256)


def _locks_wrong(res: RunResult) -> int:
    # Every fetch-and-add returns a distinct old count below the total.
    if _failed(res):
        return _failed(res)
    olds = res.returns
    total = LOCKS_ITERS * len(olds)
    return (len(olds) - len(set(olds))
            + sum(not 0 <= v < total for v in olds))


def _accumulate_wrong(res: RunResult) -> int:
    # At least the smallest value any rank folds in, at most rank r's own.
    return _wrong(res, lambda r, p, v: bool(
        (-float(p) - np.arange(len(v)) <= v).all()
        and (v <= -(r + 1.0) - np.arange(len(v))).all()))


def _hashtable_wrong(res: RunResult) -> int:
    """Failed ranks, else 1 if a key is not stored exactly once at its
    owner (:func:`~repro.apps.hashtable.common.verify_contents`)."""
    if _failed(res):
        return _failed(res)
    _, keys, volumes = zip(*res.returns)
    try:
        verify_contents(HT_LAYOUT, list(volumes), list(keys))
    except AssertionError:
        return 1
    return 0


def _kv_wrong(res: RunResult) -> int:
    """Keys missing or extra, and keys never put whose final value is
    not the preload plus every update."""
    if _failed(res):
        return _failed(res)
    got = merged_contents(res)
    keys, determined = expected_contents(KV_SPEC, len(res.returns))
    return (len(keys ^ set(got))
            + sum(got.get(k) != v for k, v in determined.items()))


def _milc_wrong(res: RunResult) -> int:
    """Ranks that ran other than ``maxiter`` iterations, or whose
    residual is not rank 0's (an allreduce result, so equal everywhere)
    in (0, 1)."""
    first = res.returns[0]
    ref = None if isinstance(first, BaseException) else first[2]
    return _wrong(res, lambda r, p, v: (
        v[1] == MILC_SPEC.maxiter and v[2] == ref and 0.0 < ref < 1.0))


def _dsde_wrong(res: RunResult) -> int:
    # Each rank receives exactly the payloads its senders drew it for.
    want = expected_incoming(DSDE_SEED, len(res.returns), DSDE_K)
    return _wrong(res, lambda r, p, v: v[1] == want[r])


def _fft_wrong(res: RunResult) -> int:
    """Points of the transform that differ from ``numpy.fft.fftn``."""
    if _failed(res):
        return _failed(res)
    p = len(res.returns)
    got = gather_result(FFT_SPEC, p, dict(enumerate(res.returns)))
    ref = np.fft.fftn(_initial_block(FFT_SPEC, 0, 0, FFT_SPEC.ny,
                                     FFT_SPEC.nz))
    return int((~np.isclose(got, ref, rtol=1e-9, atol=1e-9)).sum())


def _mcs_wrong(res: RunResult) -> int:
    """Counts read more than once or never: with mutual exclusion and no
    lost update the ranks read 0 .. p - 1, one each."""
    if _failed(res):
        return _failed(res)
    return len(set(range(len(res.returns))) ^ set(res.returns))


# --- the table and its runner ---
WORKLOADS: dict[str, Workload] = {
    "putget": Workload(putget, verify=_putget_wrong),
    "locks": Workload(locks, verify=_locks_wrong),
    "fence": Workload(fence),
    "pscw": Workload(pscw),
    "racy_put_put": Workload(racy_put_put, expect="put-put"),
    "racy_acc_mix": Workload(racy_acc_mix, expect="accumulate-op-mix"),
    "racy_atomic_nonatomic": Workload(racy_atomic_nonatomic,
                                      expect="atomic-nonatomic"),
    "racy_local": Workload(racy_local, expect="local-remote"),
    "racy_same_origin": Workload(racy_same_origin, expect="same-origin"),
    "racy_msg_nosync": Workload(racy_msg_nosync, expect="local-remote"),
    "racy_latent": Workload(racy_latent,
                            latent=frozenset({"put-get", "put-put"})),
    "clean_put_put": Workload(clean_put_put),
    "clean_msg_sync": Workload(clean_msg_sync),
    "clean_acc_sum": Workload(clean_acc_sum),
    "clean_local": Workload(clean_local),
    "clean_same_origin": Workload(clean_same_origin),
    "clean_strided": Workload(clean_strided),
    "fence_ring": Workload(
        fence_ring, scale=WorkloadSpec("fence", epochs=2, nbytes=8)),
    "pscw_ring": Workload(
        pscw_ring, scale=WorkloadSpec("pscw", epochs=2, nbytes=8)),
    "lock_ring": Workload(
        lock_ring, scale=WorkloadSpec("lock", epochs=2, nbytes=8)),
    "flush_ring": Workload(
        flush_ring, scale=WorkloadSpec("flush", epochs=2, nbytes=8)),
    "ft_hashtable": Workload(ft_hashtable, ft=True),
    "ft_kvstore": Workload(ft_kvstore, ft=True),
    "put_flush": Workload(put_flush, verify=_own),
    "get_flush": Workload(get_flush, verify=_from_right),
    "rendezvous": Workload(rendezvous, verify=_all_true),
    "lock_contention": Workload(lock_contention, verify=_slices),
    "accumulate": Workload(accumulate, verify=_accumulate_wrong),
    "hashtable_rma": Workload(hashtable_rma, verify=_hashtable_wrong),
    "hashtable_upc": Workload(hashtable_upc, verify=_hashtable_wrong),
    "hashtable_mpi1": Workload(hashtable_mpi1, verify=_hashtable_wrong),
    "kv_serve": Workload(kv_serve, latent=frozenset({"local-remote"}),
                         verify=_kv_wrong),
    "milc_rma": Workload(milc_rma, verify=_milc_wrong),
    "milc_mpi1": Workload(milc_mpi1, verify=_milc_wrong),
    "milc_upc": Workload(milc_upc, verify=_milc_wrong),
    "dsde_nbx": Workload(dsde_nbx, verify=_dsde_wrong),
    "fft": Workload(fft, verify=_fft_wrong),
    "caf_coarray": Workload(caf_coarray, verify=_from_left),
    "mcs_lock": Workload(mcs_lock, verify=_mcs_wrong),
    "dynamic_window": Workload(dynamic_window, verify=_from_left),
}


def names(*, scale: bool = False) -> list[str]:
    """Registry keys in table order; ``scale=True`` keeps only the
    entries with a hybrid twin."""
    return [k for k, wl in WORKLOADS.items() if wl.scale or not scale]


def lookup(name: str, *, scale: bool = False) -> Workload:
    """The entry registered as ``name``.

    ``scale=True`` additionally requires a hybrid twin.  The one error
    for a name that does not resolve lists the keys that would.
    """
    wl = WORKLOADS.get(name)
    if wl is None:
        raise ValueError(f"unknown workload {name!r} "
                         f"(have {' '.join(names(scale=scale))})")
    if scale and wl.scale is None:
        raise ValueError(f"workload {name!r} has no hybrid twin "
                         f"(scale workloads: {' '.join(names(scale=True))})")
    return wl


def run_workload(name: str, nranks: int = 4, *, seed: int = SimConfig.seed,
                 ranks_per_node: int = 1, obs: bool = False,
                 check: bool = False,
                 faults: FaultPlan | None = None, ft: FTConfig | None = None,
                 **kwargs: Any) -> RunResult:
    """Run one registry entry; the instruments land on the result.

    ``obs`` / ``check`` attach observability (``res.obs``) and the
    memory-model checker (``res.check``).  ``faults`` / ``ft`` are the
    run's fault plan and rollback-recovery policy.  Remaining keyword
    arguments go to :func:`~repro.runtime.job.run_spmd` (``gemini=``,
    program arguments).
    """
    program = lookup(name).program
    return run_spmd(program, nranks,
                    machine=MachineConfig(ranks_per_node=ranks_per_node),
                    sim=SimConfig(seed=seed),
                    faults=faults, ft=ft,
                    obs=ObsConfig(enabled=True) if obs else None,
                    check=CheckConfig(enabled=True) if check else None,
                    **kwargs)
