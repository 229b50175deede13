"""The workload registry: every named demo program, once.

:data:`WORKLOADS` maps a name to a :class:`Workload` -- a small SPMD
program plus what each consumer must know about it -- and
:func:`run_workload` is the one named runner.  ``repro trace`` /
``report`` / ``check`` / ``scale`` on the CLI, the delay-bounded
explorer, the parity gate, the FT drivers and the CI ``check`` job all resolve
names here, and ``tests/test_workloads.py`` runs every oracle over every
entry.  Every program runs with no argument beyond ``ctx``.

Four groups, one per tool that introduced them:

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
  the paper's distributed hashtable (Section 4.1) with collision-free
  keys, and the served :class:`~repro.apps.kvstore.KvStore`
  (:func:`repro.serve.driver.ft_kvstore`); the crash-to-completion
  driver lives in :mod:`repro.ft.workloads`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

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
from repro.runtime.job import run_spmd
from repro.scale.protocols import WorkloadSpec
from repro.serve.driver import ft_kvstore
from repro.sim.random import derive_seed

__all__ = ["Workload", "WORKLOADS", "names", "lookup", "run_workload"]


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
    completion through a node crash under :mod:`repro.ft`.
    """

    program: Callable[..., Any]
    expect: str | None = None
    latent: frozenset[str] = frozenset()
    scale: WorkloadSpec | None = None
    ft: bool = False


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


def locks(ctx, iters: int = 6):
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


def _payload(ctx, nbytes: int) -> np.ndarray:
    return np.full(nbytes, ctx.rank % 127 + 1, dtype=np.uint8)


def fence_ring(ctx, epochs: int = 2, nbytes: int = 8):
    """allocate; fence; epochs x (put 8 B right; fence)"""
    win = yield from ctx.rma.win_allocate(WIN_BYTES)
    right = (ctx.rank + 1) % ctx.nranks
    data = _payload(ctx, nbytes)
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
    data = _payload(ctx, nbytes)
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
    data = _payload(ctx, nbytes)
    for _ in range(epochs):
        yield from win.lock(right, LockType.SHARED)
        yield from win.put(data, right, 0)
        yield from win.unlock(right)
    return ctx.now


def flush_ring(ctx, epochs: int = 2, nbytes: int = 8):
    """allocate; lock_all; epochs x (put right; flush); unlock_all"""
    win = yield from ctx.rma.win_allocate(WIN_BYTES)
    right = (ctx.rank + 1) % ctx.nranks
    data = _payload(ctx, nbytes)
    yield from win.lock_all()
    for _ in range(epochs):
        yield from win.put(data, right, 0)
        yield from win.flush(right)
    yield from win.unlock_all()
    return ctx.now


# --- crash-recoverable programs (repro.ft) ---
_MASK63 = (1 << 63) - 1
_SLOT = 16          # 8B key word + 8B value word


def ft_hashtable(ctx, nslots: int | None = None, inserts: int = 4):
    """One rank of the crash-recoverable hashtable insert phase, one
    insert per :func:`~repro.ft.run_steps` step.

    The harness keeps the steady state collective-free; what the program
    adds is a **timing-independent final state**.  Keys are constructed
    so that insert ``i`` of rank ``r`` hashes to the globally unique slot
    ``r*inserts + i`` (``key % nslots == slot``); no two ranks ever race
    for a slot, so the final table bytes are a pure function of the seed
    -- the same whether a crash happened or not, and under both ``spare``
    and ``shrink`` recovery.  The CAS probe loop is still the paper's
    linear probing; collisions just never occur by construction
    (``old == key`` re-claims are exactly the restored rank replaying
    its own inserts).

    Layout: every rank's window holds ``nslots`` (default
    ``nranks * inserts``) 16-byte slots plus the 8-byte completion
    word.  Global slot ``s`` lives on rank ``s % nranks`` at byte offset
    ``s*16``.  Returns the rank's final slot region as ``bytes``.
    """
    rank, nranks = ctx.rank, ctx.nranks
    if nslots is None:
        nslots = nranks * inserts
    if nslots < nranks * inserts:
        raise ValueError(f"nslots={nslots} < nranks*inserts="
                         f"{nranks * inserts}: slots must be collision-free")
    seed = ctx.world.sim.seed

    def create():
        win = yield from ctx.rma.win_allocate(nslots * _SLOT + 8,
                                              disp_unit=1)
        return (win,), win, nslots * _SLOT

    def insert(windows, i):
        (win,) = windows
        s = rank * inserts + i
        # key % nslots == s and key < 2**63 (signed-safe for the CAS),
        # key != 0 (zero marks an empty slot).
        m = derive_seed(seed, f"ftkey-{rank}-{i}") % ((1 << 40) - 1) + 1
        key = m * nslots + s
        value = derive_seed(seed, f"ftval-{rank}-{i}") & _MASK63
        j = key % nslots
        for _probe in range(nslots):
            owner, off = j % nranks, j * _SLOT
            old = yield from win.compare_and_swap(0, key, owner, off)
            if old == 0 or old == key:
                vbuf = np.frombuffer(int(value).to_bytes(8, "little"),
                                     dtype=np.uint8)
                yield from win.put(vbuf, owner, off + 8)
                return
            j = (j + 1) % nslots
        raise RuntimeError(f"rank {rank}: hashtable full")

    (win,) = yield from run_steps(ctx, create, inserts, insert)
    return win.seg.snapshot_bytes()[:nslots * _SLOT]


# --- the table and its runner ---
WORKLOADS: dict[str, Workload] = {
    "putget": Workload(putget),
    "locks": Workload(locks),
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
