"""Vectorized protocol models + sampled-rank mirrors for the hybrid mode.

Each canonical workload (fence, pscw, lock, flush -- the paper's four
synchronization substrates) exists in three forms that must agree:

1. the **full-fidelity SPMD program** (the ``*_ring`` entries of
   :mod:`repro.workloads`), run on the real runtime via ``run_spmd`` at
   overlapping sizes;
2. the **vectorized aggregate model** here, which replays the same
   protocol round by round over numpy vectors of all p ranks and feeds
   :class:`~repro.scale.soa.ScaleCounters` -- message counts are exact
   by construction;
3. the **sampled-rank DES program** here: a scalar mirror of the same
   protocol run as a real generator process on the DES kernel against
   the shared :class:`~repro.scale.soa.AggregateSoA`, charging the
   paper's measured cost models (:data:`~repro.models.params_fompi.
   PAPER_MODELS`) per operation.

The hybrid engine (:mod:`repro.scale.hybrid`) cross-checks (3) against
(2) per sampled rank and per kind; the parity layer
(:mod:`repro.scale.parity`) checks (2) against (1) as whole-stats dict
equality.

Message-count ground truth (derived from the runtime sources, asserted
by ``tests/scale`` and the CI scale-parity job):

* ``win_allocate`` = bcast(8 B) + allreduce(8 B) + barrier, one control
  block of ``CTRL_WORDS_BASE + ring + 8`` words per rank;
* ``fence`` = one dissemination barrier (mfence/gsync are message-free);
* ``put`` = one ``put`` (inter-node) or ``xpmem-store`` (intra-node)
  per chunk -- 8 B payloads are single-chunk;
* PSCW ``post``/``complete`` = one ``amo:custom``/``amo:add`` per
  *inter-node* group member (same-node appends are CPU atomics with no
  counted message); ``start``/``wait`` are local;
* ``lock``/``unlock`` (shared) = one AMO each on the target's word,
  ``cpu-amo:add`` intra-node; ``lock_all``/``unlock_all`` = one AMO
  each on the master's global word; ``flush`` is message-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.models.params_fompi import PAPER_MODELS
from repro.rma.params import FompiParams
from repro.rma.window import CTRL_WORDS_BASE
from repro.scale import collmodel
from repro.scale.soa import AggregateSoA, ScaleCounters, ScaleTopology

__all__ = ["WorkloadSpec", "model_counts", "model_time_ns",
           "phase_times_ns", "sampled_program", "preapply_aggregates",
           "check_invariants", "olog_bounds", "ctrl_words_per_rank"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one canonical scale workload."""

    name: str
    epochs: int = 2
    nbytes: int = 8
    description: str = ""

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs={self.epochs} must be >= 1")
        if not 1 <= self.nbytes <= 4096:
            raise ValueError(f"nbytes={self.nbytes} outside [1, 4096]")


def ctrl_words_per_rank(params: FompiParams | None = None) -> int:
    """Control words win_allocate charges per rank (mirrors _make_ctrl)."""
    params = params or FompiParams()
    return (CTRL_WORDS_BASE + params.pscw_ring_capacity
            + params.user_ctrl_words)


# ---------------------------------------------------------------------------
# Cost model (simulated time): the paper's measured constants.
# ---------------------------------------------------------------------------

def _t_fence_ns(p: int) -> int:
    """P_fence = 2.9 us * log2(p): one fence/barrier phase."""
    return int(round(PAPER_MODELS["fence"](p=max(2, p))))


def _t_alloc_ns(p: int) -> int:
    """win_allocate = bcast + allreduce + barrier, each an O(log p) phase."""
    return 3 * _t_fence_ns(p)


_T_INJECT = int(round(PAPER_MODELS["inject_inter"]()))
_T_POST = int(round(PAPER_MODELS["post"](k=1)))
_T_START = int(round(PAPER_MODELS["start"]()))
_T_COMPLETE = int(round(PAPER_MODELS["complete"](k=1)))
_T_WAIT = int(round(PAPER_MODELS["wait"]()))
_T_LOCK_SHRD = int(round(PAPER_MODELS["lock_shrd"]()))
_T_LOCK_ALL = int(round(PAPER_MODELS["lock_all"]()))
_T_UNLOCK = int(round(PAPER_MODELS["unlock"]()))
_T_FLUSH = int(round(PAPER_MODELS["flush"]()))


def _t_put_ns(nbytes: int) -> int:
    return int(round(PAPER_MODELS["put"](s=nbytes)))


def phase_times_ns(spec: WorkloadSpec, p: int) -> list[tuple[str, int]]:
    """Ordered (phase, duration_ns) schedule every rank follows."""
    name, e = spec.name, spec.epochs
    phases: list[tuple[str, int]] = [("win_allocate", _t_alloc_ns(p))]
    if name == "fence":
        phases.append(("fence", _t_fence_ns(p)))
        for _ in range(e):
            phases.append(("put", _T_INJECT))
            phases.append(("fence", _t_fence_ns(p)))
    elif name == "pscw":
        for _ in range(e):
            phases.append(("post", _T_POST))
            phases.append(("start", _T_START))
            phases.append(("put", _T_INJECT))
            phases.append(("complete", _T_COMPLETE))
            phases.append(("wait", _T_WAIT))
    elif name == "lock":
        for _ in range(e):
            phases.append(("lock", _T_LOCK_SHRD))
            phases.append(("put", _T_INJECT))
            phases.append(("unlock", _T_UNLOCK))
    elif name == "flush":
        phases.append(("lock_all", _T_LOCK_ALL))
        for _ in range(e):
            phases.append(("put", _t_put_ns(spec.nbytes)))
            phases.append(("flush", _T_FLUSH))
        phases.append(("unlock_all", _T_UNLOCK))
    else:
        raise ValueError(f"unknown scale workload {name!r}")
    return phases


def model_time_ns(spec: WorkloadSpec, p: int) -> int:
    """Hybrid simulated completion time (all ranks run in lockstep)."""
    return sum(dur for _name, dur in phase_times_ns(spec, p))


# ---------------------------------------------------------------------------
# Vectorized message counting (exact parity with the full runtime).
# ---------------------------------------------------------------------------

def _count_put_shift1(counters: ScaleCounters, topo: ScaleTopology,
                      nbytes: int) -> None:
    """Every rank puts ``nbytes`` to its right neighbor (single chunk)."""
    p = topo.nranks
    dst = (topo.ranks + 1) % p
    intra = topo.node[topo.ranks] == topo.node[dst]
    n_intra = int(np.count_nonzero(intra))
    if n_intra:
        counters.add("xpmem-store", topo.ranks[intra], nbytes)
    if n_intra < p:
        counters.add("put", topo.ranks[~intra], nbytes)


def _count_amo_shift(counters: ScaleCounters, topo: ScaleTopology,
                     shift: int, kind_inter: str,
                     kind_intra: str | None) -> None:
    """Every rank AMOs the word of rank ``(r + shift) % p``.

    ``kind_intra=None`` models the PSCW CPU-atomic path, which mutates
    the neighbor's list directly without a counted message.
    """
    p = topo.nranks
    dst = (topo.ranks + shift) % p
    intra = topo.node[topo.ranks] == topo.node[dst]
    n_intra = int(np.count_nonzero(intra))
    if n_intra and kind_intra is not None:
        counters.add(kind_intra, topo.ranks[intra], 8)
    if n_intra < p:
        counters.add(kind_inter, topo.ranks[~intra], 8)


def _count_amo_master(counters: ScaleCounters, topo: ScaleTopology) -> None:
    """Every rank AMOs the master's (rank 0) global lock word."""
    intra = topo.node == topo.node[0]
    n_intra = int(np.count_nonzero(intra))
    if n_intra:
        counters.add("cpu-amo:add", topo.ranks[intra], 8)
    if n_intra < topo.nranks:
        counters.add("amo:add", topo.ranks[~intra], 8)


def _count_win_allocate(counters: ScaleCounters, topo: ScaleTopology) -> None:
    collmodel.bcast(counters, topo, 8)
    collmodel.allreduce(counters, topo, 8)
    counters.add_control_memory_all(ctrl_words_per_rank())
    collmodel.barrier(counters, topo)


def model_counts(spec: WorkloadSpec, counters: ScaleCounters,
                 topo: ScaleTopology) -> None:
    """Feed the exact full-fidelity message counts for one workload."""
    name, e = spec.name, spec.epochs
    _count_win_allocate(counters, topo)
    if name == "fence":
        collmodel.barrier(counters, topo)
        for _ in range(e):
            _count_put_shift1(counters, topo, spec.nbytes)
            collmodel.barrier(counters, topo)
    elif name == "pscw":
        p = topo.nranks
        for _ in range(e):
            _count_amo_shift(counters, topo, p - 1, "amo:custom", None)
            _count_put_shift1(counters, topo, spec.nbytes)
            _count_amo_shift(counters, topo, 1, "amo:add", None)
    elif name == "lock":
        for _ in range(e):
            _count_amo_shift(counters, topo, 1, "amo:add", "cpu-amo:add")
            _count_put_shift1(counters, topo, spec.nbytes)
            _count_amo_shift(counters, topo, 1, "amo:add", "cpu-amo:add")
    elif name == "flush":
        _count_amo_master(counters, topo)
        for _ in range(e):
            _count_put_shift1(counters, topo, spec.nbytes)
        _count_amo_master(counters, topo)
    else:
        raise ValueError(f"unknown scale workload {name!r}")


# ---------------------------------------------------------------------------
# Scalar per-rank mirrors of the collectives (for sampled DES ranks).
# ---------------------------------------------------------------------------

def _rank_barrier_sends(rank: int, p: int):
    for step in range(collmodel.ceil_log2(p)):
        yield (rank + (1 << step)) % p


def _rank_bcast_sends(rank: int, p: int):
    m = 1
    while m < p:
        if rank % (2 * m) == 0 and rank + m < p:
            yield rank + m
        m <<= 1


def _rank_allreduce_sends(rank: int, p: int):
    if p == 1:
        return
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    if rank < 2 * rem and rank % 2 == 0:
        yield rank + 1
        return
    newrank = rank // 2 if rank < 2 * rem else rank - rem
    mask = 1
    while mask < pof2:
        partner_new = newrank ^ mask
        yield (partner_new * 2 + 1 if partner_new < rem
               else partner_new + rem)
        mask <<= 1
    if rank < 2 * rem and rank % 2 == 1:
        yield rank - 1


# ---------------------------------------------------------------------------
# Sampled-rank DES programs.
# ---------------------------------------------------------------------------

class SampledRank:
    """One sampled rank's protocol context over the shared SoA.

    ``issued`` records every counted message the rank's DES process
    issues, by kind -- the hybrid engine diffs it against the
    vectorized model's per-rank expectations after the run.
    """

    def __init__(self, env, soa: AggregateSoA, rank: int) -> None:
        self.env = env
        self.soa = soa
        self.topo = soa.topo
        self.rank = rank
        p = self.topo.nranks
        self.left = (rank - 1) % p
        self.right = (rank + 1) % p
        self.issued: dict[str, int] = {}
        self.waited_done = 0

    def charge(self, ns: int):
        # Every phase is real protocol progress; keep the livelock
        # watchdog (a pure observer) satisfied on long sampled runs.
        self.env.note_progress()
        return self.env.timeout(int(ns))

    def issue(self, kind: str) -> None:
        self.issued[kind] = self.issued.get(kind, 0) + 1

    def intra(self, other: int) -> bool:
        return self.topo.node_of(self.rank) == self.topo.node_of(other)

    def issue_send(self, dst: int) -> None:
        self.issue("mpi1-intra" if self.intra(dst) else "mpi1-inter")

    def issue_put(self, dst: int) -> None:
        self.issue("xpmem-store" if self.intra(dst) else "put")

    def issue_amo(self, dst: int, op: str = "add") -> None:
        self.issue(f"cpu-amo:{op}" if self.intra(dst) else f"amo:{op}")

    # -- protocol phases (each mutates state, then lets time pass) ------
    def coll_barrier(self) -> None:
        p = self.topo.nranks
        for dst in _rank_barrier_sends(self.rank, p):
            self.issue_send(dst)

    def win_allocate(self) -> None:
        p = self.topo.nranks
        for dst in _rank_bcast_sends(self.rank, p):
            self.issue_send(dst)
        for dst in _rank_allreduce_sends(self.rank, p):
            self.issue_send(dst)
        self.coll_barrier()

    def fence(self) -> None:
        self.coll_barrier()
        self.soa.fence_close(self.rank)

    def put_right(self) -> None:
        self.issue_put(self.right)

    def lock_shared_right(self) -> None:
        self.soa.lock_acquire_shared(self.right)
        self.issue_amo(self.right)

    def unlock_right(self) -> None:
        self.soa.lock_release_shared(self.right)
        self.issue_amo(self.right)

    def lock_all(self) -> None:
        from repro.rma.locks import GLOBAL_SHARED_UNIT
        self.soa.global_lock += GLOBAL_SHARED_UNIT
        self.issue_amo(0)

    def unlock_all(self) -> None:
        from repro.rma.locks import GLOBAL_SHARED_UNIT
        self.soa.global_lock -= GLOBAL_SHARED_UNIT
        self.issue_amo(0)

    def pscw_post(self) -> None:
        # Announce to the access peer (left accesses us): append into its
        # local matching list; CPU atomic intra-node (no counted message).
        self.soa.pscw_post_to(self.left)
        if not self.intra(self.left):
            self.issue("amo:custom")

    def pscw_start(self) -> None:
        self.soa.pscw_start_consume(self.rank)

    def pscw_complete(self) -> None:
        self.soa.pscw_complete_to(self.right)
        if not self.intra(self.right):
            self.issue("amo:add")

    def pscw_wait(self) -> None:
        if self.soa.pscw_done[self.rank] - self.waited_done < 1:
            raise RuntimeError(
                f"hybrid PSCW model: wait() on rank {self.rank} saw no "
                "completion")
        self.waited_done += 1


def sampled_program(spec: WorkloadSpec, ctx: SampledRank):
    """Generator process for one sampled rank: the scalar protocol
    mirror, phase-for-phase in lockstep with :func:`phase_times_ns`.

    State is mutated *before* each phase's timeout and checked only
    after a later nonzero timeout, so all same-tick mutations across
    sampled ranks are visible before any rank's blocking check runs.
    """
    name, e = spec.name, spec.epochs
    ctx.win_allocate()
    yield ctx.charge(_t_alloc_ns(ctx.topo.nranks))
    if name == "fence":
        ctx.fence()
        yield ctx.charge(_t_fence_ns(ctx.topo.nranks))
        for _ in range(e):
            ctx.put_right()
            yield ctx.charge(_T_INJECT)
            ctx.fence()
            yield ctx.charge(_t_fence_ns(ctx.topo.nranks))
    elif name == "pscw":
        for _ in range(e):
            ctx.pscw_post()
            yield ctx.charge(_T_POST)
            ctx.pscw_start()
            yield ctx.charge(_T_START)
            ctx.put_right()
            yield ctx.charge(_T_INJECT)
            ctx.pscw_complete()
            yield ctx.charge(_T_COMPLETE)
            ctx.pscw_wait()
            yield ctx.charge(_T_WAIT)
    elif name == "lock":
        for _ in range(e):
            ctx.lock_shared_right()
            yield ctx.charge(_T_LOCK_SHRD)
            ctx.put_right()
            yield ctx.charge(_T_INJECT)
            ctx.unlock_right()
            yield ctx.charge(_T_UNLOCK)
    elif name == "flush":
        ctx.lock_all()
        yield ctx.charge(_T_LOCK_ALL)
        for _ in range(e):
            ctx.put_right()
            yield ctx.charge(_t_put_ns(spec.nbytes))
            yield ctx.charge(_T_FLUSH)
        ctx.unlock_all()
        yield ctx.charge(_T_UNLOCK)
    else:
        raise ValueError(f"unknown scale workload {name!r}")
    return ctx.rank


# ---------------------------------------------------------------------------
# Aggregate pre-application + end-of-run invariants.
# ---------------------------------------------------------------------------

def preapply_aggregates(spec: WorkloadSpec, soa: AggregateSoA,
                        sampled_mask: np.ndarray) -> None:
    """Apply the aggregate ranks' state effects vectorized.

    The canonical workloads are contention-free by construction (shared
    locks only, one PSCW poster/completer per rank, uniform fence
    epochs), so aggregate effects commute with the sampled DES
    processes and can be applied up front.  Shared-lock traffic between
    aggregate ranks is a net no-op on the lock words (acquire+release
    cancel within each iteration) and is therefore not materialized;
    lock_all registrations *are* held across the epoch and are released
    by :func:`release_aggregates` after the DES drains.
    """
    agg = ~sampled_mask
    e = spec.epochs
    p = soa.topo.nranks
    if spec.name == "fence":
        soa.fence_epoch[agg] += e + 1
    elif spec.name == "pscw":
        agg_ranks = soa.topo.ranks[agg]
        # posts land in the left neighbor's list; completes in the
        # right neighbor's counter; starts consume the rank's own list.
        np.add.at(soa.pscw_posted, (agg_ranks - 1) % p, e)
        np.add.at(soa.pscw_done, (agg_ranks + 1) % p, e)
        soa.pscw_consumed[agg] += e
    elif spec.name == "flush":
        from repro.rma.locks import GLOBAL_SHARED_UNIT
        soa.global_lock += GLOBAL_SHARED_UNIT * int(np.count_nonzero(agg))


def release_aggregates(spec: WorkloadSpec, soa: AggregateSoA,
                       sampled_mask: np.ndarray) -> None:
    """Undo the held aggregate registrations after the epoch closes."""
    if spec.name == "flush":
        from repro.rma.locks import GLOBAL_SHARED_UNIT
        agg = int(np.count_nonzero(~sampled_mask))
        soa.global_lock -= GLOBAL_SHARED_UNIT * agg


def check_invariants(spec: WorkloadSpec, soa: AggregateSoA) -> list[str]:
    """End-of-run state invariants across sampled + aggregate tiers."""
    bad: list[str] = []
    e = spec.epochs
    if spec.name == "fence":
        if not bool(np.all(soa.fence_epoch == e + 1)):
            bad.append("fence epoch counters not uniform at epochs+1")
    elif spec.name == "pscw":
        if not bool(np.all(soa.pscw_posted == e)):
            bad.append("PSCW matching lists did not receive epochs posts")
        if not bool(np.all(soa.pscw_consumed == soa.pscw_posted)):
            bad.append("PSCW matching lists not fully consumed")
        if not bool(np.all(soa.pscw_done == e)):
            bad.append("PSCW completion counters not at epochs")
    elif spec.name in ("lock", "flush"):
        if not bool(np.all(soa.lock_word == 0)):
            bad.append("lock words not released")
        if soa.global_lock != 0:
            bad.append("global lock word not released")
    return bad


# ---------------------------------------------------------------------------
# O(log p) structural bounds.
# ---------------------------------------------------------------------------

def olog_bounds(spec: WorkloadSpec, p: int,
                counters: ScaleCounters) -> dict:
    """Structural O(log p)/O(k) bounds the hybrid run must satisfy.

    ``max_remote_ops`` is checked against an explicit per-rank budget
    derived from the protocol structure: every rank participates in a
    bounded number of O(log p) collective phases plus O(1) ops per
    epoch, so the per-rank message count is O(log p) -- the paper's
    scalability claim, asserted on *counted* operations.
    """
    logp = collmodel.ceil_log2(p)
    e = spec.epochs
    barriers = {"fence": 2 + e, "pscw": 1, "lock": 1, "flush": 1}[spec.name]
    # win_allocate adds one bcast send + <= log2(pof2)+2 allreduce sends.
    # win_allocate: bcast root sends log p messages, an allreduce
    # participant sends log2(pof2) + 1 (fold or foldback) at most.
    coll_extra = 2 * logp + 2
    per_epoch = {"fence": 1, "pscw": 3, "lock": 3, "flush": 1}[spec.name]
    fixed = 2 if spec.name == "flush" else 0
    budget = barriers * max(1, logp) + coll_extra + e * per_epoch + fixed
    max_ops = int(counters.remote_ops.max(initial=0))
    return {
        "log2p": logp,
        "fence_rounds": logp,
        "notify_fanout_rounds": logp,
        "lock_remote_amos_per_acquire": 1,
        "pscw_msgs_per_epoch_per_rank": 3,
        "max_remote_ops": max_ops,
        "max_remote_ops_budget": budget,
        "max_remote_ops_ok": max_ops <= budget,
        "control_words_per_rank": int(counters.control_memory.max(initial=0)),
    }


def olog_violations(spec: WorkloadSpec, p: int,
                    counters: ScaleCounters) -> list[str]:
    bounds = olog_bounds(spec, p, counters)
    bad: list[str] = []
    if not bounds["max_remote_ops_ok"]:
        bad.append(
            f"{spec.name}@p={p}: max per-rank ops {bounds['max_remote_ops']}"
            f" exceeds O(log p) budget {bounds['max_remote_ops_budget']}")
    ctrl = bounds["control_words_per_rank"]
    if ctrl > ctrl_words_per_rank():
        bad.append(f"{spec.name}@p={p}: control memory {ctrl} words/rank "
                   f"exceeds O(1) budget {ctrl_words_per_rank()}")
    if math.log2(max(2, p)) < bounds["log2p"] - 1:
        bad.append("inconsistent log2p bound")  # pragma: no cover
    return bad
