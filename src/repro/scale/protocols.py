"""Vectorized protocol count models and the analytic clock of the scale mode.

Each canonical workload (fence, pscw, lock, flush -- the paper's four
synchronization substrates) exists in two forms that must agree:

1. the **full-fidelity SPMD program** (the ``*_ring`` entries of
   :mod:`repro.workloads`), run on the real runtime via ``run_spmd`` at
   overlapping sizes;
2. the **vectorized count model** here, which replays the same
   protocol round by round over numpy vectors of all p ranks and feeds
   :class:`~repro.scale.soa.ScaleCounters` -- message counts are exact
   by construction.

The parity layer (:mod:`repro.scale.parity`) checks (2) against (1) as
whole-stats dict equality.  Beyond the sizes (1) can reach, (2)'s
message total is held to the paper's closed forms
(:func:`closed_form_messages`) and its per-rank maximum to the
O(log p) budget (:func:`olog_bounds`).  Simulated time is not
simulated: :func:`model_time_ns` sums the paper's Section 2-3
performance models (:data:`~repro.models.params_fompi.PAPER_MODELS`)
over the phases every rank runs in lockstep.

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

from dataclasses import dataclass

import numpy as np

from repro.models.params_fompi import PAPER_MODELS
from repro.rma.params import FompiParams
from repro.rma.window import CTRL_WORDS_BASE
from repro.scale import collmodel
from repro.scale.soa import ScaleCounters, ScaleTopology

__all__ = ["WorkloadSpec", "closed_form_messages", "ctrl_words_per_rank",
           "model_counts", "model_time_ns", "olog_bounds", "olog_violations",
           "phase_times_ns"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one canonical scale workload."""

    name: str
    epochs: int = 2
    nbytes: int = 8

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
    """Analytic completion time (all ranks run in lockstep)."""
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
# Closed-form totals (the size-independent check on the replay above).
# ---------------------------------------------------------------------------

def closed_form_messages(spec: WorkloadSpec, topo: ScaleTopology) -> int:
    """The workload's total message count from the paper's closed forms.

    Independent of the round-by-round replay above (no vectors, no
    rounds), so a vectorisation slip in :func:`model_counts` at a size
    the full runtime cannot reach shows up as a disagreement here.
    """
    p, e = topo.nranks, spec.epochs
    pof2 = 1 << (p.bit_length() - 1)
    barrier = p * collmodel.ceil_log2(p)
    bcast = p - 1
    allreduce = pof2 * (pof2.bit_length() - 1) + 2 * (p - pof2)
    nodes = int(topo.node[-1]) + 1
    inter = nodes if nodes > 1 else 0       # ring edges that cross nodes
    body = {"fence": (1 + e) * barrier + e * p,
            "pscw": e * (2 * inter + p),
            "lock": 3 * e * p,
            "flush": (2 + e) * p}[spec.name]
    return bcast + allreduce + barrier + body


# ---------------------------------------------------------------------------
# O(log p) structural bounds.
# ---------------------------------------------------------------------------

def olog_bounds(spec: WorkloadSpec, p: int,
                counters: ScaleCounters) -> dict:
    """Structural O(log p)/O(k) bounds the count model must satisfy.

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


def olog_violations(spec: WorkloadSpec, p: int, bounds: dict) -> list[str]:
    """The budgets of :func:`olog_bounds` that ``bounds`` exceeds."""
    bad: list[str] = []
    if not bounds["max_remote_ops_ok"]:
        bad.append(
            f"{spec.name}@p={p}: max per-rank ops {bounds['max_remote_ops']}"
            f" exceeds O(log p) budget {bounds['max_remote_ops_budget']}")
    ctrl = bounds["control_words_per_rank"]
    if ctrl > ctrl_words_per_rank():
        bad.append(f"{spec.name}@p={p}: control memory {ctrl} words/rank "
                   f"exceeds O(1) budget {ctrl_words_per_rank()}")
    return bad
