"""Vectorized round-by-round mirrors of the MPI-1 collectives.

Exact message-count parity with the full runtime cannot come from
closed-form formulas alone (non-powers-of-two fold, binomial-tree leaf
truncation, intra- vs inter-node classification); instead each function
here replays the *same algorithm* as :mod:`repro.runtime.collectives`,
round by round, with the per-round sender/receiver sets held as numpy
vectors over all p ranks.  Counts are then exact by construction: the
dissemination barrier issues ``p * ceil_log2(p)`` sends with the same
``(r + 2^step) % p`` destinations, the binomial bcast the same ``p - 1``
parent->child edges, the recursive-doubling allreduce the same
fold/sendrecv/foldback pattern -- and every send is classified
``mpi1-intra`` vs ``mpi1-inter`` with the block placement the real
:class:`~repro.machine.topology.RankMap` uses.
"""

from __future__ import annotations

import numpy as np

from repro.scale.soa import ScaleCounters, ScaleTopology

__all__ = ["ceil_log2", "barrier", "bcast", "allreduce", "count_sends"]


def ceil_log2(p: int) -> int:
    """Dissemination/binomial round count (same as collectives._ceil_log2)."""
    return max(1, (p - 1).bit_length()) if p > 1 else 0


def count_sends(counters: ScaleCounters, topo: ScaleTopology,
                src: np.ndarray, dst: np.ndarray, nbytes: int) -> None:
    """One point-to-point send per (src, dst) pair, intra/inter classified.

    ``src`` must be unique (every mirrored round satisfies this): the
    counter's per-rank add is a buffered fancy-index increment.
    """
    intra = topo.node[src] == topo.node[dst]
    n_intra = int(np.count_nonzero(intra))
    if n_intra:
        counters.add("mpi1-intra", src[intra], nbytes)
    if n_intra < src.shape[0]:
        counters.add("mpi1-inter", src[~intra], nbytes)


def barrier(counters: ScaleCounters, topo: ScaleTopology) -> int:
    """Dissemination barrier: every rank sends each round; returns rounds."""
    p = topo.nranks
    rounds = ceil_log2(p)
    for step in range(rounds):
        dst = (topo.ranks + (1 << step)) % p
        count_sends(counters, topo, topo.ranks, dst, 0)
    return rounds


def bcast(counters: ScaleCounters, topo: ScaleTopology, nbytes: int) -> None:
    """Binomial-tree broadcast from root 0: p - 1 sends total.

    Level ``m`` senders are the virtual ranks with ``vr % 2m == 0`` and
    ``vr + m < p`` (the root participates at every level) -- the exact
    send set of ``Collectives.bcast``'s descending-mask loop.
    """
    p = topo.nranks
    m = 1
    levels = []
    while m < p:
        levels.append(m)
        m <<= 1
    for m in levels:
        src = np.arange(0, p - m, 2 * m, dtype=np.int64)
        count_sends(counters, topo, src, src + m, nbytes)


def allreduce(counters: ScaleCounters, topo: ScaleTopology,
              nbytes: int) -> None:
    """Recursive-doubling allreduce with the non-power-of-two fold.

    Three phases exactly as ``Collectives.allreduce``: even ranks below
    ``2*rem`` fold into their odd neighbor, the ``pof2`` participants
    sendrecv for ``log2(pof2)`` rounds (a sendrecv counts one message,
    the send side -- ``recv`` is not a counted issue), and the folded
    ranks get the result pushed back.
    """
    p = topo.nranks
    if p == 1:
        return
    pof2 = 1 << (p.bit_length() - 1)
    rem = p - pof2
    if rem:
        fold_src = np.arange(0, 2 * rem, 2, dtype=np.int64)
        count_sends(counters, topo, fold_src, fold_src + 1, nbytes)
    newranks = np.arange(pof2, dtype=np.int64)
    real = np.where(newranks < rem, newranks * 2 + 1, newranks + rem)
    mask = 1
    while mask < pof2:
        partner_new = newranks ^ mask
        partner = np.where(partner_new < rem, partner_new * 2 + 1,
                           partner_new + rem)
        count_sends(counters, topo, real, partner, nbytes)
        mask <<= 1
    if rem:
        back_src = np.arange(1, 2 * rem, 2, dtype=np.int64)
        count_sends(counters, topo, back_src, back_src - 1, nbytes)
