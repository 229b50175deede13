"""Paper-scale extensions of Figure 7a and Figure 8 via the hybrid mode.

The full-fidelity sweeps (``FIGURES["7a"]`` and ``["8"]`` in
``repro.bench.figures``) stop where per-rank DES execution stops being
CI-viable (p = 512 / 128).  The paper's headline curves run to 512Ki
processes; this module extends both figures there (and to 1Mi) using
the scale mode:

* the O(log p) synchronization terms are the scale mode's analytic
  clock (:func:`~repro.scale.protocols.model_time_ns`, the paper's
  performance models summed over the workload's phases), and every
  plotted size goes through one ``run_hybrid`` first -- its closed-form
  total and O(log p) bound checks -- so a figure point at 1Mi is
  backed by the same structural validation as a parity cell at 256;
* the per-variant constants are calibrated once, at the overlap size,
  against the *committed* full-fidelity anchor values -- the hybrid
  curve passes through the full-fidelity curve by construction, and
  the extension's shape comes entirely from the protocol cost models.

The curve-shape claims preserved (asserted by the hybrid bench tests):
Figure 7a's foMPI/UPC near-linear aggregate insert rate vs MPI-1's
flat-to-declining rate ("the insert rate of a single node cannot be
achieved..."), Figure 8's 5-15% full-application improvement band with
UPC and foMPI essentially identical.
"""

from __future__ import annotations

import math

from repro.bench import Series
from repro.scale.hybrid import run_hybrid
from repro.scale.protocols import WorkloadSpec, model_time_ns

__all__ = ["FIG7A_ANCHOR_P", "FIG7A_ANCHORS", "FIG8_ANCHOR_P",
           "FIG8_ANCHORS", "HT_PS_HYBRID", "MILC_PS_HYBRID",
           "fig7a_hybrid_series", "fig8_hybrid_series"]

# Committed full-fidelity values at the largest overlap sizes
# (benchmarks/results/fig7a.json / fig8.json: test_figure_anchors.py);
# the hybrid curves are pinned to these, so any drift in the full
# pipeline shows up as a continuity break in the extended figures.
FIG7A_ANCHOR_P = 512
FIG7A_ANCHORS = {"fompi": 80.932, "upc": 66.981, "mpi1": 17.373}
FIG7A_MPI1_PREV = (128, 20.421)   # second anchor fixes mpi1's decline

FIG8_ANCHOR_P = 128
FIG8_ANCHORS = {"mpi1": 3.747, "fompi": 3.611, "upc": 3.609}

HT_PS_HYBRID = [512, 4096, 65536, 524288, 1048576]
MILC_PS_HYBRID = [128, 1024, 8192, 65536, 524288, 1048576]

INSERTS_PER_RANK = 64             # matches the full-fidelity fig7a sweep
MILC_SYNCS_PER_SOLVE = 50         # 25 CG iterations x 2 reductions
MILC_MPI1_SYNC_FACTOR = 1.3       # two-sided progress overhead per sync


# One shared-lock / put / unlock iteration per insert: the protocol
# skeleton of the hashtable's remote insert.
_INSERT_LOOP = WorkloadSpec("lock", epochs=INSERTS_PER_RANK)
_SYNC_1, _SYNC_3 = (WorkloadSpec("fence", epochs=e) for e in (1, 3))


def _insert_loop_ns(p: int) -> int:
    """Analytic time of the passive-target insert loop."""
    return model_time_ns(_INSERT_LOOP, p)


def _sync_epoch_ns(p: int) -> int:
    """Analytic cost of one global sync epoch (put + fence).

    Epoch count 3 minus epoch count 1, halved -- window allocation and
    the opening fence cancel, leaving exactly the per-epoch inject +
    O(log p) fence term.
    """
    return (model_time_ns(_SYNC_3, p) - model_time_ns(_SYNC_1, p)) // 2


def fig7a_hybrid_series(rank_counts: list[int] | None = None, *,
                        ranks_per_node: int = 32) -> list[Series]:
    """Figure 7a extended to paper scale: hashtable Minserts/s.

    foMPI/UPC aggregate rate = p * inserts / hybrid insert-loop time,
    calibrated at the overlap anchor (the calibration constant absorbs
    the hashing compute and collision handling the protocol skeleton
    does not model).  MPI-1 follows the committed decline fitted
    through its two largest full-fidelity anchors.
    """
    ps = rank_counts or HT_PS_HYBRID
    anchor_loop = _insert_loop_ns(FIG7A_ANCHOR_P)

    def raw_rate(p: int, loop_ns: int) -> float:
        return p * INSERTS_PER_RANK / (loop_ns * 1e-9) / 1e6

    cal = {label: FIG7A_ANCHORS[label] /
           raw_rate(FIG7A_ANCHOR_P, anchor_loop)
           for label in ("fompi", "upc")}
    # mpi1: rate = A / (1 + B log2 p) through the two committed anchors.
    p0, r0 = FIG7A_MPI1_PREV
    p1, r1 = FIG7A_ANCHOR_P, FIG7A_ANCHORS["mpi1"]
    l0, l1 = math.log2(p0), math.log2(p1)
    b = (r0 - r1) / (r1 * l1 - r0 * l0)
    a = r1 * (1 + b * l1)

    series = []
    for label in ("fompi", "upc", "mpi1"):
        series.append(Series(label=label, meta={
            "unit": "Minserts/s", "mode": "hybrid",
            "inserts_per_rank": INSERTS_PER_RANK,
            "anchor_p": FIG7A_ANCHOR_P,
            "anchor": FIG7A_ANCHORS[label]}))
    by = {s.label: s for s in series}
    for p in ps:
        # The plotted point's own counts, held to the closed form and
        # the O(log p) budget at this size before its clock is used.
        run_hybrid(_INSERT_LOOP, p, ranks_per_node=ranks_per_node)
        loop_ns = _insert_loop_ns(p)
        for label in ("fompi", "upc"):
            by[label].add(p, round(cal[label] * raw_rate(p, loop_ns), 3))
        by["mpi1"].add(p, round(a / (1 + b * math.log2(p)), 3))
    return series


def fig8_hybrid_series(rank_counts: list[int] | None = None, *,
                       ranks_per_node: int = 32) -> list[Series]:
    """Figure 8 extended to paper scale: MILC solve time [ms].

    Weak scaling: per-rank compute and halo volume are constant, so the
    solve time grows only by the O(log p) global-reduction term --
    measured on the hybrid engine and added to the committed anchor.
    MPI-1 pays a constant factor more per sync (two-sided progress);
    foMPI and UPC stay essentially identical, preserving the paper's
    improvement band.
    """
    ps = rank_counts or MILC_PS_HYBRID
    anchor_sync = _sync_epoch_ns(FIG8_ANCHOR_P)
    factors = {"mpi1": MILC_MPI1_SYNC_FACTOR, "fompi": 1.0, "upc": 1.0}

    series = []
    for label in ("mpi1", "fompi", "upc"):
        series.append(Series(label=label, meta={
            "unit": "ms (simulated)", "mode": "hybrid",
            "anchor_p": FIG8_ANCHOR_P, "anchor": FIG8_ANCHORS[label],
            "syncs_per_solve": MILC_SYNCS_PER_SOLVE}))
    by = {s.label: s for s in series}
    for p in ps:
        run_hybrid(_SYNC_3, p, ranks_per_node=ranks_per_node)  # as in 7a
        extra_ns = (_sync_epoch_ns(p) - anchor_sync) * MILC_SYNCS_PER_SOLVE
        for label, factor in factors.items():
            ms = FIG8_ANCHORS[label] + factor * extra_ns * 1e-6
            by[label].add(p, round(ms, 3))
    imp = Series(label="fompi improvement %",
                 meta={"mode": "derived"})
    for p, m, f in zip(ps, by["mpi1"].ys, by["fompi"].ys):
        imp.add(p, round(100 * (m - f) / m, 1))
    series.append(imp)
    return series
