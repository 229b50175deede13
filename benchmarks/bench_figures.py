"""Figures 4-8: regenerate each committed result file and assert its shape.

The sweeps themselves (grids, transports, specs, rounding, titles) are
data in ``repro.bench.figures``; ``test_figure[<id>]`` runs one through
the process pool and the run cache, writes
``results/<name>.{json,txt}`` and checks the curve-shape claim of the
paper it reproduces.  ``pytest benchmarks/bench_figures.py -k 7c``
regenerates one figure; ``python -m repro figure 7c --full`` prints the
same table.  The Section 3.2 lock constants and the two hybrid
paper-scale extensions are not point sweeps and keep their own targets.
"""

import pytest

from repro.bench import format_series_table, format_table
from repro.bench import syncbench as sb
from repro.bench.figures import FIGURES, figure_series


def _shape_4a(by):
    for got, want in zip(by["fompi"].ys, by["paper-model"].ys):
        assert abs(got - want) / want < 0.35


def _shape_4c(by):
    # foMPI's XPMEM path beats every other transport intra-node
    assert by["fompi"].ys[0] < by["mpi1"].ys[0]


def _shape_5a(by):
    assert by["fompi"].ys[-1] > 85                 # large puts overlap almost fully
    assert by["cray22"].ys[0] > by["fompi"].ys[0]  # MPI-2.2's latency hides more early


def _shape_5b(by):
    assert 2.0 <= by["fompi"].ys[0] <= 2.6   # ~2.4 M/s at 8 B (416 ns injection)


def _shape_5c(by):
    assert by["fompi"].ys[0] > 5.0           # ~12.5 M/s at 8 B (80 ns store)


def _shape_6a(by):
    fsum, fmin = by["fompi_sum"], by["fompi_min"]
    assert fmin.ys[0] > fsum.ys[0]     # fallback base cost higher
    assert fmin.ys[-1] < fsum.ys[-1]   # ... but crosses over (bandwidth)


def _shape_6b(by):
    fence, ref = by["fompi"], by["paper P_fence"]
    assert abs(fence.ys[-1] - ref.ys[-1]) / ref.ys[-1] < 0.35


def _shape_6c(by):
    fompi, cray = by["fompi"], by["cray22"]
    # foMPI: near-constant within the inter-node regime (the jump from
    # ys[1] to ys[2] is the intra->inter knee at 32 ranks/node, as in the
    # paper's figure); Cray grows systematically everywhere.
    assert fompi.ys[-1] < 1.6 * fompi.ys[-2]
    assert cray.ys[-1] > cray.ys[0]
    assert cray.ys[-1] > fompi.ys[-1]


def _shape_7a(by):
    fompi, upc, mpi1 = by["fompi"], by["upc"], by["mpi1"]
    # past the intra->inter knee (p=128) foMPI/UPC resume near-linear
    # aggregate scaling while MPI-1's rate stays flat ("the insert rate
    # of a single node cannot be achieved...").
    assert fompi.ys[-1] > 2 * fompi.ys[-2]
    assert fompi.ys[-1] > 2 * mpi1.ys[-1]
    assert abs(fompi.ys[-1] - upc.ys[-1]) / fompi.ys[-1] < 0.5


def _shape_7b(by):
    # RMA competitive with NBX; both far below alltoall at scale;
    # Cray MPI-2.2 RMA far slower than foMPI's.
    assert by["rma"].ys[-1] < by["alltoall"].ys[-1]
    assert by["rma"].ys[-1] < 3 * by["nbx"].ys[-1]
    assert by["rma_cray22"].ys[-1] > 1.5 * by["rma"].ys[-1]


def _shape_7c(by):
    # foMPI beats MPI-1 everywhere
    assert all(v > 0 for v in by["fompi improvement %"].ys)


def _shape_8(by):
    imp = by["fompi improvement %"]
    # The paper reports 5-15% full-application improvement.
    assert all(2.0 <= v <= 25.0 for v in imp.ys), imp.ys
    for u, f in zip(by["upc"].ys, by["fompi"].ys):
        assert abs(u - f) / f < 0.15     # "essentially the same performance"


SHAPES = {"4a": _shape_4a, "4c": _shape_4c, "5a": _shape_5a, "5b": _shape_5b,
          "5c": _shape_5c, "6a": _shape_6a, "6b": _shape_6b, "6c": _shape_6c,
          "7a": _shape_7a, "7b": _shape_7b, "7c": _shape_7c, "8": _shape_8}


def _record(benchmark, record_series, name, title, x_label, run):
    series = benchmark.pedantic(run, rounds=1, iterations=1)
    record_series(name, format_series_table(title, x_label, series), series)
    benchmark.extra_info["series"] = [s.as_dict() for s in series]
    return {s.label: s for s in series}


@pytest.mark.parametrize("fig_id", list(FIGURES))
def test_figure(fig_id, benchmark, record_series):
    fig = FIGURES[fig_id]
    by = _record(benchmark, record_series, fig.name, fig.title, fig.x_label,
                 lambda: figure_series(fig_id))
    if fig_id in SHAPES:        # 4b pins numbers only
        SHAPES[fig_id](by)


def test_fig6_lock_constants(benchmark, record_series):
    consts = benchmark.pedantic(sb.lock_constants, rounds=1, iterations=1)
    paper = {"lock_excl": 5400, "lock_shrd": 2700, "lock_all": 2700,
             "unlock": 400, "unlock_all": 400, "flush": 76, "sync": 17,
             "unlock_excl_last": 800}
    rows = [[k, round(v / 1e3, 3), paper.get(k, 0) / 1e3]
            for k, v in sorted(consts.items())]
    table = format_table(
        "Section 3.2: passive-target constants [us] (measured vs paper)",
        ["operation", "simulated", "paper"], rows)
    record_series("fig6_locks", table, [dict(consts)])
    benchmark.extra_info["constants"] = dict(consts)


def test_fig7a_hashtable_hybrid(benchmark, record_series):
    """Figure 7a extended to paper scale (512Ki/1Mi) in scale mode.

    Every point's sync term is the analytic clock of a scale-mode run
    that passed the closed-form total and O(log p) bound checks at
    that size; the curves are pinned to the committed full-fidelity
    values at the overlap size, so continuity at p=512 is asserted,
    not assumed.
    """
    from repro.scale.figures import (FIG7A_ANCHOR_P, FIG7A_ANCHORS,
                                     HT_PS_HYBRID, fig7a_hybrid_series)

    by = _record(
        benchmark, record_series, "fig7a_hybrid",
        "Figure 7a (hybrid): hashtable inserts [M/s] to 1Mi processes "
        "(32 ranks/node)", "p", lambda: fig7a_hybrid_series(HT_PS_HYBRID))
    fompi, upc, mpi1 = by["fompi"], by["upc"], by["mpi1"]
    # Continuity: the hybrid curve passes through the full-fidelity
    # anchor at the overlap size.
    assert fompi.xs[0] == FIG7A_ANCHOR_P
    for label in ("fompi", "upc", "mpi1"):
        anchor = FIG7A_ANCHORS[label]
        assert abs(by[label].ys[0] - anchor) / anchor < 0.01, by[label].ys
    # shape: foMPI/UPC near-linear aggregate scaling over the 2048x
    # extension (sub-linear only by the O(log p) sync growth)...
    assert fompi.ys[-1] / fompi.ys[0] > 1024
    assert abs(fompi.ys[-1] - upc.ys[-1]) / fompi.ys[-1] < 0.5
    # ... while MPI-1 stays flat-to-declining, orders of magnitude under.
    assert mpi1.ys[-1] <= mpi1.ys[0]
    assert fompi.ys[-1] > 2 * mpi1.ys[-1]


def test_fig8_milc_hybrid(benchmark, record_series):
    """Figure 8 extended to paper scale (512Ki/1Mi) in scale mode.

    Weak scaling: the O(log p) reduction term is the analytic clock per
    size (each size's counts closed-form + bound checked) and added to
    the committed full-fidelity anchor at p=128.
    """
    from repro.scale.figures import (FIG8_ANCHOR_P, FIG8_ANCHORS,
                                     MILC_PS_HYBRID, fig8_hybrid_series)

    by = _record(
        benchmark, record_series, "fig8_hybrid",
        "Figure 8 (hybrid): MILC proxy completion time [ms] to 1Mi "
        "processes (weak scaling)", "p",
        lambda: fig8_hybrid_series(MILC_PS_HYBRID))
    # Continuity with the full-fidelity curves at the overlap size.
    assert by["fompi"].xs[0] == FIG8_ANCHOR_P
    for label in ("mpi1", "fompi", "upc"):
        anchor = FIG8_ANCHORS[label]
        assert abs(by[label].ys[0] - anchor) / anchor < 0.01, by[label].ys
    imp = by["fompi improvement %"]
    # The paper's 5-15% full-application band holds out to 1Mi ranks
    # (allowing the same slack as the full-fidelity assertion).
    assert all(2.0 <= v <= 25.0 for v in imp.ys), imp.ys
    for u, f in zip(by["upc"].ys, by["fompi"].ys):
        assert abs(u - f) / f < 0.15
