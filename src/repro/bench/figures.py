"""The paper's figures as data: each of Figures 4-8 is defined once, here.

``FIGURES[id]`` holds a figure's x grid, its curves (a label and the
:class:`~repro.bench.pool.BenchPoint` to run at each x), the y scaling
and rounding, the series metadata and an optional derived series (the
paper's fitted model overlaid, or foMPI's improvement over MPI-1).
:func:`figure_series` turns one into numbers; ``python -m repro figure``
and ``benchmarks/bench_figures.py`` both call it, so the CLI prints what
``benchmarks/results/<name>.{json,txt}`` hold.  Those committed files are
this module's oracle: ``tests/bench/test_figures.py`` compares against
them byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.apps.fft import FftSpec
from repro.apps.milc import MilcSpec
from repro.bench import appbench as ab
from repro.bench import microbench as mb
from repro.bench import syncbench as sb
from repro.bench.harness import Series
from repro.bench.pool import BenchPoint, run_points
from repro.models.params_fompi import paper_model

__all__ = ["FIGURES", "Curve", "Figure", "figure_series"]


@dataclass(frozen=True)
class Curve:
    """One plotted line: ``point(x)`` is the simulation behind its y at x."""

    label: str
    point: Callable[[int], BenchPoint]
    xs: tuple | None = None      # own grid; None = the figure's


@dataclass(frozen=True)
class Figure:
    name: str                    # result-file stem and figures.wall_s key
    title: str
    x_label: str
    xs: tuple
    curves: tuple[Curve, ...]
    y: Callable[[float], float]  # driver return value -> plotted y
    meta: dict                   # every measured series' metadata
    derived: Callable[[Figure, list[Series], tuple], Series] | None = None
    quick: int = 3               # grid points quick mode keeps


def figure_series(fig_id: str, *, full: bool = True,
                  **run_points_kwargs) -> list[Series]:
    """Run figure ``fig_id`` and return its labeled series.

    ``full=False`` (the CLI without ``--full``) keeps the first
    ``Figure.quick`` points of each curve's grid: a prefix of the full
    sweep, never a different experiment.  All points go through one
    :func:`run_points` call (process pool, merged in input order), which
    gets ``run_points_kwargs`` unchanged.
    """
    fig = FIGURES[fig_id]
    n = None if full else fig.quick
    grids = [(c.xs or fig.xs)[:n] for c in fig.curves]
    values = iter(run_points(
        [c.point(x) for c, xs in zip(fig.curves, grids) for x in xs],
        **run_points_kwargs))
    series = [Series(c.label, list(xs), [fig.y(next(values)) for _ in xs],
                     dict(fig.meta))
              for c, xs in zip(fig.curves, grids)]
    if fig.derived is not None:
        series.append(fig.derived(fig, series, fig.xs[:n]))
    return series


def _curves(point: Callable[[str, int], BenchPoint], keys, labels=None):
    """One curve per key (transport / variant), labeled by it."""
    return tuple(Curve(label, partial(point, key))
                 for key, label in zip(keys, labels or keys))


def _ns_to_us(digits: int):
    return lambda ns: round(ns / 1e3, digits)


def _paper(label: str, model: str, var: str, meta: dict):
    """Derived series: the paper's fitted ``model`` on the figure's grid."""
    def derive(fig, series, xs):
        fn = paper_model(model)
        return Series(label, list(xs), [fig.y(fn(**{var: x})) for x in xs],
                      dict(meta))
    return derive


def _improvement(lower_is_better: bool):
    """Derived series: foMPI's gain over MPI-1 in percent of MPI-1."""
    def derive(fig, series, xs):
        by = {s.label: s for s in series}
        imp = Series("fompi improvement %", meta={"mode": "derived"})
        for x, m, f in zip(xs, by["mpi1"].ys, by["fompi"].ys):
            gain = m - f if lower_is_better else f - m
            imp.add(x, round(100 * gain / m, 1))
        return imp
    return derive


SIZES = (8, 64, 512, 4096, 32768, 262144)
SIM_US = {"unit": "us", "mode": "sim"}
MODEL_US = {"unit": "us", "mode": "model"}
APP_LABELS = ("mpi1", "fompi", "upc")


def _latency(fn, intra: bool, suffix: str = ""):
    def point(transport, size):
        return BenchPoint(fn, (transport, size), {"intra": intra})
    return _curves(point, mb.LATENCY_TRANSPORTS,
                   [t + suffix for t in mb.LATENCY_TRANSPORTS])


def _message_rate(fig_id: str, where: str) -> Figure:
    def point(transport, size):
        return BenchPoint(mb.message_rate, (transport, size),
                          {"intra": where == "intra",
                           "nmsgs": 400 if size <= 4096 else 120})
    return Figure(
        f"fig{fig_id}",
        f"Figure {fig_id}: {where}-node message rate [M msgs/s] vs size [B]",
        "size", SIZES, _curves(point, mb.LATENCY_TRANSPORTS),
        lambda rate: round(rate / 1e6, 4), {"unit": "Mmsg/s", "mode": "sim"})


def _atomic(kind, n):
    return BenchPoint(mb.atomic_latency, (kind, n),
                      {"reps": 2 if n >= 4096 else 4})


def _pscw(transport, p):
    # The paper's foMPI curve jitters at large p (wire noise); reproduced
    # past the intra->inter knee with the deterministic noise knob.
    noisy = transport == "fompi" and p > 64
    return BenchPoint(sb.pscw_ring_latency, (transport, p),
                      {"noise_ns": 400.0 if noisy else 0.0})


FFT_SPEC = FftSpec(nx=64, ny=64, nz=64, flop_rate=2.5e10, chunks=4)
MILC_SPEC = MilcSpec(local=(4, 4, 4, 8), maxiter=25, tol=0.0)

FIGURES: dict[str, Figure] = {
    "4a": Figure(
        "fig4a", "Figure 4a: inter-node Put latency [us] vs size [B]",
        "size", SIZES, _latency(mb.put_latency, False), _ns_to_us(3), SIM_US,
        _paper("paper-model", "put", "s", MODEL_US)),
    "4b": Figure(
        "fig4b", "Figure 4b: inter-node Get latency [us] vs size [B]",
        "size", SIZES, _latency(mb.get_latency, False), _ns_to_us(3), SIM_US,
        _paper("paper-model", "get", "s", MODEL_US)),
    "4c": Figure(
        "fig4c", "Figure 4c: intra-node Put/Get latency [us] vs size [B]",
        "size", SIZES,
        _latency(mb.put_latency, True)
        + _latency(mb.get_latency, True, "-get"),
        _ns_to_us(3), SIM_US),
    "5a": Figure(
        "fig5a",
        "Figure 5a: communication/computation overlap [%] vs size [B]",
        "size", (8, 512, 4096, 32768, 262144, 2097152),
        _curves(lambda t, size: BenchPoint(mb.overlap_fraction, (t, size)),
                ("fompi", "upc", "cray22")),
        lambda frac: round(100 * frac, 1), {"unit": "%", "mode": "sim"}),
    "5b": _message_rate("5b", "inter"),
    "5c": _message_rate("5c", "intra"),
    "6a": Figure(
        "fig6a", "Figure 6a: atomic operation latency [us] vs #elements",
        "elems", (1, 8, 64, 512, 4096, 32768),
        tuple(Curve(kind, partial(_atomic, kind), xs)
              for kind, xs in (("fompi_sum", None), ("fompi_min", None),
                               ("fompi_cas", (1,)), ("upc_aadd", (1,)),
                               ("upc_cas", (1,)))),
        _ns_to_us(3), SIM_US,
        _paper("paper P_acc,sum", "acc_sum", "s", {"mode": "model"})),
    "6b": Figure(
        "fig6b",
        "Figure 6b: global synchronization latency [us] vs processes",
        "p", (2, 8, 32, 128, 512),
        _curves(lambda t, p: BenchPoint(sb.global_sync_latency, (t, p)),
                ("fompi", "upc", "caf", "cray22")),
        _ns_to_us(2), SIM_US,
        _paper("paper P_fence", "fence", "p", {"mode": "model"})),
    "6c": Figure(
        "fig6c", "Figure 6c: PSCW latency [us] on a ring (k=2) vs processes",
        "p", (4, 16, 64, 256), _curves(_pscw, ("fompi", "cray22")),
        _ns_to_us(2), {**SIM_US, "note": "32 ranks/node; k=2 ring"}),
    "7a": Figure(
        "fig7a",
        "Figure 7a: hashtable inserts [M/s] vs processes (32 ranks/node)",
        "p", (2, 8, 32, 128, 512),     # 32 ranks/node: knee at p=32
        _curves(lambda v, p: BenchPoint(ab.hashtable_rate, (v, p, 64)),
                ("fompi", "upc", "mpi1")),
        lambda rate: round(rate / 1e6, 3),
        {"unit": "Minserts/s", "mode": "sim", "inserts_per_rank": 64}),
    "7b": Figure(
        "fig7b",
        "Figure 7b: DSDE time [us] vs processes (k=6 random neighbors)",
        "p", (4, 16, 64, 256),
        _curves(lambda proto, p: BenchPoint(ab.dsde_time_us, (proto, p, 6)),
                ("alltoall", "reduce_scatter", "nbx", "rma", "rma_cray22")),
        lambda us: round(us, 1), {**SIM_US, "k": 6}),
    "7c": Figure(
        "fig7c", "Figure 7c: 3-D FFT performance [GFlop/s] vs processes",
        "p", (8, 32, 128),
        # 2 ranks/node: inter-node transposes, as at the paper's scale
        _curves(lambda v, p: BenchPoint(ab.fft_gflops, (v, p, FFT_SPEC),
                                        {"ranks_per_node": 2}),
                ("mpi1", "rma_overlap", "upc_overlap"), APP_LABELS),
        lambda gflops: round(gflops, 3),
        {"unit": "GFlop/s", "mode": "sim",
         "grid": "64^3 mini (class-D shape, see EXPERIMENTS.md)"},
        _improvement(lower_is_better=False)),
    "8": Figure(
        "fig8",
        "Figure 8: MILC proxy completion time [ms] vs processes "
        "(weak scaling)",
        "p", (8, 32, 128),
        _curves(lambda v, p: BenchPoint(ab.milc_time_s, (v, p, MILC_SPEC)),
                ("mpi1", "rma", "upc"), APP_LABELS),
        lambda s: round(s * 1e3, 3),
        {"unit": "ms (simulated)", "mode": "sim",
         "local_lattice": "4^3 x 8, 25 CG iterations"},
        _improvement(lower_is_better=True), quick=2),
}
