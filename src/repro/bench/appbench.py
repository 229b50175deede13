"""Application benchmark drivers: Figures 7a/7b/7c and 8.

Scale policy (see DESIGN.md): the drivers execute the real protocols in
simulation up to O(100) ranks; the figure harnesses in ``benchmarks/``
extend the curves with the calibrated analytic models where the paper's
axes go far beyond that, and label the mode.
"""

from __future__ import annotations

from repro.apps.dsde import PROTOCOLS, dsde_program
from repro.apps.fft import FftSpec, fft_program
from repro.apps.fft.parallel import VARIANTS as FFT_VARIANTS
from repro.apps.hashtable import (
    HashTableLayout,
    mpi1_insert_program,
    rma_insert_program,
    upc_insert_program,
)
from repro.apps.milc import MilcSpec, milc_program
from repro.apps.milc.driver import ENGINES as MILC_ENGINES
from repro.config import MachineConfig, SimConfig
from repro.runtime.job import run_spmd

__all__ = ["hashtable_rate", "dsde_time_us", "fft_gflops", "milc_time_s",
           "kv_serve_stats", "HT_PROGRAMS"]

HT_PROGRAMS = {
    "fompi": rma_insert_program,
    "upc": upc_insert_program,
    "mpi1": mpi1_insert_program,
}


def _machine(ranks_per_node: int) -> MachineConfig:
    return MachineConfig(ranks_per_node=ranks_per_node)


def _refuse_unknown(what: str, variant: str, choices) -> None:
    if variant not in choices:
        raise ValueError(f"unknown {what} variant {variant!r}; choose from "
                         f"{', '.join(sorted(choices))}")


def hashtable_rate(variant: str, p: int, inserts_per_rank: int = 64, *,
                   ranks_per_node: int = 32,
                   table_slots: int | None = None) -> float:
    """Aggregate inserts/second (Figure 7a's y axis)."""
    from repro.apps.hashtable.common import DEFAULT_TABLE_SLOTS

    _refuse_unknown("hashtable", variant, HT_PROGRAMS)
    layout = HashTableLayout.default(
        inserts_per_rank,
        table_slots=DEFAULT_TABLE_SLOTS if table_slots is None
        else table_slots)
    res = run_spmd(HT_PROGRAMS[variant], p, layout, inserts_per_rank,
                   machine=_machine(ranks_per_node))
    worst = max(res.returns)
    return p * inserts_per_rank / (worst / 1e9)


def dsde_time_us(protocol: str, p: int, k: int = 6, *,
                 ranks_per_node: int = 32) -> float:
    """Time of one complete dynamic sparse data exchange (Figure 7b)."""
    _refuse_unknown("DSDE", protocol, PROTOCOLS)
    res = run_spmd(dsde_program, p, protocol, k,
                   machine=_machine(ranks_per_node))
    return max(t for t, _ in res.returns) / 1e3


def fft_gflops(variant: str, p: int, spec: FftSpec | None = None, *,
               ranks_per_node: int = 32) -> float:
    """3-D FFT performance (Figure 7c's y axis)."""
    _refuse_unknown("FFT", variant, FFT_VARIANTS)
    spec = spec or FftSpec(nx=32, ny=32, nz=32, flop_rate=1.2e10, chunks=4)
    res = run_spmd(fft_program, p, spec, variant,
                   machine=_machine(ranks_per_node))
    return min(g for _t, g in res.returns)


def kv_serve_stats(variant: str, p: int, total_requests: int = 4000, *,
                   nkeys: int = 512, theta: float = 0.99,
                   rate_hz: float = 2e5, seed: int = SimConfig.seed,
                   ranks_per_node: int = 8) -> dict:
    """One open-loop KV serving run (``repro.serve``): throughput and
    exact tail latencies for the RMA store or the MPI-1 comparator.

    Returns a plain dict (picklable, so it crosses the bench pool):
    ``{"throughput_rps", "p50_ns", "p99_ns", "p99_9_ns", "sim_time_ns"}``.
    """
    from repro.serve.driver import run_kv_serve
    from repro.serve.slo import build_report
    from repro.serve.zipf import ServeSpec

    spec = ServeSpec(nkeys=nkeys, theta=theta, total_requests=total_requests,
                     rate_hz=rate_hz, seed=seed)
    res = run_kv_serve(p, spec, variant=variant,
                       ranks_per_node=ranks_per_node)
    report = build_report(res, spec, p, variant=variant)
    lat = report["latency_ns"]
    return {"throughput_rps": report["throughput_rps"],
            "p50_ns": lat["p50"], "p99_ns": lat["p99"],
            "p99_9_ns": lat["p99_9"], "sim_time_ns": report["sim_time_ns"]}


def milc_time_s(variant: str, p: int, spec: MilcSpec | None = None, *,
                ranks_per_node: int = 32) -> float:
    """MILC proxy completion time in simulated seconds (Figure 8's y axis,
    scaled: the paper runs many trajectories; we run one fixed-iteration
    CG solve and weak-scale it)."""
    _refuse_unknown("MILC", variant, MILC_ENGINES)
    spec = spec or MilcSpec(maxiter=25, tol=0.0)
    res = run_spmd(milc_program, p, spec, variant,
                   machine=_machine(ranks_per_node))
    return max(e for e, *_ in res.returns) / 1e9
