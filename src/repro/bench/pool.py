"""Parallel benchmark fan-out.

Every figure of the paper is regenerated from many independent
``run_spmd`` points; each point builds a fresh
:class:`~repro.runtime.world.World`, so points are embarrassingly
parallel.  :func:`run_points` fans a list of :class:`BenchPoint`\\ s across
CPU cores with :class:`concurrent.futures.ProcessPoolExecutor` and merges
results **in input order**, so the output is bit-identical to running the
same points serially (each worker computes exactly what the serial loop
would have; simulation results depend only on the point's arguments and
the deterministic kernel).  Every call computes every point: nothing is
read from or written to disk.

Robustness: point functions must be picklable (module-level); if the host
cannot spawn workers (sandboxes, ``workers=1``, pickling failure) the
sweep transparently degrades to the serial loop -- same results, just
slower.  ``REPRO_BENCH_WORKERS`` overrides the worker count globally.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

__all__ = ["BenchPoint", "PoolStats", "run_points", "last_run_stats",
           "pool_totals", "default_workers"]


@dataclass
class BenchPoint:
    """One independent benchmark point: ``fn(*args, **kwargs)``.

    ``fn`` must be picklable (a module-level function) for the parallel
    path; anything else still works through the serial fallback.
    """

    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


@dataclass
class PoolStats:
    """What the last :func:`run_points` sweep did (for perf reports)."""

    points: int = 0
    parallel: bool = False


_LAST_STATS = PoolStats()
_TOTALS = PoolStats()


def last_run_stats() -> PoolStats:
    """Stats of the most recent :func:`run_points` call."""
    return _LAST_STATS


def pool_totals() -> PoolStats:
    """Cumulative stats across every :func:`run_points` call in this
    process (``parallel`` is true once any sweep fanned out)."""
    return _TOTALS


def default_workers() -> int:
    """``REPRO_BENCH_WORKERS`` or the CPU count (min 1)."""
    override = os.environ.get("REPRO_BENCH_WORKERS")
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return max(1, os.cpu_count() or 1)


def _call_point(fn: Callable, args: tuple, kwargs: dict) -> Any:
    """Worker-side entry (module-level so it pickles)."""
    return fn(*args, **kwargs)


def _run_parallel(points: Sequence[BenchPoint], workers: int) -> list | None:
    """Every point's result from a process pool, in input order; None when
    the pool cannot be used at all (caller falls back to serial)."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            futures = [ex.submit(_call_point, pt.fn, tuple(pt.args),
                                 dict(pt.kwargs))
                       for pt in points]
            # Collect in input order -- deterministic merge regardless of
            # completion order.
            return [fut.result() for fut in futures]
    except (BrokenProcessPool, OSError, ImportError, AttributeError,
            TypeError, pickle.PicklingError):
        return None


def run_points(points: Iterable[BenchPoint], *,
               workers: int | None = None) -> list:
    """Run every point; return results in input order.

    ``workers`` is the process count; ``None`` uses
    :func:`default_workers`.  ``1`` (or a single point) runs serially
    in-process.
    """
    global _LAST_STATS
    pts = list(points)
    nworkers = default_workers() if workers is None else max(1, int(workers))
    results = None
    if nworkers > 1 and len(pts) > 1:
        results = _run_parallel(pts, nworkers)
    parallel = results is not None
    if results is None:
        results = [pt.run() for pt in pts]

    _LAST_STATS = PoolStats(points=len(pts), parallel=parallel)
    _TOTALS.points += len(pts)
    _TOTALS.parallel = _TOTALS.parallel or parallel
    return results
