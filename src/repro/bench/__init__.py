"""Benchmark harness.

Reusable drivers that reproduce every figure of the paper's evaluation:

* :mod:`repro.bench.microbench` -- Figures 4 (latency), 5 (overlap +
  message rate), 6a (atomics),
* :mod:`repro.bench.syncbench`  -- Figures 6b (global synchronization),
  6c (PSCW), and the passive-target constants of Section 3.2,
* :mod:`repro.bench.appbench`   -- Figures 7 (hashtable, DSDE, FFT) and
  8 (MILC),
* :mod:`repro.bench.harness`    -- series containers and table/ASCII
  reporting shared by the pytest-benchmark targets in ``benchmarks/``,
* :mod:`repro.bench.pool`       -- parallel fan-out of independent figure
  points across CPU cores (deterministic, bit-identical to serial),
* :mod:`repro.bench.cache`      -- content-addressed on-disk cache of
  point results keyed by (package source, driver, config snapshot, seed).

Each driver runs a deterministic SPMD simulation and reports *simulated*
nanoseconds (or derived rates); pytest-benchmark wraps the drivers so the
usual ``pytest benchmarks/ --benchmark-only`` flow works, with the
reproduced series attached as ``extra_info``.
"""

from repro.bench.cache import RunCache
from repro.bench.harness import (
    Series,
    format_series_table,
    format_table,
    geomean,
)
from repro.bench.pool import BenchPoint, run_points

__all__ = [
    "Series", "format_table", "format_series_table", "geomean",
    "BenchPoint", "run_points", "RunCache",
]
