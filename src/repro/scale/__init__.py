"""Hybrid million-rank scale mode (ROADMAP item 1).

The paper runs foMPI at up to 524,288 processes; the DES executes real
protocol code only up to thousands of ranks.  This package closes the
gap with a *hybrid* execution mode: a sampled subset of ranks runs
protocol-faithful generator code on the DES kernel while the remaining
ranks are folded into vectorized aggregate state (numpy
structure-of-arrays for lock words, epoch counters and PSCW matching
queues), evaluated against the same calibrated cost models
(:mod:`repro.models.params_fompi`).

Validation is structural, not vibes: the vectorized models mirror the
full runtime's collective and protocol algorithms *round by round*, so
at overlapping sizes a hybrid run reproduces the full-fidelity run's
per-protocol message counts **exactly** (``tests/scale``, the CI
``scale-parity`` job, and ``repro scale parity``), and its O(log p)
bounds (fence rounds, lock-acquire AMOs, notification fan-out) are
asserted at every size up to 1Mi ranks.
"""

from repro.scale.hybrid import HybridParityError, HybridResult, run_hybrid
from repro.scale.parity import parity_case, parity_table
from repro.scale.units import format_ranks, parse_ranks

__all__ = [
    "HybridParityError",
    "HybridResult",
    "format_ranks",
    "parity_case",
    "parity_table",
    "parse_ranks",
    "run_hybrid",
]
