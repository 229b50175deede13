"""Million-rank scale mode: an exact count model plus the analytic clock.

The paper runs foMPI at up to 524,288 processes; the DES executes real
protocol code only up to thousands of ranks.  This package closes the
gap with two things, neither of which runs a rank: a *vectorized count
model* that replays every collective and protocol round over numpy
vectors of all p ranks, and the paper's own performance models
(:mod:`repro.models.params_fompi`) summed over the workload's phases
for simulated time -- evaluated, not simulated.

Validation is structural, not vibes: the vectorized models mirror the
full runtime's collective and protocol algorithms *round by round*, so
at overlapping sizes a scale-mode run reproduces the full-fidelity
run's per-protocol message counts **exactly** (``tests/scale``, the CI
``scale-parity`` job, and ``repro scale parity``); at every size up to
1Mi ranks its message total must equal the paper's closed forms and
its O(log p) bounds (fence rounds, lock-acquire AMOs, notification
fan-out) are asserted.
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
