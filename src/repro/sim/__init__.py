"""Deterministic discrete-event simulation (DES) kernel.

A minimal, self-contained cooperative-coroutine simulator in the style of
SimPy: rank programs are Python generators that ``yield`` events; the
:class:`~repro.sim.kernel.Environment` resumes them at deterministic
simulated times.  All of foMPI-py's protocols execute on this kernel.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
]
