"""foMPI-py: a simulated reproduction of the SC'13 foMPI paper.

This package implements the scalable MPI-3.0 one-sided (RMA) protocols of

    Gerstenberger, Besta, Hoefler:
    "Enabling Highly-Scalable Remote Memory Access Programming with
    MPI-3 One Sided", SC 2013

on top of a deterministic discrete-event simulation of a Cray-XE6-like
machine (Gemini-like 3-D torus network exposed through a DMAPP-like RDMA
API, plus an XPMEM-like intra-node shared-memory substrate).

Top-level convenience re-exports cover the most common entry points; see
the subpackages for the full API:

- :mod:`repro.sim`      -- discrete-event simulation kernel
- :mod:`repro.machine`  -- machine/network model
- :mod:`repro.mem`      -- address spaces, atomics, symmetric heap
- :mod:`repro.dmapp`    -- DMAPP-like RDMA substrate
- :mod:`repro.xpmem`    -- XPMEM-like intra-node substrate
- :mod:`repro.runtime`  -- SPMD job launcher and collectives
- :mod:`repro.mpi1`     -- MPI-1 message-passing baseline
- :mod:`repro.rma`      -- the MPI-3 RMA library (the paper's contribution)
- :mod:`repro.pgas`     -- UPC-like and Coarray-like comparators
- :mod:`repro.models`   -- the paper's performance models
- :mod:`repro.apps`     -- hashtable, DSDE, 3-D FFT, MILC proxy
- :mod:`repro.bench`    -- per-figure benchmark harness
"""

from repro._version import __version__
from repro.config import (
    FaultPlan,
    MachineConfig,
    NicStall,
    NodeCrash,
    SimConfig,
)

__all__ = [
    "__version__",
    "MachineConfig",
    "SimConfig",
    "FaultPlan",
    "NicStall",
    "NodeCrash",
    "Job",
    "run_spmd",
]


def __getattr__(name):
    # Lazy re-exports keep `import repro` cheap and avoid importing the
    # whole stack for users who only want one subsystem.
    if name in ("Job", "run_spmd"):
        from repro.runtime import job

        return getattr(job, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
