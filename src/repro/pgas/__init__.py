"""PGAS comparators: Cray-UPC-like and Fortran-Coarray-like layers.

The paper benchmarks foMPI against Cray's tuned UPC and Fortran 2008
coarray compilers, which issue the same DMAPP/XPMEM ops with runtime
overheads of their own.  Here a shared array or coarray is a
``win_create`` window, so the race checker sees every access, and each
call adds its layer's software cost, calibrated to Figures 4-6.
"""

from repro.pgas.caf import CafContext, CafParams
from repro.pgas.upc import UpcContext, UpcParams

__all__ = ["UpcContext", "UpcParams", "CafContext", "CafParams"]
