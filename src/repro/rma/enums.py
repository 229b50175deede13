"""Enumerations for the RMA API."""

from __future__ import annotations

import enum

__all__ = ["LockType", "Op", "WinFlavor", "HW_OPS"]


class LockType(enum.Enum):
    """MPI lock types for passive target synchronization."""

    SHARED = "shared"
    EXCLUSIVE = "exclusive"


class Op(enum.Enum):
    """MPI reduction operations usable in accumulates.

    ``hw_name`` is the DMAPP AMO the NIC can run for 8-byte integers; ops
    without one always take the software fallback path (paper Section 2.4,
    measured as P_acc,min in Figure 6a).  ``NO_OP`` -- MPI-3's atomic
    read -- runs as a fetch-only stream: the AMO engine returns the cells
    and applies nothing.
    """

    SUM = "sum"
    PROD = "prod"
    MIN = "min"
    MAX = "max"
    BAND = "band"
    BOR = "bor"
    BXOR = "bxor"
    REPLACE = "replace"
    NO_OP = "no_op"


#: Ops with a NIC AMO fast path for 8-byte integer data.  Gemini's AMO set
#: has add/and/or/xor but no min/max/prod -- exactly why the paper's MIN
#: curve takes the fallback protocol.
_HW_MAP = {
    Op.SUM: "add",
    Op.BAND: "and",
    Op.BOR: "or",
    Op.BXOR: "xor",
    Op.REPLACE: "replace",
    Op.NO_OP: "fetch",
}

HW_OPS = frozenset(_HW_MAP)

for _op in Op:   # a plain attribute: reading it hashes no member
    _op.hw_name = _HW_MAP.get(_op)
del _op


class WinFlavor(enum.Enum):
    """How a window's memory came to be (MPI_WIN_CREATE_FLAVOR_*)."""

    CREATE = "create"
    ALLOCATE = "allocate"
    DYNAMIC = "dynamic"
    SHARED = "shared"
