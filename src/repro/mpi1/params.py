"""Timing parameters for the MPI-1 baseline (Cray-MPT-like).

Calibrated against Figure 4a: 8-byte ping-pong half-round-trip ~1.3 us
(above foMPI's 1.0 us put -- message matching and the eager copy are the
difference), converging toward wire bandwidth at large sizes where the
rendezvous protocol is zero-copy.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Mpi1Params"]


@dataclass(frozen=True)
class Mpi1Params:
    """All times in ns, inverse bandwidths in ns/byte."""

    o_send: float = 150.0          # sender-side library overhead
    o_issue: float = 210.0         # per-message descriptor/queue work
    o_recv_match: float = 420.0    # receiver-side matching + completion
    eager_threshold: int = 8192    # switch to rendezvous above this
    eager_copy_per_byte: float = 0.25   # receive-side bounce-buffer copy
    rndv_handshake: float = 300.0  # extra software latency for RTS/CTS each
    header_bytes: int = 32
