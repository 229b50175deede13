"""LogGP-style network model.

The paper cites LogP-family models as the algorithm-design counterpart of
its exact performance functions (Section 2, citing Karp et al.).  This is
the standard LogGP extension: latency L, overhead o, gap g, Gap-per-byte G,
plus process count P -- handy for sanity-checking collective algorithm
costs against the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LogGPModel"]


@dataclass(frozen=True)
class LogGPModel:
    """All times in ns; G in ns/byte."""

    L: float = 500.0     # wire latency
    o: float = 416.0     # per-message CPU/NIC overhead
    g: float = 416.0     # minimum gap between messages
    G: float = 0.16      # per-byte gap
    P: int = 2

    def point_to_point(self, nbytes: int) -> float:
        """One-way time for an nbytes message."""
        return self.o + self.L + self.G * nbytes + self.o

    def message_rate(self, nbytes: int) -> float:
        """Messages/second at steady state."""
        per = max(self.g, self.G * nbytes)
        return 1e9 / per

    def dissemination_barrier(self) -> float:
        """ceil(log2 P) rounds of point-to-point."""
        rounds = math.ceil(math.log2(self.P)) if self.P > 1 else 0
        return rounds * self.point_to_point(0)

    def allreduce(self, nbytes: int) -> float:
        """Recursive doubling: log2 P exchange rounds."""
        rounds = math.ceil(math.log2(self.P)) if self.P > 1 else 0
        return rounds * (self.point_to_point(nbytes))

    @classmethod
    def from_gemini(cls, gemini, P: int = 2, hops: int = 1) -> "LogGPModel":
        """Derive LogGP parameters from the machine model's parameters."""
        return cls(L=gemini.wire_latency(hops), o=gemini.o_inject,
                   g=gemini.o_inject, G=gemini.gap_per_byte, P=P)
