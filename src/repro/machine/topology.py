"""3-D torus topology and rank placement.

Blue Waters' Gemini network is a 3-D torus; each Gemini ASIC serves two
XE6 nodes, but for timing purposes we model one NIC per node.  Routing is
dimension-ordered and minimal, so only the hop *count* matters for our
latency model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MachineConfig

__all__ = ["Torus3D", "RankMap"]


class Torus3D:
    """A 3-D torus of ``shape`` nodes with minimal (wraparound) routing."""

    def __init__(self, shape: tuple[int, int, int]) -> None:
        if any(d < 1 for d in shape):
            raise ValueError(f"bad torus shape {shape}")
        self.shape = shape
        # Both coords() and hops() are pure functions of the (immutable)
        # shape and sit on the per-packet hot path; memoize.
        self._coords: dict[int, tuple[int, int, int]] = {}
        self._hops: dict[tuple[int, int], int] = {}

    @property
    def nnodes(self) -> int:
        x, y, z = self.shape
        return x * y * z

    def coords(self, node: int) -> tuple[int, int, int]:
        """Node id -> (x, y, z), x-major order."""
        c = self._coords.get(node)
        if c is None:
            x, y, z = self.shape
            if not 0 <= node < self.nnodes:
                raise ValueError(
                    f"node {node} out of range for shape {self.shape}")
            c = self._coords[node] = (node // (y * z), (node // z) % y,
                                      node % z)
        return c

    def node_at(self, cx: int, cy: int, cz: int) -> int:
        x, y, z = self.shape
        return ((cx % x) * y + (cy % y)) * z + (cz % z)

    def hops(self, a: int, b: int) -> int:
        """Minimal hop count between nodes (per-dimension wraparound)."""
        if a == b:
            return 0
        key = (a, b) if a < b else (b, a)
        cached = self._hops.get(key)
        if cached is None:
            total = 0
            for ca, cb, dim in zip(self.coords(a), self.coords(b), self.shape):
                d = abs(ca - cb)
                total += min(d, dim - d)
            cached = self._hops[key] = total
        return cached

    def diameter(self) -> int:
        return sum(d // 2 for d in self.shape)


@dataclass
class RankMap:
    """Block placement of ranks onto nodes (ranks 0..ppn-1 on node 0, ...).

    This mirrors the default Cray placement used in the paper's benchmarks
    (consecutive ranks fill a node, so the intra-node -> inter-node
    transition happens at p = ranks_per_node, visible as the knee in
    Figures 6c and 7a).
    """

    nranks: int
    ranks_per_node: int

    def __post_init__(self) -> None:
        if self.nranks < 1 or self.ranks_per_node < 1:
            raise ValueError("nranks and ranks_per_node must be positive")
        # Fault-tolerance re-homing: rank -> (node, placement generation).
        # Empty for every run without rollback recovery, in which case all
        # placement queries reduce to the original block arithmetic.
        self._overrides: dict[int, tuple[int, int]] = {}

    @property
    def nnodes(self) -> int:
        return (self.nranks + self.ranks_per_node - 1) // self.ranks_per_node

    def node_of(self, rank: int) -> int:
        if self._overrides:
            ov = self._overrides.get(rank)
            if ov is not None:
                return ov[0]
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range (nranks={self.nranks})")
        return rank // self.ranks_per_node

    def home_generation(self, rank: int) -> int:
        """0 for ranks on their original node; bumped by :meth:`rehome`.

        Two ranks share local (XPMEM) memory only when they are on the
        same node *and* in the same placement generation: a restarted rank
        re-exchanges attach tokens only with the cohort it was restored
        with, never with ranks that merely became co-located by re-homing.
        """
        if self._overrides:
            ov = self._overrides.get(rank)
            if ov is not None:
                return ov[1]
        return 0

    def rehome(self, rank: int, node: int, generation: int) -> None:
        """Move ``rank`` to ``node`` (rollback recovery adopting a spare or
        shrinking onto a buddy node)."""
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range (nranks={self.nranks})")
        if node < 0:
            raise ValueError(f"cannot rehome rank {rank} to node {node}")
        self._overrides[rank] = (node, int(generation))

    def ranks_on(self, node: int) -> tuple[int, ...]:
        """The ranks ``node`` hosts now, re-homed ones included."""
        return tuple(r for r in range(self.nranks) if self.node_of(r) == node)

    def same_node(self, a: int, b: int) -> bool:
        n = self.nranks
        if not self._overrides and 0 <= a < n and 0 <= b < n:
            return a // self.ranks_per_node == b // self.ranks_per_node
        return (self.node_of(a) == self.node_of(b)
                and self.home_generation(a) == self.home_generation(b))

    @classmethod
    def for_config(cls, nranks: int, config: MachineConfig) -> "RankMap":
        return cls(nranks=nranks, ranks_per_node=config.ranks_per_node)
