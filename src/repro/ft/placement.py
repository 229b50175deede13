"""Seeded ring placement of checkpoint buddies and spare nodes.

The buddy of a node is chosen by a fixed, seed-derived stride around the
ring of *base* nodes (the nodes that host ranks in the initial block
placement).  A stride rather than the naive ``node + 1`` decorrelates the
buddy ring from the torus's x-dimension neighbors: because node ids are
x-major coordinates of the torus, a stride walks the machine in a
different direction than nearest-neighbor application traffic, so a
localized failure is less likely to take a node and its replica together.
The stride is derived once from the run seed, so placement is
deterministic and identical on every rank without any exchange.

Spare nodes are held out past the base block: spare ``k`` is node
``base_nnodes + k``.  The torus is sized to cover them (see
``World.__init__``), so replica and restore traffic to spares pays real
modeled hop counts.
"""

from __future__ import annotations

from repro.sim.random import derive_seed

__all__ = ["BuddyPlacement"]


class BuddyPlacement:
    """Deterministic buddy/spare placement for one run."""

    def __init__(self, base_nnodes: int, seed: int) -> None:
        if base_nnodes < 1:
            raise ValueError(f"base_nnodes={base_nnodes} must be >= 1")
        self.base_nnodes = base_nnodes
        if base_nnodes > 1:
            self.step = 1 + derive_seed(seed, "ft-buddy") % (base_nnodes - 1)
        else:
            self.step = 0  # single node: the replica stays local

    def buddy_of(self, node: int) -> int:
        """Ring buddy of a *base* node (where its replicas live)."""
        return (node + self.step) % self.base_nnodes

    def spare_node(self, k: int) -> int:
        """Node id of the ``k``-th spare (0-based)."""
        return self.base_nnodes + k
