"""Vector-fed counters and block placement for the scale count model.

At 1Mi ranks the full runtime's one-object-per-rank state (address
spaces, registration tables, window control blocks) is unaffordable;
the count model holds only what the reported ``stats`` need: two int64
arrays over all p ranks (per-rank counted operations and control
words) plus the placement vectors -- O(p) machine words, a few dozen
MB at 1Mi ranks, instead of O(p) Python objects.

:class:`ScaleCounters` is the aggregate twin of
:class:`repro.machine.network.OpCounters`: the vectorized protocol models
(:mod:`repro.scale.collmodel` / :mod:`repro.scale.protocols`) feed it
whole origin vectors per algorithm round, and its :meth:`snapshot`
returns the exact dict shape ``OpCounters.snapshot()`` produces, so
parity can be asserted as plain dict equality against a full-fidelity
:class:`~repro.config.RunResult`'s ``stats``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ScaleCounters", "ScaleTopology"]


class ScaleTopology:
    """Vectorized block placement: ``node[r] = r // ranks_per_node``.

    Mirrors :class:`repro.machine.topology.RankMap`'s default placement
    (consecutive ranks fill a node), precomputed as arrays so every
    algorithm round classifies intra- vs inter-node edges with one
    vector compare.
    """

    def __init__(self, nranks: int, ranks_per_node: int = 1) -> None:
        if nranks < 1:
            raise ValueError("need at least one rank")
        if ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        self.nranks = nranks
        self.ranks_per_node = ranks_per_node
        self.ranks = np.arange(nranks, dtype=np.int64)
        self.node = (self.ranks // ranks_per_node).astype(np.int32)


class ScaleCounters:
    """Vector-fed operation counters mirroring ``OpCounters``.

    ``add(kind, origins, nbytes_each)`` records one counted message per
    origin; ``origins`` is an int64 array of unique issuing ranks.
    """

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.by_kind: dict[str, int] = {}
        self.bytes_moved = 0
        self.messages = 0
        self.remote_ops = np.zeros(nranks, dtype=np.int64)
        self.control_memory = np.zeros(nranks, dtype=np.int64)

    def add(self, kind: str, origins: np.ndarray,
            nbytes_each: int = 0) -> None:
        """Count one ``kind`` message from each origin rank."""
        n = int(origins.shape[0])
        if n == 0:
            return
        # Origins are unique per round in every mirrored algorithm,
        # so buffered fancy-index add is exact (and fast at 1Mi).
        self.remote_ops[origins] += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + n
        self.messages += n
        self.bytes_moved += n * nbytes_each

    def add_control_memory_all(self, words: int) -> None:
        """Every rank allocates ``words`` control words (win ctrl block)."""
        self.control_memory += words

    def snapshot(self) -> dict:
        """Exact mirror of ``OpCounters.snapshot()``."""
        return {
            "messages": int(self.messages),
            "bytes_moved": int(self.bytes_moved),
            "max_remote_ops": int(self.remote_ops.max(initial=0)),
            "max_control_memory": int(self.control_memory.max(initial=0)),
            "by_kind": {k: int(v) for k, v in self.by_kind.items()},
        }
