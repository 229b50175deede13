"""XPMEM expose/attach and direct-copy operations.

All operations execute synchronously on the calling CPU (charged as
simulated time), with effects visible immediately -- the unified memory
model of same-node shared memory.  Atomics map to CPU ``lock``-prefix
instructions on the same :class:`~repro.mem.atomic.SegmentCells` words the
NIC AMO engine uses, so intra- and inter-node atomics compose correctly on
a single memory image (required by MPI-3's unified model).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RegistrationError
from repro.machine.params import XpmemParams
from repro.mem.address_space import Segment, capture
from repro.mem.atomic import SegmentCells, prepare_stream

__all__ = ["XpmemSegment", "XpmemEndpoint"]


@dataclass(frozen=True)
class XpmemSegment:
    """Token for an exposed segment (like an xpmem segid/apid pair)."""

    owner_rank: int
    node: int
    seg: Segment


class XpmemEndpoint:
    """One rank's XPMEM context."""

    def __init__(self, env, rank: int, rank_map, params: XpmemParams | None = None,
                 counters=None) -> None:
        self.env = env
        self.rank = rank
        self.rank_map = rank_map
        self.node = rank_map.node_of(rank)
        self.params = params or XpmemParams()
        self._amo_latency_int = int(round(self.params.amo_latency))
        self.counters = counters

    # -- expose / attach -------------------------------------------------
    def expose(self, seg: Segment) -> XpmemSegment:
        return XpmemSegment(self.rank, self.node, seg)

    def attach(self, token: XpmemSegment) -> Segment:
        """Map a same-node peer's exposed segment and return it, the
        target of :meth:`store` / :meth:`load`; raises off-node."""
        if token.node != self.node:
            raise RegistrationError(
                f"rank {self.rank} (node {self.node}) cannot XPMEM-attach "
                f"memory on node {token.node}")
        return token.seg

    # -- data movement (CPU copies; synchronous) ---------------------------
    def store(self, seg: Segment, offset: int, data):
        """CPU copy into a mapped segment ('put' direction): ``data`` is
        captured and the range checked at the call, as ``put_nbi`` does,
        and lands as one slice store after the copy time.

        Stores are write-behind: the copy loop runs at SSE bandwidth with
        only a small setup cost, which is what makes the intra-node
        message rate ~12.5 M/s (Figure 5c).
        """
        if type(data) is not memoryview or type(data.obj) is not bytes:
            data = capture(data)
        n = len(data)
        if offset < 0 or offset + n > seg.size or not seg.alive:
            seg._check(offset, n)           # raises
        p = self.params
        cost = int(round(p.store_setup + n * p.copy_per_byte))
        if self.counters is not None:
            self.counters.count_issue(self.rank, "xpmem-store", n)
        yield cost
        if not seg.alive:
            seg._check(offset, n)           # raises: freed during the copy
        seg.mv[offset:offset + n] = data
        self.env.progress_marks += 1    # env.note_progress(), inline

    def load(self, seg: Segment, offset: int, nbytes: int):
        """CPU copy out of a mapped segment ('get' direction).

        Loads pay the cache-miss chain to the owner's memory (the ~0.35 us
        floor of Figure 4c) plus copy bandwidth.
        """
        p = self.params
        cost = int(round(p.latency + nbytes * p.copy_per_byte))
        if self.counters is not None:
            self.counters.count_issue(self.rank, "xpmem-load", nbytes)
        yield cost
        self.env.note_progress()  # completed data movement
        return seg.read(offset, nbytes)

    # -- CPU atomics -------------------------------------------------------
    def amo(self, cells: SegmentCells, idx: int, op: str, operand: int,
            operand2: int = 0, on_applied=None):
        """lock-prefixed CPU atomic on (possibly remote-on-node) cells.
        ``on_applied(old)`` runs with the effect, like ``dmapp.amo_nbi``'s."""
        yield self._amo_latency_int
        if self.counters is not None:
            self.counters.count_issue(self.rank, f"cpu-amo:{op}", 8)
        if op == "cas":
            old = cells.cas(idx, operand, operand2)
        else:
            old = cells.apply(idx, op, operand)
        if on_applied is not None:
            on_applied(old)
        return old

    def amo_custom(self, mutate, cost_ns: int | None):
        """Chained CPU atomic: ``mutate()`` (a read-modify-write over
        several words) runs in one step after ``cost_ns`` (``None``: no
        charge).  It issues nothing, so unlike the NIC's
        ``amo_custom_nbi`` nothing is counted."""
        if cost_ns is not None:
            yield cost_ns
        return mutate()

    def amo_stream(self, cells: SegmentCells, base_idx: int, op: str,
                   operands, fetch: bool = False):
        """Element-wise CPU atomics over consecutive cells (``op='fetch'``
        reads them atomically and modifies nothing), captured at the call
        and landed after the charged latency in one ``cells.apply_block``,
        whose old words (``uint64``) are returned when ``fetch``."""
        n, run = prepare_stream(cells, base_idx, op, operands)
        cost = int(round(self.params.amo_latency +
                         self.params.copy_per_byte * 8 * n))
        yield cost
        old = run()
        if self.counters is not None:
            self.counters.count_issue(self.rank, f"cpu-amo-stream:{op}",
                                      8 * n)
        return old if fetch else None
