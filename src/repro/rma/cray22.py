"""Cray MPI-2.2 one-sided baseline ("relatively untuned", per the paper).

Every figure that includes "Cray MPI-2.2" compares foMPI against the
vendor's MPI-2 RMA implementation, whose small-message path goes through a
software agent (window bookkeeping, origin-side queuing) and only switches
to direct DMAPP transfers above a size threshold -- the "DMAPP protocol
change" annotated around 4-8 KiB in Figures 4a/4b/5a/5b.

This module reproduces that cost structure over the same substrate:

* put/get below ``protocol_change_bytes``: software path -- large constant
  overhead on the remote side, byte cost above the wire gap;
* above the threshold: direct DMAPP plus a small constant;
* fence: heavy per-round software cost (Figure 6b);
* PSCW: implemented over two-sided internal messages with a per-call cost
  that grows with the process count -- the "systematically growing
  overheads in Cray's implementation" of Figure 6c;
* accumulate: software active-message-style (used in the DSDE study).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dmapp.api import require_contiguous
from repro.errors import EpochError, WindowError
from repro.mem.address_space import capture

__all__ = ["Cray22Params", "Cray22Window", "win_allocate_cray22"]


@dataclass(frozen=True)
class Cray22Params:
    """Cray MPI-2.2 RMA cost model (ns)."""

    protocol_change_bytes: int = 4096
    sw_put_origin: float = 1200.0     # origin library path (small msgs)
    sw_put_remote: float = 7500.0     # software agent at the target
    sw_large_origin: float = 1800.0   # origin path after protocol change
    sw_get_remote: float = 8800.0
    sw_byte_gap: float = 1.1          # software-path copy cost per byte
    fence_round_overhead: float = 5200.0
    pscw_base: float = 2500.0         # per post/start/complete/wait call
    pscw_log_coeff: float = 900.0     # * log2(p): growing overheads (Fig 6c)
    accumulate_overhead: float = 9500.0
    msg_rate_overhead: float = 600.0  # extra per-op issue cost


class Cray22Window:
    """An MPI-2.2 window (baseline implementation)."""

    def __init__(self, ctx, seg, descs, params: Cray22Params | None = None) -> None:
        self.ctx = ctx
        self.seg = seg
        self.descs = descs
        self.params = params or Cray22Params()
        self.epoch_open = False

    # -- communication -----------------------------------------------------
    def put(self, data, target: int, offset: int = 0):
        ctx = self.ctx
        p = self.params
        raw = capture(data)         # put_nbi lands it without a copy
        if len(raw) < p.protocol_change_bytes:
            yield from ctx.compute(p.sw_put_origin + p.msg_rate_overhead)
            h = yield from ctx.dmapp.put_nbi(self.descs[target], offset, raw)
            # Software path: the transfer is processed by the *target*
            # agent (copy + bookkeeping) -- asynchronous to the origin CPU,
            # so it delays completion rather than charging compute here.
            ctx.dmapp.extend_completion(
                h, p.sw_put_remote
                + len(raw) * (p.sw_byte_gap - ctx.world.gemini.gap_per_byte))
        else:
            yield from ctx.compute(p.sw_large_origin)
            yield from ctx.dmapp.put_nbi(self.descs[target], offset, raw)
        return None

    def get(self, out: np.ndarray, target: int, offset: int = 0):
        require_contiguous(out, WindowError)
        ctx = self.ctx
        p = self.params
        n = out.nbytes
        if n < p.protocol_change_bytes:
            yield from ctx.compute(p.sw_put_origin + p.msg_rate_overhead)
            yield from ctx.compute(p.sw_get_remote
                                   + n * (p.sw_byte_gap
                                          - ctx.world.gemini.get_gap_per_byte))
            got = yield from ctx.dmapp.get_b(self.descs[target], offset, n)
        else:
            yield from ctx.compute(p.sw_large_origin)
            got = yield from ctx.dmapp.get_b(self.descs[target], offset, n)
        out.view(np.uint8).ravel()[:] = got

    def accumulate(self, data, target: int, offset: int = 0):
        """Software accumulate (active-message at the target agent)."""
        ctx = self.ctx
        yield from ctx.compute(self.params.accumulate_overhead)
        raw = np.ascontiguousarray(np.asarray(data)).view(np.uint8).ravel()
        # Modeled as a put that the remote agent applies; SUM on int64.
        seg = ctx.world.reg_tables[target].resolve(self.descs[target])
        vals = np.asarray(data).ravel()

        def deliver(seg=seg, off=offset, vals=vals):
            view = seg.typed(vals.dtype, offset=off, count=vals.size)
            view += vals

        net = ctx.world.network
        inj_start, inj_end = net.occupy_injection(ctx.node, raw.size)
        net.packet(ctx.node, ctx.node_of(target), raw.size,
                   inject_window=(inj_start, inj_end), on_deliver=deliver)
        yield from ctx.compute(net.params.o_inject)

    # -- completion ----------------------------------------------------------
    def _drain(self):
        """Complete all outstanding operations (agent time is already part
        of each handle's extended completion horizon)."""
        yield from self.ctx.dmapp.gsync()

    def flush(self, target: int | None = None):
        yield from self._drain()

    def fence(self):
        ctx = self.ctx
        yield from self._drain()
        p = ctx.nranks
        rounds = max(1, (p - 1).bit_length()) if p > 1 else 0
        yield from ctx.compute(self.params.fence_round_overhead * rounds)
        yield from ctx.coll.barrier()
        self.epoch_open = True

    # -- PSCW over internal two-sided messages -------------------------------
    def _pscw_cost(self):
        p = self.ctx.nranks
        rounds = max(1, (p - 1).bit_length()) if p > 1 else 1
        yield from self.ctx.compute(
            self.params.pscw_base + self.params.pscw_log_coeff * rounds)

    def post(self, group):
        yield from self._pscw_cost()
        for j in group:
            yield from self.ctx.mpi.send(j, None, tag=901, channel="c22",
                                         nbytes=8)
        self._exposure = list(group)

    def start(self, group):
        yield from self._pscw_cost()
        for j in group:
            yield from self.ctx.mpi.recv(j, tag=901, channel="c22")
        self._access = list(group)
        self.epoch_open = True

    def complete(self):
        yield from self._drain()
        yield from self._pscw_cost()
        for j in self._access:
            yield from self.ctx.mpi.send(j, None, tag=902, channel="c22",
                                         nbytes=8)
        self.epoch_open = False

    def wait(self):
        yield from self._pscw_cost()
        for j in self._exposure:
            yield from self.ctx.mpi.recv(j, tag=902, channel="c22")

    def lock(self, target: int):
        if self.epoch_open:
            raise EpochError("lock inside an open epoch")
        yield from self.ctx.compute(self.params.pscw_base)
        self.epoch_open = True

    def unlock(self, target: int):
        yield from self._drain()
        yield from self.ctx.compute(self.params.pscw_base / 2)
        self.epoch_open = False


def win_allocate_cray22(ctx, size: int, params: Cray22Params | None = None):
    """Collective creation of an MPI-2.2 window (allgathered descriptors --
    MPI-2.2 predates scalable window creation)."""
    seg = ctx.space.alloc(max(1, size), label="c22win")
    desc = ctx.reg.register(seg)
    descs = yield from ctx.coll.allgather(desc, nbytes=32)
    yield from ctx.coll.barrier()
    return Cray22Window(ctx, seg, dict(enumerate(descs)), params)
