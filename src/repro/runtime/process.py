"""Per-rank execution context.

A rank program is a generator taking a :class:`RankContext`::

    def program(ctx):
        win = yield from ctx.rma.win_allocate(4096)
        yield from win.lock(1, exclusive=True)
        yield from win.put(data, target=1, offset=0)
        yield from win.flush(1)
        yield from win.unlock(1)
        return ctx.now

The context exposes every substrate (dmapp, xpmem, mpi, collectives, rma,
pgas) plus time-charging helpers; ``compute``/``instr`` model local CPU
work, which is how the overlap benchmark (Figure 5a) measures what the NIC
can hide.
"""

from __future__ import annotations

from repro.dmapp.api import DmappEndpoint
from repro.mpi1.pt2pt import Mpi1Endpoint
from repro.xpmem.api import XpmemEndpoint

__all__ = ["RankContext"]


class RankContext:
    """One rank's view of the world."""

    def __init__(self, world, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.nranks = world.nranks
        self.env = world.env
        self.node = world.rank_map.node_of(rank)
        self.space = world.spaces[rank]
        self.reg = world.reg_tables[rank]
        # Observability sink (None when disabled -- every hook below the
        # runtime tests exactly that before recording anything).
        self.obs = world.obs
        # Memory-model checker (same None-when-disabled contract).
        self.checker = world.checker
        # One endpoint for both fabrics: it retransmits (deadlines, seeded
        # backoff, AMO replay dedup) iff the network carries an injector.
        self.dmapp = DmappEndpoint(world.env, rank, world.network,
                                   world.rank_map, world.reg_tables)
        self.dmapp.obs = world.obs
        self.xpmem = XpmemEndpoint(world.env, rank, world.rank_map,
                                   world.xpmem, world.counters)
        self.xpmem.checker = world.checker
        self.mpi = Mpi1Endpoint(world.env, rank, world.network,
                                world.rank_map, world.mpi1, world.xpmem,
                                world.mpi_registry)
        self.mpi.checker = world.checker
        # Recovery services (both None on fault-free runs: the single
        # ``is None`` gate every protocol-layer recovery hook tests).
        self.notifier = world.notifier
        self.lock_ledger = world.lock_ledger
        # Rollback recovery: the world's FTRuntime (same None-when-off
        # contract); its calls name the rank they act for.
        self.ft = world.ft
        if world.ft is not None:
            self.dmapp.ft = world.ft
            self.mpi.ft = world.ft
        self._coll = None
        self._rma = None
        self._upc = None
        self._caf = None
        self._site_key = f"rank{rank}"

    # -- lazy heavy layers -------------------------------------------------
    @property
    def coll(self):
        if self._coll is None:
            from repro.runtime.collectives import Collectives

            self._coll = Collectives(self)
        return self._coll

    @property
    def rma(self):
        if self._rma is None:
            from repro.rma.runtime import RmaContext

            self._rma = RmaContext(self)
        return self._rma

    @property
    def upc(self):
        if self._upc is None:
            from repro.pgas.upc import UpcContext

            self._upc = UpcContext(self)
        return self._upc

    @property
    def caf(self):
        if self._caf is None:
            from repro.pgas.caf import CafContext

            self._caf = CafContext(self)
        return self._caf

    # -- diagnostics -----------------------------------------------------
    def note_api(self, site: str, *args) -> None:
        """Record this rank's last API call site for deadlock/livelock
        diagnostics (a dict write; never perturbs simulation state);
        ``site % args`` is formatted only if a report is printed."""
        self.env.api_sites[self._site_key] = (site, *args) if args else site

    # -- time -----------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time (ns)."""
        return self.env.now

    def compute(self, ns: float):
        """Model local computation taking ``ns`` nanoseconds."""
        if ns > 0:
            yield int(round(ns))

    def instr_ns(self, count: float) -> int | None:
        """What :meth:`instr` charges for ``count`` instructions: whole ns,
        or ``None`` for no event at all (tested on the float, as
        :meth:`compute` does: a cost that rounds to 0 ns is an event)."""
        ns = self.world.machine.instructions_to_ns(count)
        return int(round(ns)) if ns > 0 else None

    def instr(self, count: float):
        """Charge ``count`` CPU instructions at the machine clock."""
        ns = self.instr_ns(count)
        if ns is not None:
            yield ns

    # -- topology helpers -------------------------------------------------
    def same_node(self, other_rank: int) -> bool:
        return self.world.rank_map.same_node(self.rank, other_rank)

    def node_of(self, rank: int) -> int:
        return self.world.rank_map.node_of(rank)

    def rng(self, purpose: str):
        return self.world.rng(purpose, self.rank)
