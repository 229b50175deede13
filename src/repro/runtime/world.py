"""World: one simulated machine plus all per-rank state."""

from __future__ import annotations

from repro.config import (CheckConfig, FaultPlan, FTConfig, MachineConfig,
                          ObsConfig, SimConfig)
from repro.machine.network import Network, OpCounters
from repro.machine.params import GeminiParams, XpmemParams
from repro.machine.topology import RankMap, Torus3D
from repro.mem.address_space import AddressSpace
from repro.mem.registration import RegistrationTable
from repro.mpi1.params import Mpi1Params
from repro.sim.kernel import Environment
from repro.sim.random import stream

__all__ = ["RankTable", "World"]

#: Every run's safety limits: the runaway-protocol event backstop, and the
#: progress watchdog's check interval and the stale checks before it
#: raises LivelockError (a pure observer: it never schedules an event).
MAX_EVENTS = 200_000_000
WATCHDOG_INTERVAL = 800
WATCHDOG_STALLS = 3


class RankTable(dict):
    """Lazily materialized ``rank -> per-rank object`` table.

    ``World`` used to build every rank's :class:`AddressSpace` and
    :class:`RegistrationTable` eagerly at construction -- O(p) Python
    objects before the first event runs, which is exactly the per-rank
    state the hybrid scale mode (:mod:`repro.scale`) exists to avoid.
    This table is dict-compatible for every existing access pattern
    (``table[rank]``, ``rank in table``, iteration, ``len``) but only
    constructs an entry on first use, so a world's footprint scales
    with the ranks that actually touch memory, not with ``nranks``.
    It *is* the dict of the materialized entries, so ``table[rank]``
    (twice per put) is a plain dict lookup after the first use.
    """

    def __init__(self, nranks: int, factory) -> None:
        super().__init__()
        self.nranks = nranks
        self._factory = factory

    def __missing__(self, rank: int):
        if not 0 <= rank < self.nranks:
            raise KeyError(rank)
        entry = self[rank] = self._factory(rank)
        return entry

    def __contains__(self, rank: int) -> bool:
        return 0 <= rank < self.nranks

    def __len__(self) -> int:
        return self.nranks

    def __iter__(self):
        return iter(range(self.nranks))

    def keys(self):
        return range(self.nranks)

    def values(self):
        return (self[r] for r in range(self.nranks))

    def items(self):
        return ((r, self[r]) for r in range(self.nranks))

    @property
    def materialized(self) -> int:
        """Entries actually constructed (asserted by the laziness tests)."""
        return dict.__len__(self)


class World:
    """Everything shared by the ranks of one simulated job.

    ``windows`` is the one cross-rank window registry: win_id -> rank ->
    :class:`~repro.rma.window.Window`.  A rank reads a peer's control
    words, XPMEM exposure or dynamic directory from the peer's Window,
    and survivor-side recovery (:mod:`repro.rma.recovery`) walks it.

    ``faults`` is the run's :class:`~repro.config.FaultPlan` and ``ft`` its
    rollback-recovery policy (:class:`~repro.config.FTConfig`); each is
    ``None`` when the run has none, and then none of its machinery is
    constructed.  A crash or stall on a node the run does not have
    (outside its ranks' nodes and the FT spares) raises ``ValueError``.
    """

    def __init__(
        self,
        nranks: int,
        machine: MachineConfig | None = None,
        sim: SimConfig | None = None,
        gemini: GeminiParams | None = None,
        xpmem: XpmemParams | None = None,
        mpi1: Mpi1Params | None = None,
        faults: FaultPlan | None = None,
        obs: ObsConfig | None = None,
        check: CheckConfig | None = None,
        ft: FTConfig | None = None,
    ) -> None:
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = nranks
        self.machine = machine or MachineConfig()
        self.sim = sim or SimConfig()
        self.gemini = gemini or GeminiParams()
        self.xpmem = xpmem or XpmemParams()
        self.mpi1 = mpi1 or Mpi1Params()
        self.faults = faults
        self.ft_config = ft
        self.rank_map = RankMap.for_config(nranks, self.machine)
        # Rollback recovery holds spare nodes out of the initial placement.
        spares = ft.spares if ft is not None else 0
        if faults is not None:
            nnodes = self.rank_map.nnodes + spares
            for fault in faults.crashes + faults.stalls:
                if fault.node >= nnodes:
                    raise ValueError(
                        f"{type(fault).__name__}.node={fault.node} is not a "
                        f"node of this run (nodes 0..{nnodes - 1})")

        # With planned crashes, rank processes die by Interrupt; the run
        # must survive those instead of aborting (non-strict kernel).
        has_crashes = faults is not None and bool(faults.crashes)
        self.env = Environment(max_events=MAX_EVENTS, strict=not has_crashes,
                               watchdog_interval=WATCHDOG_INTERVAL,
                               watchdog_stalls=WATCHDOG_STALLS)
        # The injector exists only when a FaultPlan is active; every fault
        # hook in the machine/transport layers is behind an ``is None``
        # test, so fault-free runs stay bit-identical to pre-fault code.
        if faults is not None:
            from repro.faults import FaultInjector

            self.injector = FaultInjector(faults, self.sim.seed)
        else:
            self.injector = None
        from repro.check.core import RaceChecker, active_check_capture
        from repro.obs.core import Instrumentation, active_capture

        # Observability: spans + per-rank metrics.  Constructed when the
        # config enables it, or when a repro.obs.capture() block is live
        # (the benchmark-harness hook); None otherwise, and every
        # protocol-layer hook is behind a single ``is None`` test.
        self.obs = None
        observed = obs is not None and obs.enabled
        sink = None if observed else active_capture()
        if observed or sink is not None:
            self.obs = Instrumentation(nranks)
            if sink is not None:
                sink.append(self.obs)
        # Memory-model checker: same contract as obs -- constructed when
        # the config enables it or a repro.check capture block is live;
        # None otherwise, one ``is None`` test per protocol hook.
        self.checker = None
        checked = check is not None and check.enabled
        csink = None if checked else active_check_capture()
        if checked or csink is not None:
            self.checker = RaceChecker(nranks, obs=self.obs)
            if csink is not None:
                csink.append(self.checker)
        # The torus covers the FT spares, so replica/restore traffic to
        # them pays real modeled hop counts.
        torus_ranks = nranks + spares * self.rank_map.ranks_per_node
        self.torus = Torus3D(self.machine.derive_torus(torus_ranks))
        self.counters = OpCounters()
        self.network = Network(self.env, self.torus, self.rank_map,
                               self.gemini, self.counters,
                               injector=self.injector)
        self.network.obs = self.obs
        self.spaces = RankTable(nranks, AddressSpace)
        self.reg_tables = RankTable(nranks, RegistrationTable)
        self.mpi_registry: dict = {}
        # The window table: win_id -> rank -> Window.  Each Window adds
        # itself on construction and keeps its row as ``win.peers``.
        self.windows: dict[int, dict] = {}
        # rank -> the process running its current incarnation (filled by
        # run_on_world; a rollback restart replaces the dead one's entry).
        self.rank_procs: list = []
        # Survivor-side recovery: a failure-notification service plus the
        # lock-revocation ledger, constructed only for runs with planned
        # crashes (same zero-cost-when-off contract as the injector).
        self.notifier = None
        self.lock_ledger = None
        if self.injector is not None and self.injector.has_crashes:
            from repro.rma import recovery
            from repro.runtime.notify import FailureNotifier

            self.notifier = FailureNotifier(self)
            self.lock_ledger = recovery.RevocationLedger()
            recovery.install(self)
        # Rollback recovery (checkpoint + log + restart).  Constructed for
        # any FT-enabled run -- including fault-free ones, so the overhead
        # benchmark can measure checkpoint cost without an injector.  The
        # restore hook needs the notifier and runs after revocation.
        self.ft = None
        if ft is not None:
            from repro.ft.core import FTRuntime

            self.ft = FTRuntime(self)
            if self.notifier is not None:
                self.notifier.on_revoke(self.ft.restore)

    def rng(self, purpose: str, rank: int = 0):
        """Deterministic random stream for (purpose, rank)."""
        return stream(self.sim.seed, purpose, rank)

    @property
    def now(self) -> int:
        return self.env.now
