"""Global configuration dataclasses.

`MachineConfig` places ranks on the simulated machine (a Cray XE6 like
Blue Waters: 2.3 GHz cores, 3-D torus).  `SimConfig` is the master seed.
Timing constants for the network and the individual transports live in
:mod:`repro.machine.params` -- this module only holds the structural knobs
shared by every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Core clock of the modelled XE6 (Interlagos), for instruction counts.
CPU_GHZ = 2.3


@dataclass(frozen=True)
class MachineConfig:
    """Placement of ranks on the simulated machine.

    Attributes
    ----------
    ranks_per_node:
        Number of MPI processes placed on each node (Blue Waters XE6 nodes
        have 4 x 8-core Interlagos sockets; the paper runs 32 ranks/node).
    """

    ranks_per_node: int = 32

    def nodes_for(self, nranks: int) -> int:
        """Number of nodes needed to host ``nranks`` processes."""
        return max(1, math.ceil(nranks / self.ranks_per_node))

    def derive_torus(self, nranks: int) -> tuple[int, int, int]:
        """Torus shape hosting ``nranks`` ranks (near-cubic, min volume)."""
        nodes = self.nodes_for(nranks)
        # Near-cubic torus: x >= y >= z with x*y*z >= nodes.
        z = max(1, int(nodes ** (1.0 / 3.0)))
        y = max(1, int(math.sqrt(max(1, nodes // max(1, z)))))
        x = math.ceil(nodes / (y * z))
        while x * y * z < nodes:
            x += 1
        return (x, y, z)

    def instructions_to_ns(self, instructions: float) -> float:
        """Convert an instruction count to nanoseconds at ~1 IPC."""
        return instructions / CPU_GHZ


@dataclass(frozen=True)
class SimConfig:
    """Simulation determinism (the safety limits are constants of
    :mod:`repro.runtime.world`).

    Attributes
    ----------
    seed:
        Master seed; all stochastic choices (symmetric-heap addresses,
        random keys in applications, backoff jitter, fault injection)
        derive from it.
    """

    seed: int = 0xF0_3131  # "fo" MPI-3.1 :-)


@dataclass(frozen=True)
class ObsConfig:
    """Observability (spans + per-rank metrics) switches.

    When ``enabled`` is False -- the default -- no instrumentation object
    is constructed and every protocol-layer hook reduces to one ``is
    None`` test: schedules are bit-identical to pre-observability code.
    Recording itself is pure observation (list appends and dict updates
    on the simulated clock; nothing is ever scheduled), so enabling it
    does not perturb schedules either -- it only costs host time.

    Attributes
    ----------
    enabled:
        Attach an :class:`~repro.obs.core.Instrumentation` to the run
        (exposed as ``RunResult.obs``).
    """

    enabled: bool = False


@dataclass(frozen=True)
class CheckConfig:
    """Memory-model checker (vector-clock race detection) switches.

    When ``enabled`` is False -- the default -- no checker is constructed
    and every protocol-layer hook reduces to one ``is None`` test:
    schedules are bit-identical to pre-checker code.  Recording itself is
    pure observation (list appends, dict updates and vector-clock
    arithmetic on the simulated clock; nothing is ever scheduled), so
    enabling it does not perturb schedules either.

    Attributes
    ----------
    enabled:
        Attach a :class:`~repro.check.core.RaceChecker` to the run
        (exposed as ``RunResult.check``).  It keeps one shadow record per
        origin, access kind and op on each window byte.
    """

    enabled: bool = False


@dataclass(frozen=True)
class NicStall:
    """The NIC of ``node`` freezes for ``[start_ns, start_ns+duration_ns)``:
    nothing injects from or is serviced at that node during the window."""

    node: int
    start_ns: int
    duration_ns: int

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"NicStall.node={self.node} is negative")
        if self.start_ns < 0:
            raise ValueError(
                f"NicStall.start_ns={self.start_ns} before t=0")
        if self.duration_ns < 0:
            raise ValueError(
                f"NicStall.duration_ns={self.duration_ns} is negative")

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


@dataclass(frozen=True)
class NodeCrash:
    """``node`` dies at ``time_ns``: its rank processes are killed, and any
    packet to or from it at/after that instant is lost forever."""

    node: int
    time_ns: int

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValueError(f"NodeCrash.node={self.node} is negative")
        if self.time_ns < 0:
            raise ValueError(
                f"NodeCrash.time_ns={self.time_ns} before t=0")


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject into one run.

    All randomness (which packet drops, corruption, latency spikes, backoff
    jitter) derives from the master seed, so a faulty run is exactly as
    bit-reproducible as a clean one: same seed + same plan => same drops,
    same retransmit counts, same simulated times.

    Attributes
    ----------
    drop_prob:
        Per-packet probability that the fabric silently loses the packet.
    corrupt_prob:
        Per-packet probability of payload corruption.  Corrupted packets
        arrive, fail the checksum at the receiving NIC and are discarded
        (they never mutate target memory) -- indistinguishable from a drop
        to the sender, but counted separately.
    delay_prob / delay_ns:
        Per-packet probability of a latency spike of ``delay_ns``.
    stalls:
        NIC stall windows (e.g. a PCIe hiccup or throttled NIC).
    crashes:
        Fail-stop node crashes at fixed simulated times.  Killing a node
        that holds a lock is how lock-holder death is injected.
    """

    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    delay_prob: float = 0.0
    delay_ns: int = 5_000
    stalls: tuple = ()
    crashes: tuple = ()

    def __post_init__(self) -> None:
        for name in ("drop_prob", "corrupt_prob", "delay_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        if self.delay_ns < 0:
            raise ValueError(f"delay_ns={self.delay_ns} is negative")
        # Accept lists for convenience; store tuples (hashable, frozen).
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        for st in self.stalls:
            if not isinstance(st, NicStall):
                raise ValueError(f"stalls entry {st!r} is not a NicStall")
        for cr in self.crashes:
            if not isinstance(cr, NodeCrash):
                raise ValueError(f"crashes entry {cr!r} is not a NodeCrash")


@dataclass(frozen=True)
class FTConfig:
    """Rollback-recovery (checkpoint + put-log + restart) policy.

    A run gets the FT runtime exactly when it is passed one (``ft=`` on
    :func:`~repro.runtime.job.run_spmd`); without it none of the FT
    machinery is constructed and crashes are survived only in the
    survivor-side sense (structured errors, revoked locks).

    Attributes
    ----------
    interval:
        Application steps between coordinated checkpoints (the knob the
        FT paper's headline overhead figure sweeps).
    mode:
        ``"spare"`` holds one spare *node* out of the initial placement
        and restarts the first crashed node's ranks there; ``"shrink"``
        (and a second crash under ``"spare"``) re-homes them onto their
        checkpoint buddy's node, oversubscribing it.
    """

    interval: int = 8
    mode: str = "spare"

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"FTConfig.interval={self.interval} must be >= 1")
        if self.mode not in ("spare", "shrink"):
            raise ValueError(
                f"FTConfig.mode={self.mode!r} not in ('spare', 'shrink')")

    @property
    def spares(self) -> int:
        """Spare nodes held out of the initial placement."""
        return 1 if self.mode == "spare" else 0


@dataclass
class RunResult:
    """Result of one SPMD run: per-rank return values plus counters.

    ``obs`` is the run's :class:`~repro.obs.core.Instrumentation` when
    observability was enabled (span timeline + metrics registry), else
    None.  ``check`` is the run's :class:`~repro.check.core.RaceChecker`
    when memory-model checking was enabled (shadow accesses + violation
    list), else None.  Neither is folded into ``stats`` -- the stats dict
    stays plain JSON-ready data (checker counters appear there under the
    ``"check"`` key).
    """

    returns: list
    sim_time_ns: int
    events_processed: int
    stats: dict = field(default_factory=dict)
    obs: object | None = None
    check: object | None = None
