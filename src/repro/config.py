"""Global configuration dataclasses.

`MachineConfig` describes the simulated machine (a Cray-XE6-like system by
default: 32 cores per node, 3-D torus).  `SimConfig` controls simulation
determinism and safety limits.  Timing constants for the network and the
individual transports live in :mod:`repro.machine.params` — this module only
holds the structural knobs shared by every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class MachineConfig:
    """Structural description of the simulated machine.

    Attributes
    ----------
    ranks_per_node:
        Number of MPI processes placed on each node (Blue Waters XE6 nodes
        have 4 x 8-core Interlagos sockets; the paper runs 32 ranks/node).
    torus_shape:
        Shape of the 3-D torus.  ``None`` derives a near-cubic torus large
        enough for the requested number of nodes.
    cpu_ghz:
        Core clock used to convert instruction counts to nanoseconds.
    """

    ranks_per_node: int = 32
    torus_shape: tuple[int, int, int] | None = None
    cpu_ghz: float = 2.3

    def nodes_for(self, nranks: int) -> int:
        """Number of nodes needed to host ``nranks`` processes."""
        return max(1, math.ceil(nranks / self.ranks_per_node))

    def derive_torus(self, nranks: int) -> tuple[int, int, int]:
        """Torus shape hosting ``nranks`` ranks (near-cubic, min volume)."""
        if self.torus_shape is not None:
            return self.torus_shape
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
        return instructions / self.cpu_ghz


@dataclass(frozen=True)
class SimConfig:
    """Simulation determinism and safety limits.

    Attributes
    ----------
    seed:
        Master seed; all stochastic choices (symmetric-heap addresses,
        random keys in applications, backoff jitter, fault injection)
        derive from it.
    max_events:
        Hard cap on processed events -- a runaway-protocol backstop.
    trace:
        Record an event trace (slower; used by tests and debugging).
    watchdog_interval:
        Events between progress-watchdog checks (0 disables the watchdog).
        The watchdog is a pure observer: it never schedules events or
        perturbs timing, so enabling it cannot change simulation results.
    watchdog_stalls:
        Consecutive stale checks (no protocol progress anywhere) before
        the watchdog raises :class:`~repro.errors.LivelockError` -- far
        earlier than the ``max_events`` backstop, and with diagnostics
        naming the stuck ranks.
    """

    seed: int = 0xF0_3131  # "fo" MPI-3.1 :-)
    max_events: int = 200_000_000
    trace: bool = False
    watchdog_interval: int = 800
    watchdog_stalls: int = 3


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
    max_spans:
        Span-log truncation limit; appends past it are counted in
        ``spans.dropped`` instead of stored.
    """

    enabled: bool = False
    max_spans: int = 500_000

    def __post_init__(self) -> None:
        if self.max_spans < 0:
            raise ValueError(f"max_spans={self.max_spans} is negative")


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
        (exposed as ``RunResult.check``).
    max_records:
        Cap on live shadow access records.  Past it, recording stops and
        the run is flagged ``truncated`` instead of growing without
        bound; full barriers prune records that can no longer race.
    """

    enabled: bool = False
    max_records: int = 200_000

    def __post_init__(self) -> None:
        if self.max_records < 0:
            raise ValueError(f"max_records={self.max_records} is negative")


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
class RecoveryConfig:
    """Survivor-side recovery policy for planned node crashes.

    Only consulted when the active :class:`FaultPlan` contains crashes;
    without crashes none of the recovery machinery is constructed and the
    fault-free (and crash-free) schedules are untouched.

    Attributes
    ----------
    detect_ns:
        Time from the crash instant until the runtime's failure detector
        confirms the death and seeds the notification broadcast.
    notify_round_ns:
        Per-round cost of the binomial notification broadcast; survivor
        ``i`` learns of the failure after O(log p) such rounds.
    revoke_ns:
        Cost of one revocation step (rolling back one lock-word
        contribution, splicing one queue node, reclaiming one region).
    revoke_locks:
        When True, lock words and MCS queues owned by dead ranks are
        revoked so surviving waiters can proceed; when False, survivors
        only receive notifications (pending acquisitions still fail with
        a structured error instead of livelocking).
    """

    detect_ns: int = 3_000
    notify_round_ns: int = 700
    revoke_ns: int = 900
    revoke_locks: bool = True

    def __post_init__(self) -> None:
        for name in ("detect_ns", "notify_round_ns", "revoke_ns"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"RecoveryConfig.{name}={v} is negative")


@dataclass(frozen=True)
class FTConfig:
    """Rollback-recovery (checkpoint + put-log + restart) policy.

    Only consulted when ``enabled``; otherwise none of the FT machinery is
    constructed and schedules are bit-identical to FT-free runs.

    Attributes
    ----------
    enabled:
        Master switch for rollback recovery.  Off, crashes are survived
        only in the PR-4 sense (structured errors, revoked locks).
    interval:
        Application steps between coordinated checkpoints (the knob the
        FT paper's headline overhead figure sweeps).
    replicas:
        Buddy copies kept per checkpoint (each on the next ring node).
    spares:
        Spare *nodes* held out of the initial placement.  A crashed
        node's ranks restart on the next unused spare; with no spare
        left (or ``mode="shrink"``) they shrink onto their buddy node.
    mode:
        ``"spare"`` prefers spare nodes, ``"shrink"`` always re-homes
        onto the checkpoint buddy's node (oversubscribing it).
    ckpt_copy_ns_per_byte / restore_ns_per_byte / replay_ns_per_entry /
    rereg_ns_per_segment:
        Cost model for snapshotting into the buddy message, restoring
        bytes on the adopting node, replaying one log entry, and
        re-registering one adopted segment (memory registration +
        XPMEM re-expose).
    """

    enabled: bool = False
    interval: int = 8
    replicas: int = 1
    spares: int = 0
    mode: str = "spare"
    ckpt_copy_ns_per_byte: float = 0.05
    restore_ns_per_byte: float = 0.1
    replay_ns_per_entry: int = 120
    rereg_ns_per_segment: int = 2_500

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"FTConfig.interval={self.interval} must be >= 1")
        if self.replicas < 1:
            raise ValueError(
                f"FTConfig.replicas={self.replicas} must be >= 1")
        if self.spares < 0:
            raise ValueError(f"FTConfig.spares={self.spares} is negative")
        if self.mode not in ("spare", "shrink"):
            raise ValueError(
                f"FTConfig.mode={self.mode!r} not in ('spare', 'shrink')")
        for name in ("ckpt_copy_ns_per_byte", "restore_ns_per_byte"):
            if getattr(self, name) < 0:
                raise ValueError(f"FTConfig.{name} is negative")
        for name in ("replay_ns_per_entry", "rereg_ns_per_segment"):
            if getattr(self, name) < 0:
                raise ValueError(f"FTConfig.{name} is negative")


@dataclass(frozen=True)
class FaultConfig:
    """A :class:`FaultPlan` plus the resilience-machinery tuning knobs.

    When no ``FaultConfig`` is supplied to a run, none of the fault or
    retry machinery is constructed at all -- fault-free runs are
    bit-identical to runs of the unhardened code.

    Attributes
    ----------
    plan:
        The faults to inject (``None`` = no injection, machinery off).
    max_retries:
        Retransmissions per operation before the transport gives up and
        raises :class:`~repro.errors.DeadlineError`.
    op_deadline_ns:
        Time the origin NIC waits for the remote-completion ack of one
        transmission attempt before declaring it lost.
    retry_backoff_base_ns / retry_backoff_max_ns:
        Capped exponential backoff between retransmissions.
    retry_jitter_ns:
        Amplitude of the seeded (deterministic) jitter added to each
        backoff step to de-synchronize contending retriers.
    recovery:
        Survivor-side recovery policy applied when the plan crashes nodes
        (:class:`RecoveryConfig`).
    ft:
        Rollback-recovery policy (:class:`FTConfig`); restarts crashed
        ranks on top of ``recovery``.
    """

    plan: FaultPlan | None = None
    max_retries: int = 64
    op_deadline_ns: int = 30_000
    retry_backoff_base_ns: int = 500
    retry_backoff_max_ns: int = 16_000
    retry_jitter_ns: int = 200
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    ft: FTConfig = field(default_factory=FTConfig)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries={self.max_retries} is negative")
        if self.op_deadline_ns <= 0:
            raise ValueError(
                f"op_deadline_ns={self.op_deadline_ns} must be positive")
        for name in ("retry_backoff_base_ns", "retry_backoff_max_ns",
                     "retry_jitter_ns"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name}={v} is negative")
        if self.retry_backoff_max_ns < self.retry_backoff_base_ns:
            raise ValueError(
                f"retry_backoff_max_ns={self.retry_backoff_max_ns} below "
                f"retry_backoff_base_ns={self.retry_backoff_base_ns}")

    @property
    def active(self) -> bool:
        return self.plan is not None


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
