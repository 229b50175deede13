"""Deterministic, seed-driven fault injection.

The :class:`FaultInjector` is the single decision point for every injected
fault in a run.  It is wired through the machine model (the network asks it
about each packet) and the resilient transports (which ask it for fates,
backoff jitter and crash/stall state).  Three properties drive the design:

* **Determinism.**  Every stochastic choice comes from an xorshift64*
  stream seeded from ``(master_seed, purpose)`` via
  :func:`repro.sim.random.derive_seed`.  Draws are consumed in event order,
  which the DES kernel already makes reproducible, so the same seed plus
  the same :class:`~repro.config.FaultPlan` yields bit-identical runs --
  the same packets drop, the same retransmits happen, the same simulated
  times result.

* **Zero cost when off.**  No injector is constructed for fault-free runs;
  every hook in the hot paths is guarded by a single ``is None`` test and
  no events, draws or allocations happen.

* **Observability.**  Every injected fault and every recovery action is
  counted in :class:`FaultStats`, surfaced through ``RunResult.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import FaultPlan
from repro.sim.random import derive_seed

__all__ = ["PacketFate", "FaultStats", "FaultInjector"]

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

# The modelled NIC's retransmit policy (DESIGN.md section 7): resend after
# an OP_DEADLINE_NS ack timeout plus a capped exponential backoff and a
# seeded jitter below JITTER_NS; DeadlineError after MAX_RETRIES resends.
MAX_RETRIES = 64
OP_DEADLINE_NS = 30_000
BACKOFF_BASE_NS = 500
BACKOFF_MAX_NS = 16_000
JITTER_NS = 200


@dataclass
class PacketFate:
    """What the fabric does to one transmission attempt."""

    drop: bool = False
    corrupt: bool = False
    extra_delay_ns: int = 0

    @property
    def lost(self) -> bool:
        """True when the payload never takes effect at the target (a
        corrupted packet fails the checksum and is discarded there)."""
        return self.drop or self.corrupt


@dataclass
class FaultStats:
    """Counters for injected faults and the recovery work they caused."""

    drops: int = 0
    corruptions: int = 0
    delays: int = 0
    stall_waits: int = 0
    retransmits: int = 0
    amo_replays_suppressed: int = 0
    deadline_failures: int = 0
    crashed_nodes: list = field(default_factory=list)
    # Survivor-side recovery work (repro.runtime.notify / repro.rma.recovery):
    failures_detected: int = 0
    notifications_delivered: int = 0
    locks_revoked: int = 0
    queue_splices: int = 0
    epochs_failed: int = 0
    acquisitions_failed: int = 0
    regions_reclaimed: int = 0
    degraded_frees: int = 0
    # Rollback recovery (repro.ft): ranks brought back by restart.
    ranks_restored: int = 0

    def snapshot(self) -> dict:
        snap = {
            "retransmits": self.retransmits,
            "faults": {
                "drops": self.drops,
                "corruptions": self.corruptions,
                "delays": self.delays,
                "stall_waits": self.stall_waits,
                "amo_replays_suppressed": self.amo_replays_suppressed,
                "deadline_failures": self.deadline_failures,
                "crashed_nodes": list(self.crashed_nodes),
            },
            "recovery": {
                "failures_detected": self.failures_detected,
                "notifications_delivered": self.notifications_delivered,
                "locks_revoked": self.locks_revoked,
                "queue_splices": self.queue_splices,
                "epochs_failed": self.epochs_failed,
                "acquisitions_failed": self.acquisitions_failed,
                "regions_reclaimed": self.regions_reclaimed,
                "degraded_frees": self.degraded_frees,
            },
        }
        # Keyed only when restarts happened, so FT-free golden stats
        # shapes are untouched.
        if self.ranks_restored:
            snap["recovery"]["ranks_restored"] = self.ranks_restored
        return snap


class _XorShift:
    """xorshift64* stream; cheap, deterministic, allocation-free."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = (seed | 1) & _MASK64

    def u64(self) -> int:
        x = self.state
        x ^= (x >> 12) & _MASK64
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27) & _MASK64
        self.state = x & _MASK64
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return self.u64() / 2.0**64


class FaultInjector:
    """Runtime fault oracle for one simulated job: draws the fates of
    ``plan`` from streams derived from ``seed``."""

    def __init__(self, plan: FaultPlan, seed: int) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._packet_rng = _XorShift(derive_seed(seed, "fault.packet"))
        self._jitter_rng = _XorShift(derive_seed(seed, "fault.jitter"))
        self._stalls_by_node: dict[int, list] = {}
        for st in plan.stalls:
            self._stalls_by_node.setdefault(st.node, []).append(st)
        for lst in self._stalls_by_node.values():
            lst.sort(key=lambda s: s.start_ns)
        self._crash_time: dict[int, int] = {}
        for cr in plan.crashes:
            t = self._crash_time.get(cr.node)
            self._crash_time[cr.node] = cr.time_ns if t is None else min(t, cr.time_ns)
        # Executed-op cache for AMO replay dedup: a retransmitted atomic
        # whose first transmission took effect (only the ack was lost) must
        # return the cached old value, never re-apply.
        self._amo_results: dict[tuple[int, int], object] = {}
        self._amo_done: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # packet fates
    # ------------------------------------------------------------------
    def packet_fate(self, src_node: int, dst_node: int) -> PacketFate:
        """Draw the fate of one transmission attempt (deterministic)."""
        plan = self.plan
        fate = PacketFate()
        if plan.drop_prob > 0.0 and self._packet_rng.uniform() < plan.drop_prob:
            fate.drop = True
            self.stats.drops += 1
            return fate
        if (plan.corrupt_prob > 0.0
                and self._packet_rng.uniform() < plan.corrupt_prob):
            fate.corrupt = True
            self.stats.corruptions += 1
            return fate
        if plan.delay_prob > 0.0 and self._packet_rng.uniform() < plan.delay_prob:
            fate.extra_delay_ns = plan.delay_ns
            self.stats.delays += 1
        return fate

    # ------------------------------------------------------------------
    # NIC stalls
    # ------------------------------------------------------------------
    def stall_release(self, node: int, t: int) -> int:
        """Earliest instant >= ``t`` at which ``node``'s NIC is not inside
        a stall window.  Returns ``t`` unchanged when unstalled."""
        stalls = self._stalls_by_node.get(node)
        if not stalls:
            return t
        release = int(t)
        for st in stalls:
            if st.start_ns <= release < st.end_ns:
                release = st.end_ns
                self.stats.stall_waits += 1
        return release

    # ------------------------------------------------------------------
    # crashes
    # ------------------------------------------------------------------
    @property
    def has_crashes(self) -> bool:
        return bool(self._crash_time)

    def crash_time(self, node: int) -> int | None:
        return self._crash_time.get(node)

    def node_crashed(self, node: int, t: int) -> bool:
        ct = self._crash_time.get(node)
        return ct is not None and t >= ct

    def mark_crashed(self, node: int) -> None:
        if node not in self.stats.crashed_nodes:
            self.stats.crashed_nodes.append(node)

    # ------------------------------------------------------------------
    # retry schedule
    # ------------------------------------------------------------------
    def backoff_ns(self, attempt: int) -> int:
        """Capped exponential backoff with seeded jitter for retransmission
        ``attempt`` (1-based)."""
        base = min(BACKOFF_BASE_NS * (1 << min(attempt - 1, 16)),
                   BACKOFF_MAX_NS)
        return base + int(self._jitter_rng.uniform() * JITTER_NS)

    # ------------------------------------------------------------------
    # AMO replay dedup
    # ------------------------------------------------------------------
    def amo_executed(self, origin_rank: int, seq: int) -> bool:
        return (origin_rank, seq) in self._amo_done

    def record_amo(self, origin_rank: int, seq: int, result) -> None:
        key = (origin_rank, seq)
        self._amo_done.add(key)
        self._amo_results[key] = result

    def replay_result(self, origin_rank: int, seq: int):
        """Cached result of an already-executed atomic (exactly-once)."""
        self.stats.amo_replays_suppressed += 1
        return self._amo_results[(origin_rank, seq)]
