"""The Gemini-like network engine.

The network delivers *packets* between node NICs.  Three serialization
points are modeled with busy-until channels (no per-hop events, so even
multi-thousand-rank runs stay fast):

* **injection** at the source NIC (``o_inject`` + bytes * gap),
* **ejection** at the destination NIC (``o_eject`` + bytes * gap),
* the **AMO engine** at the destination NIC (``amo_gap`` occupancy per
  atomic, plus ``amo_service`` pipeline latency) -- this reproduces the
  atomics hot-spot contention that shapes the hashtable study.

`Network.packet` returns the *delivery completion time* at the destination
and runs the caller's delivery callback then; higher layers (DMAPP) build
put/get/AMO round trips out of it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import DeadlineError
from repro.faults import MAX_RETRIES, OP_DEADLINE_NS
from repro.machine.params import GeminiParams
from repro.machine.topology import RankMap, Torus3D
from repro.sim.kernel import Environment
from repro.sim.resources import BusyChannel

__all__ = ["Nic", "Network", "OpCounters"]


@dataclass
class OpCounters:
    """Per-run operation counters, aggregated across all ranks: the tests
    check the paper's O(log p) / O(k) claims by counting these.

    ``remote_ops[rank]`` counts RDMA operations *issued by* each rank;
    ``bytes_moved`` counts payload bytes on the network;
    ``control_memory[rank]`` tracks the peak number of control words (lock
    variables, matching-list slots, descriptors) a protocol allocated at
    each rank -- the paper's "memory overhead".
    """

    remote_ops: Counter = field(default_factory=Counter)
    bytes_moved: int = 0
    messages: int = 0
    control_memory: Counter = field(default_factory=Counter)
    by_kind: Counter = field(default_factory=Counter)

    def count_issue(self, origin: int, kind: str, nbytes: int = 0) -> None:
        self.remote_ops[origin] += 1
        self.by_kind[kind] += 1
        self.bytes_moved += nbytes
        self.messages += 1

    def add_control_memory(self, rank: int, words: int) -> None:
        self.control_memory[rank] += words

    def max_remote_ops(self) -> int:
        return max(self.remote_ops.values(), default=0)

    def max_control_memory(self) -> int:
        return max(self.control_memory.values(), default=0)

    def snapshot(self) -> dict:
        return {
            "messages": self.messages,
            "bytes_moved": self.bytes_moved,
            "max_remote_ops": self.max_remote_ops(),
            "max_control_memory": self.max_control_memory(),
            "by_kind": dict(self.by_kind),
        }


class Nic:
    """Per-node network interface.

    Serialization points: the FMA injection path (small/control ops), the
    BTE injection path (bulk transfers, with a bounded descriptor FIFO),
    the ejection engine, and the AMO engine.
    """

    __slots__ = ("node", "fma", "bte", "eject_fma", "eject_bte",
                 "amo_engine", "fifo_ends")

    def __init__(self, env: Environment, node: int) -> None:
        self.node = node
        self.fma = BusyChannel(env)
        self.bte = BusyChannel(env)
        self.eject_fma = BusyChannel(env)
        self.eject_bte = BusyChannel(env)
        self.amo_engine = BusyChannel(env)
        self.fifo_ends: deque[int] = deque()


class Network:
    """Packet transport between NICs on the torus."""

    def __init__(
        self,
        env: Environment,
        torus: Torus3D,
        rank_map: RankMap,
        params: GeminiParams | None = None,
        counters: OpCounters | None = None,
        injector=None,
    ) -> None:
        if torus.nnodes < rank_map.nnodes:
            raise ValueError(
                f"torus has {torus.nnodes} nodes but placement needs "
                f"{rank_map.nnodes}")
        self.env = env
        self.torus = torus
        self.rank_map = rank_map
        self.params = params or GeminiParams()
        self.counters = counters or OpCounters()
        # Optional repro.faults.FaultInjector; with None no fate is drawn
        # and `packet` leaves its loop on the first pass.
        self.injector = injector
        # Optional repro.obs.core.Instrumentation (assigned by World);
        # same contract: None keeps the hot path untouched, and recording
        # never schedules -- delivery times are computed before the hook.
        self.obs = None
        self._nics: dict[int, Nic] = {}
        self._noise_state = 0x243F6A8885A308D3  # pi digits; deterministic
        # (src, dst) and (dst, src) -> wire_base + per_hop * hops: pure in
        # torus + params, cached off the per-packet path.
        self._wire: dict[tuple[int, int], float] = {}
        # Constant parameters in whole ns, rounded once, not per packet.
        self._o_eject_int = int(round(self.params.o_eject))
        self._amo_gap_int = int(round(self.params.amo_gap))
        self.amo_service_int = int(round(self.params.amo_service))
        self.o_inject_int = int(round(self.params.o_inject))
        self._packet_gap_int = int(round(self.params.nic_packet_gap))
        self._has_noise = self.params.noise_ns > 0

    def nic(self, node: int) -> Nic:
        nic = self._nics.get(node)
        if nic is None:
            nic = self._nics[node] = Nic(self.env, node)
        return nic

    # -- latency helpers -------------------------------------------------
    def wire(self, src_node: int, dst_node: int) -> float:
        """Distance-dependent one-way wire latency (memoized)."""
        w = self._wire.get((src_node, dst_node))
        if w is None:
            w = self.params.wire_latency(self.torus.hops(src_node, dst_node))
            self._wire[src_node, dst_node] = self._wire[dst_node, src_node] = w
        return w

    def _noise(self) -> float:
        """Deterministic pseudo-noise in [0, noise_ns)."""
        if self.params.noise_ns <= 0:
            return 0.0
        # xorshift64* -- cheap, deterministic, uncorrelated enough.
        x = self._noise_state
        x ^= (x >> 12) & 0xFFFFFFFFFFFFFFFF
        x ^= (x << 25) & 0xFFFFFFFFFFFFFFFF
        x ^= (x >> 27) & 0xFFFFFFFFFFFFFFFF
        self._noise_state = x & 0xFFFFFFFFFFFFFFFF
        frac = ((x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF) / 2.0**64
        return frac * self.params.noise_ns

    # -- packet transport --------------------------------------------------
    def packet(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        *,
        inject_window: tuple[int, int] | None = None,
        is_amo: bool = False,
        on_deliver: Callable[[], None] | None = None,
        fate=None,
        reliable: bool = False,
    ) -> int | None:
        """Send one packet; returns its delivery time in ns, or ``None``
        when it is lost.

        The pipeline is cut-through: the head of the packet leaves as soon
        as injection starts, so the uncontended delivery time is
        ``inject_start + wire + nbytes*gap`` -- the bandwidth term is paid
        exactly once end to end.  Destination-side contention serializes on
        the ejection (or AMO-engine) channel.

        ``inject_window=(start, end)`` lets a caller that already reserved
        the injection channel thread its occupancy through.

        ``on_deliver()`` runs at the delivery time, as one ``env.call_at``
        entry -- remote memory writes, AMO side effects and message
        arrivals use it so the target changes atomically at the delivery
        instant, and wake whatever waits on that change themselves.  A
        packet without one (a get's request leg) schedules nothing: its
        delivery time is all its caller needs.

        With a fault injector installed, each transmission can be dropped,
        corrupted (checksum fails at the target NIC, packet discarded),
        delayed, or stalled -- a lost packet never runs ``on_deliver``.
        ``fate`` lets a transport that drew the fate itself (the DMAPP
        retransmit loop) thread it through; ``reliable=True`` instead
        enables link-level recovery *inside* this call: the source NIC, not
        the issuing CPU, retransmits after a timeout, with capped seeded
        backoff, until delivery succeeds or the retry budget is exhausted
        (the MPI-1 transport uses this), which raises
        :class:`~repro.errors.DeadlineError` out of the run at the last
        attempt's would-be delivery time.  Without an injector both are
        no-ops and the loop ends on its first pass.
        """
        p = self.params
        env = self.env
        inj = self.injector
        attempt = 1
        resend_floor: int | None = None
        while True:
            if inj is not None and fate is None:
                fate = inj.packet_fate(src_node, dst_node)
            if inject_window is not None:
                inject_start, inject_end = inject_window
            else:
                inject_start, inject_end = self.occupy_injection(
                    src_node, nbytes, earliest=resend_floor)
            wire = (self._wire.get((src_node, dst_node))    # memo hit
                    or self.wire(src_node, dst_node)) + p.nic_latency
            if self._has_noise:
                wire += self._noise()
            src_dead = False
            if inj is not None:
                wire += fate.extra_delay_ns
                src_dead = inj.node_crashed(src_node, int(inject_start))
            head_arrival = inject_start + wire
            deliver_time = round(inject_end + wire)  # last byte lands

            if inj is None or not (fate.drop or src_dead):
                # The packet reaches the destination NIC.
                if inj is not None:
                    # Mid-stall, service waits for the stall window to end.
                    release = inj.stall_release(dst_node, int(head_arrival))
                    if release > head_arrival:
                        head_arrival = release
                nic = self._nics.get(dst_node) or self.nic(dst_node)
                if is_amo:
                    chan = nic.amo_engine
                    svc_int = self._amo_gap_int
                elif nbytes <= p.fma_threshold:
                    # Small packets interleave at flit granularity; they
                    # serialize only on per-packet processing, never
                    # behind bulk transfers.
                    chan = nic.eject_fma
                    svc_int = self._o_eject_int
                else:
                    chan = nic.eject_bte
                    svc_int = int(round(max(p.o_eject,
                                            nbytes * p.gap_per_byte)))
                # Service cannot begin before the head arrives nor finish
                # before the tail does; it queues behind earlier packets.
                start = round(head_arrival)
                if chan.busy_until > start:
                    start = chan.busy_until
                if start + svc_int > deliver_time:
                    deliver_time = start + svc_int
                chan.busy_until = deliver_time
                if is_amo:
                    deliver_time += self.amo_service_int
                # Corrupted payloads fail the checksum and are discarded
                # here; packets to a node dead by arrival are lost too.
                if inj is None or not (fate.corrupt or inj.node_crashed(
                        dst_node, deliver_time)):
                    if on_deliver is not None:
                        delay = deliver_time - env.now
                        env.call_at(delay if delay > 0 else 0, on_deliver)
                    if self.obs is not None:
                        self.obs.on_packet(src_node, dst_node, nbytes,
                                           deliver_time, is_amo)
                    return deliver_time

            dst_dead = inj.node_crashed(dst_node, deliver_time)
            if (not reliable or attempt > MAX_RETRIES
                    or src_dead or dst_dead):
                if reliable and not src_dead and not dst_dead:
                    # A reliable link exhausted its retry budget with both
                    # endpoints alive: fail loudly at the instant the last
                    # ack window expires, instead of leaving the waiter to
                    # decay into a deadlock report.
                    inj.stats.deadline_failures += 1

                    def _budget_exhausted() -> None:
                        raise DeadlineError("packet", dst_node, attempt,
                                            OP_DEADLINE_NS)
                    env.call_at(max(0, deliver_time - env.now),
                                _budget_exhausted)
                return None
            # Link-level recovery: the source NIC detects the missing ack
            # after the op deadline and retransmits with seeded backoff.
            inj.stats.retransmits += 1
            # Draw the backoff once and share it with the obs hook: a
            # second draw would shift the jitter stream and make
            # instrumented schedules diverge from uninstrumented ones.
            backoff = inj.backoff_ns(attempt)
            if self.obs is not None:
                self.obs.on_link_retransmit(src_node, dst_node, env.now,
                                            attempt, int(round(backoff)))
            resend_floor = int(round(
                inject_end + OP_DEADLINE_NS + backoff))
            attempt += 1
            fate = inject_window = None

    def occupy_injection(self, src_node: int, nbytes: int,
                         earliest: int | None = None) -> tuple[int, int]:
        """Reserve the injection channel; returns (start, end) times.

        The *end* is when the NIC has drained the payload (origin buffer
        reusable, wire transfer begins); the issuing CPU is only blocked
        until ``start + o_inject`` -- handing the descriptor to the NIC --
        which is what lets large transfers overlap with computation
        (Figure 5a) while small-message rate stays bounded by o_inject
        (Figure 5b).

        ``earliest`` floors the start time (NIC-scheduled retransmissions);
        injected NIC stall windows also push the start past their end.
        """
        p = self.params
        nic = self._nics.get(src_node) or self.nic(src_node)
        chan = nic.fma if nbytes <= p.fma_threshold else nic.bte
        if self.injector is not None:
            earliest = self.injector.stall_release(
                src_node, self.env.now if earliest is None else int(earliest))
        start = self.env.now if earliest is None else int(earliest)
        if chan.busy_until > start:
            start = chan.busy_until
        gap = nbytes * p.gap_per_byte     # the packet gap bounds it below
        chan.busy_until = end = start + (
            self._packet_gap_int if gap <= p.nic_packet_gap
            else int(round(gap)))
        return start, end

    def injection_admit(self, src_node: int, inj_end: int,
                        nbytes: int = 1 << 30) -> int:
        """When the descriptor FIFO can accept this op: once the op
        ``fifo_depth`` places earlier has drained.  Returns the admit time
        (0 when the FIFO has room).  FMA-path (small) ops never queue --
        their rate is bounded by the per-message CPU cost."""
        if nbytes <= self.params.fma_threshold:
            return 0
        fifo = self.nic(src_node).fifo_ends
        admit = fifo[0] if len(fifo) >= self.params.fifo_depth else 0
        fifo.append(inj_end)
        while len(fifo) > self.params.fifo_depth:
            fifo.popleft()
        return admit
