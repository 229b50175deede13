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
and an `Event` that fires then; higher layers (DMAPP) build put/get/AMO
round trips out of it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import DeadlineError
from repro.machine.params import GeminiParams
from repro.machine.topology import RankMap, Torus3D
from repro.sim.kernel import Environment, Event
from repro.sim.resources import BusyChannel
from repro.sim.trace import OpCounters

__all__ = ["Nic", "Network"]


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
        # Optional repro.faults.FaultInjector; None keeps every hot path on
        # the exact pre-fault code (zero cost, bit-identical runs).
        self.injector = injector
        # Optional repro.obs.core.Instrumentation (assigned by World);
        # same contract: None keeps the hot path untouched, and recording
        # never schedules -- delivery times are computed before the hook.
        self.obs = None
        self._nics: dict[int, Nic] = {}
        self._noise_state = 0x243F6A8885A308D3  # pi digits; deterministic
        # (src, dst) -> wire_base + per_hop * hops: pure in torus + params,
        # cached off the per-packet path.
        self._wire: dict[tuple[int, int], float] = {}
        # Constant parameters in whole ns, rounded once, not per packet.
        self._o_eject_int = int(round(self.params.o_eject))
        self._amo_gap_int = int(round(self.params.amo_gap))
        self.amo_service_int = int(round(self.params.amo_service))
        self.o_inject_int = int(round(self.params.o_inject))
        self._has_noise = self.params.noise_ns > 0

    def nic(self, node: int) -> Nic:
        nic = self._nics.get(node)
        if nic is None:
            nic = self._nics[node] = Nic(self.env, node)
        return nic

    # -- latency helpers -------------------------------------------------
    def hops(self, src_node: int, dst_node: int) -> int:
        return self.torus.hops(src_node, dst_node)

    def wire(self, src_node: int, dst_node: int) -> float:
        """Distance-dependent one-way wire latency (memoized)."""
        key = (src_node, dst_node) if src_node < dst_node \
            else (dst_node, src_node)
        w = self._wire.get(key)
        if w is None:
            w = self._wire[key] = self.params.wire_latency(
                self.torus.hops(src_node, dst_node))
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
        charge_injection: bool = True,
        is_amo: bool = False,
        gap_per_byte: float | None = None,
        on_deliver: Callable[[Event], None] | None = None,
        fate=None,
        reliable: bool = False,
    ) -> tuple[int, Event]:
        """Send one packet; returns (delivery_time_ns, delivery_event).

        The pipeline is cut-through: the head of the packet leaves as soon
        as injection starts, so the uncontended delivery time is
        ``inject_start + wire + nbytes*gap`` -- the bandwidth term is paid
        exactly once end to end.  Destination-side contention serializes on
        the ejection (or AMO-engine) channel.

        ``inject_window=(start, end)`` lets a caller that already reserved
        the injection channel thread its occupancy through;
        ``charge_injection=False`` skips injection entirely (NIC-generated
        responses such as get replies and acks).

        ``on_deliver(event)`` is the delivery event's first callback: it
        runs at delivery time (``event.value``) *before* any process
        waiting on the returned event resumes -- remote memory writes and
        AMO side effects use it so memory is updated atomically at the
        delivery instant.  Every producer ignores the argument (``_t``,
        ``_event``), so it is the event itself, not a wrapper's time.

        With a fault injector installed, each transmission can be dropped,
        corrupted (checksum fails at the target NIC, packet discarded),
        delayed, or stalled -- a lost packet never runs ``on_deliver``.
        ``fate`` lets a resilient transport that drew the fate itself (the
        hardened DMAPP endpoint) thread it through; ``reliable=True``
        instead enables link-level recovery *inside* this call: the source
        NIC retransmits after a timeout, with capped seeded backoff, until
        delivery succeeds or the retry budget is exhausted (the MPI-1
        transport uses this).  Both are no-ops without an injector.
        """
        if self.injector is not None:
            return self._packet_faulty(
                src_node, dst_node, nbytes, inject_window, charge_injection,
                is_amo, gap_per_byte, on_deliver, fate, reliable)
        p = self.params
        gap = p.gap_per_byte if gap_per_byte is None else gap_per_byte
        env = self.env

        if charge_injection:
            if inject_window is not None:
                inject_start, inject_end = inject_window
            else:
                inject_start, inject_end = self.occupy_injection(
                    src_node, nbytes, gap)
            wire = self.wire(src_node, dst_node) + p.nic_latency
        else:
            inject_start = inject_end = env.now
            wire = self.wire(src_node, dst_node)
        if self._has_noise:
            wire += self._noise()
        head_arrival = inject_start + wire
        tail_arrival = inject_end + wire  # last byte on the floor

        nic = self._nics.get(dst_node)
        if nic is None:
            nic = self._nics[dst_node] = Nic(env, dst_node)
        if is_amo:
            chan = nic.amo_engine
            svc_int = self._amo_gap_int
        elif nbytes <= p.fma_threshold:
            # Small packets interleave at flit granularity; they serialize
            # only on per-packet processing, never behind bulk transfers.
            chan = nic.eject_fma
            svc_int = self._o_eject_int
        else:
            chan = nic.eject_bte
            svc_int = int(round(max(p.o_eject, nbytes * gap)))
        # Service cannot begin before the head arrives nor finish before
        # the tail does; contention queues behind earlier packets.
        start = int(round(head_arrival))
        if chan.busy_until > start:
            start = chan.busy_until
        deliver_time = int(round(tail_arrival))
        if start + svc_int > deliver_time:
            deliver_time = start + svc_int
        chan.busy_until = deliver_time
        chan.total_busy += svc_int
        if is_amo:
            deliver_time += self.amo_service_int

        ev = env.event(name="packet-deliver")
        if on_deliver is not None:
            ev.callbacks.append(on_deliver)
        ev.succeed(deliver_time, delay=max(0, deliver_time - env.now))
        self.counters.count_service(dst_node)
        if self.obs is not None:
            self.obs.on_packet(src_node, dst_node, nbytes, deliver_time,
                               is_amo)
        return deliver_time, ev

    def _packet_faulty(self, src_node, dst_node, nbytes, inject_window,
                       charge_injection, is_amo, gap_per_byte, on_deliver,
                       fate, reliable) -> tuple[int, Event]:
        """Fault-aware twin of :meth:`packet` (see its docstring).

        Kept separate so the fault-free hot path stays byte-for-byte the
        pre-fault code.  Timing is computed per transmission attempt; all
        retransmission work (timeout detection, backoff, re-injection) is
        NIC-driven and never blocks the issuing CPU.
        """
        inj = self.injector
        p = self.params
        gap = p.gap_per_byte if gap_per_byte is None else gap_per_byte
        env = self.env
        attempt = 0
        resend_floor: int | None = None
        while True:
            attempt += 1
            this_fate = fate if (fate is not None and attempt == 1) \
                else inj.packet_fate(src_node, dst_node)

            if charge_injection:
                if attempt == 1 and inject_window is not None:
                    inject_start, inject_end = inject_window
                else:
                    inject_start, inject_end = self.occupy_injection(
                        src_node, nbytes, gap, earliest=resend_floor)
                pipeline = p.nic_latency
            else:
                floor = env.now if resend_floor is None else resend_floor
                inject_start = inject_end = inj.stall_release(src_node, floor)
                pipeline = 0.0

            src_dead = inj.node_crashed(src_node, int(inject_start))
            wire = (p.wire_latency(self.hops(src_node, dst_node)) + pipeline
                    + self._noise() + this_fate.extra_delay_ns)
            head_arrival = inject_start + wire
            tail_arrival = inject_end + wire

            delivered = False
            deliver_time = int(round(tail_arrival))
            if not this_fate.drop and not src_dead:
                # The packet reaches the destination NIC, which may be
                # mid-stall: service waits for the stall window to end.
                head_arrival = max(head_arrival,
                                   inj.stall_release(dst_node, int(head_arrival)))
                if is_amo:
                    chan = self.nic(dst_node).amo_engine
                    svc = self._amo_gap_int
                elif nbytes <= p.fma_threshold:
                    chan = self.nic(dst_node).eject_fma
                    svc = self._o_eject_int
                else:
                    chan = self.nic(dst_node).eject_bte
                    svc = int(round(max(p.o_eject, nbytes * gap)))
                start = max(int(round(head_arrival)), chan.busy_until)
                chan.busy_until = max(start + svc, int(round(tail_arrival)))
                chan.total_busy += svc
                deliver_time = chan.busy_until
                if is_amo:
                    deliver_time += self.amo_service_int
                self.counters.count_service(dst_node)
                # Corrupted payloads fail the checksum and are discarded
                # here; packets to a node dead by arrival are lost too.
                delivered = (not this_fate.corrupt
                             and not inj.node_crashed(dst_node, deliver_time))

            if delivered:
                ev = env.event(name="packet-deliver")
                if on_deliver is not None:
                    ev.callbacks.append(on_deliver)
                ev.succeed(deliver_time,
                           delay=max(0, deliver_time - env.now))
                if self.obs is not None:
                    self.obs.on_packet(src_node, dst_node, nbytes,
                                       deliver_time, is_amo)
                return deliver_time, ev

            give_up = (not reliable
                       or attempt > inj.config.max_retries
                       or src_dead
                       or inj.node_crashed(dst_node, deliver_time))
            if give_up:
                ev = env.event(name="packet-lost")
                if (reliable and not src_dead
                        and not inj.node_crashed(dst_node, deliver_time)):
                    # A reliable link exhausted its retry budget with both
                    # endpoints alive: fail loudly at the instant the last
                    # ack window expires, instead of leaving the waiter to
                    # decay into a deadlock report.
                    inj.stats.deadline_failures += 1
                    inj._trace("deadline",
                               f"{src_node}->{dst_node} after {attempt} tries")

                    def _budget_exhausted(event: Event, _n=attempt) -> None:
                        raise DeadlineError(
                            "packet", dst_node, _n,
                            inj.config.op_deadline_ns)
                    ev.callbacks.append(_budget_exhausted)
                ev.succeed(deliver_time,
                           delay=max(0, deliver_time - env.now))
                return deliver_time, ev
            # Link-level recovery: the source NIC detects the missing ack
            # after the op deadline and retransmits with seeded backoff.
            inj.stats.retransmits += 1
            inj._trace("retransmit", f"{src_node}->{dst_node} #{attempt}")
            # Draw the backoff once and share it with the obs hook: a
            # second draw would shift the jitter stream and make
            # instrumented schedules diverge from uninstrumented ones.
            backoff = inj.backoff_ns(attempt)
            if self.obs is not None:
                self.obs.on_link_retransmit(src_node, dst_node, env.now,
                                            attempt, int(round(backoff)))
            resend_floor = int(round(
                inject_end + inj.config.op_deadline_ns + backoff))

    def occupy_injection(self, src_node: int, nbytes: int,
                         gap_per_byte: float | None = None,
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
        gap = p.gap_per_byte if gap_per_byte is None else gap_per_byte
        duration = max(p.nic_packet_gap, nbytes * gap)
        chan = (self.nic(src_node).fma if nbytes <= p.fma_threshold
                else self.nic(src_node).bte)
        if self.injector is not None or earliest is not None:
            floor = self.env.now if earliest is None else int(earliest)
            if self.injector is not None:
                floor = self.injector.stall_release(src_node, floor)
            return chan.occupy(int(round(duration)), earliest=floor)
        return chan.occupy(int(round(duration)))

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
