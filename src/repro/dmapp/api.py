"""DMAPP endpoint: per-rank RDMA operations over the network model.

Completion semantics (matching real DMAPP closely enough for the paper's
protocols):

* every operation has a *remote completion* time -- when its effect is
  globally visible and the origin could know (ack round trip);
* explicit-nonblocking ops return a :class:`DmappHandle` that can be
  waited on individually;
* implicit-nonblocking ops are only completed in bulk by :meth:`gsync`,
  exactly the primitive foMPI's flush/fence are built from.

Because the network layer computes delivery times eagerly (busy-until
channels), remote-completion *times* are known at issue; waiting is then a
single timeout rather than per-packet events.  Target-memory mutation still
happens via an event callback at the delivery instant, so reads at the
target observe writes in true simulated-time order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DeadlineError, NodeCrashedError, SimulationError
from repro.mem.atomic import AtomicArray, prepare_stream
from repro.mem.registration import MemDescriptor, RegistrationTable
from repro.machine.network import Network

__all__ = ["DmappEndpoint", "ResilientDmappEndpoint", "DmappHandle"]

_HEADER_BYTES = 24  # request header: opcode + rkey + vaddr (get/amo requests)
_AMO_BYTES = 16     # AMO request payload: operand + address


def _as_payload(data) -> memoryview:
    """Issue-time capture of a put payload as a flat byte view.

    ``bytes`` input is immutable, so the view aliases it with *no* copy;
    mutable buffers are snapshotted once (the DMA capture the docstrings
    promise); numpy arrays flatten through ``tobytes`` -- the same C-order
    byte reinterpretation the old ``ascontiguousarray(...).view(uint8)``
    produced, but as a single copy with no per-chunk numpy machinery.
    Chunk pieces are then zero-copy ``memoryview`` slices of this capture,
    and land at the target through :meth:`Segment.write`'s slice-copy fast
    path.
    """
    if type(data) is bytes:
        return memoryview(data)
    if isinstance(data, (bytearray, memoryview)):
        return memoryview(bytes(data))
    return memoryview(np.asarray(data).tobytes())


@dataclass
class DmappHandle:
    """Explicit-nonblocking operation handle."""

    kind: str
    local_complete: int   # ns: origin buffer reusable
    remote_complete: int  # ns: effect visible + ack at origin
    result: np.ndarray | int | None = None  # filled for fetch ops at delivery


class DmappEndpoint:
    """One rank's DMAPP context.

    Mutating operations accept an optional ``on_applied`` delivery
    callback, invoked inside the target-side effect closure right after
    the mutation lands (puts: per chunk with ``(offset, piece)``; AMOs:
    with the old value(s)).  The FT layer uses it for demand-driven
    put/atomic logging; it is never called for deduplicated AMO replays.
    """

    # Observability sink; assigned by RankContext when the world carries
    # an Instrumentation, else stays None and every hook is one test.
    obs = None
    # Rollback-recovery runtime; assigned by RankContext when the world
    # carries an FTRuntime (same None-when-off contract as obs).
    ft = None

    def __init__(
        self,
        env,
        rank: int,
        network: Network,
        rank_map,
        reg_tables: dict[int, RegistrationTable],
    ) -> None:
        self.env = env
        self.rank = rank
        self.network = network
        self.rank_map = rank_map
        self.reg_tables = reg_tables
        self.node = rank_map.node_of(rank)
        self._horizon = 0      # latest remote-completion time of any op
        self._issued = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _target_node(self, rank: int) -> int:
        return self.rank_map.node_of(rank)

    def _wire_back(self, target_node: int) -> float:
        return self.network.wire(target_node, self.node)

    def _track(self, handle: DmappHandle, target: int | None = None,
               nbytes: int = 0) -> DmappHandle:
        self._horizon = max(self._horizon, handle.remote_complete)
        self._issued += 1
        # Data movement is forward progress for the watchdog; AMOs are
        # deliberately NOT marks (a spinning lock issues AMOs forever).
        if handle.kind in ("put", "get"):
            self.env.note_progress()
        # env.now has not advanced since issue (every op body computes its
        # times eagerly and only yields after _track), so now == t0.
        if self.obs is not None and target is not None:
            self.obs.on_op(self.rank, handle.kind, target, self.env.now,
                           handle.remote_complete, nbytes)
        return handle

    def _resolve(self, desc: MemDescriptor):
        return self.reg_tables[desc.rank].resolve(desc)

    # ------------------------------------------------------------------
    # put
    # ------------------------------------------------------------------
    def put_nbi(self, desc: MemDescriptor, offset: int, data,
                on_applied=None) -> "Generator":
        """Implicit-nonblocking put; completed by :meth:`gsync`.

        Charges the origin process for injection backpressure (this is what
        bounds the message rate at 1/o_inject) and captures ``data`` at
        issue time, as the hardware DMA would.
        """
        payload = _as_payload(data)
        seg = self._resolve(desc)
        seg._check(offset, payload.nbytes)  # fail at issue, like a bad rkey
        net = self.network
        tnode = self._target_node(desc.rank)
        handle = DmappHandle("put", 0, 0)
        total = payload.nbytes
        chunk = net.params.max_chunk
        pos = 0
        last_delivery = self.env.now
        cpu_free = self.env.now
        while True:
            n = min(chunk, total - pos) if total else 0
            inj_start, inj_end = net.occupy_injection(self.node, max(1, n))
            # The CPU blocks for the descriptor write, or -- when the
            # injection FIFO is full -- until an older descriptor drained.
            admit = net.injection_admit(self.node, inj_end, max(1, n))
            cpu_free = max(self.env.now + int(round(net.params.o_inject)),
                           admit)
            piece = payload[pos:pos + n]
            off = offset + pos

            def _write(_t, seg=seg, off=off, piece=piece):
                seg.write(off, piece)
                if on_applied is not None:
                    on_applied(off, piece)

            delivery, _ev = net.packet(
                self.node, tnode, max(1, n), inject_window=(inj_start, inj_end),
                on_deliver=_write)
            net.counters.count_issue(self.rank, "put", n)
            # Chunks can complete out of order (a small tail chunk takes
            # the FMA path while bulk chunks drain on the BTE): remote
            # completion is the MAX delivery, not the last one.
            last_delivery = max(last_delivery, delivery)
            pos += n
            if pos >= total:
                handle.local_complete = inj_end
                break
        handle.remote_complete = int(round(
            last_delivery + self._wire_back(tnode)))
        self._track(handle, desc.rank, total)
        # The CPU is blocked only until the NIC accepted the descriptor
        # (o_inject); the DMA drain itself overlaps with computation.
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def put_nb(self, desc: MemDescriptor, offset: int, data):
        """Explicit-nonblocking put (same cost; waitable handle)."""
        return (yield from self.put_nbi(desc, offset, data))

    def put_b(self, desc: MemDescriptor, offset: int, data):
        """Blocking put: returns at *local* completion (buffer reusable)."""
        handle = yield from self.put_nbi(desc, offset, data)
        return handle

    # ------------------------------------------------------------------
    # get
    # ------------------------------------------------------------------
    def get_nbi(self, desc: MemDescriptor, offset: int, nbytes: int,
                out: np.ndarray | None = None):
        """Implicit-nonblocking get; data lands in ``out`` (or the handle's
        ``result``) at remote completion."""
        seg = self._resolve(desc)
        seg._check(offset, nbytes)
        net = self.network
        p = net.params
        tnode = self._target_node(desc.rank)
        # Request packet (header only) travels to the target NIC ...
        inj_start, inj_end = net.occupy_injection(self.node, _HEADER_BYTES)
        req_delivery, _ = net.packet(self.node, tnode, _HEADER_BYTES,
                                     inject_window=(inj_start, inj_end))
        # ... the target NIC reads memory and streams the response back,
        # sharing the target's bulk-injection bandwidth with its own
        # outbound traffic (small responses use the FMA path).
        resp_ready = req_delivery + p.get_target_overhead
        resp_chan = (self.network.nic(tnode).fma
                     if nbytes <= p.fma_threshold
                     else self.network.nic(tnode).bte)
        _resp_start, resp_end = resp_chan.occupy(
            int(round(max(p.nic_packet_gap, nbytes * p.get_gap_per_byte))),
            earliest=int(round(resp_ready)))
        wire = self._wire_back(tnode)
        data_arrival = int(round(resp_end + wire))

        handle = DmappHandle("get", inj_end, data_arrival)
        if out is not None and out.nbytes != nbytes:
            raise SimulationError(
                f"get out-buffer is {out.nbytes} B, expected {nbytes}")

        # Memory is read at the target at resp_start, landed at data_arrival.
        ev = self.env.event(name="get-data")

        def _read_at_target(event):
            if out is not None and out.flags["C_CONTIGUOUS"]:
                # Zero-copy landing: one slice copy from target memory
                # straight into the caller's buffer (watch hook included).
                flat = out.view(np.uint8).ravel()
                seg.read_into(offset, memoryview(flat.data))
                handle.result = flat
                return
            data = seg.read(offset, nbytes)
            handle.result = data
            if out is not None:
                out.view(np.uint8).ravel()[:] = data

        ev.callbacks.append(_read_at_target)
        ev.succeed(delay=max(0, data_arrival - self.env.now))
        net.counters.count_issue(self.rank, "get", nbytes)
        self._track(handle, desc.rank, nbytes)
        admit = net.injection_admit(self.node, inj_end, _HEADER_BYTES)
        cpu_free = max(self.env.now + int(round(p.o_inject)), admit)
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def get_b(self, desc: MemDescriptor, offset: int, nbytes: int):
        """Blocking get: waits for the data; returns a uint8 array."""
        handle = yield from self.get_nbi(desc, offset, nbytes)
        yield from self.wait(handle)
        return handle.result

    # ------------------------------------------------------------------
    # AMOs
    # ------------------------------------------------------------------
    def amo_nbi(self, target_rank: int, cells: AtomicArray, idx: int,
                op: str, operand: int, operand2: int = 0, fetch: bool = False,
                on_applied=None):
        """One 8-byte AMO at the target NIC.

        ``op='cas'`` uses ``operand`` as compare and ``operand2`` as swap.
        With ``fetch=True`` the old value is available in ``handle.result``
        once the handle completes.
        """
        net = self.network
        tnode = self._target_node(target_rank)
        inj_start, inj_end = net.occupy_injection(self.node, _AMO_BYTES)

        handle = DmappHandle("amo", inj_end, 0)

        def _execute(_t):
            if op == "cas":
                old = cells.cas(idx, operand, operand2)
            else:
                old = cells.apply(idx, op, operand)
            handle.result = old
            if on_applied is not None:
                on_applied(old)

        delivery, _ = net.packet(self.node, tnode, _AMO_BYTES,
                                 inject_window=(inj_start, inj_end),
                                 is_amo=True, on_deliver=_execute)
        handle.remote_complete = int(round(delivery + self._wire_back(tnode)))
        net.counters.count_issue(self.rank, f"amo:{op}", 8)
        self._track(handle, target_rank, 8)
        admit = net.injection_admit(self.node, inj_end, _AMO_BYTES)
        cpu_free = max(self.env.now + int(round(net.params.o_inject)), admit)
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def amo_custom_nbi(self, target_rank: int, mutate):
        """Protocol-level chained AMO: run ``mutate()`` atomically at the
        target NIC at delivery time (one injection).

        Models operation chains the NIC executes without origin round
        trips -- foMPI's PSCW free-storage append (fetch-ticket + write
        slot, Figure 2c) uses this.  ``mutate`` returns a value exposed in
        ``handle.result``.
        """
        net = self.network
        tnode = self._target_node(target_rank)
        inj_start, inj_end = net.occupy_injection(self.node, _AMO_BYTES)
        handle = DmappHandle("amo-custom", inj_end, 0)

        def _execute(_t):
            handle.result = mutate()

        delivery, _ = net.packet(self.node, tnode, _AMO_BYTES,
                                 inject_window=(inj_start, inj_end),
                                 is_amo=True, on_deliver=_execute)
        handle.remote_complete = int(round(delivery + self._wire_back(tnode)))
        net.counters.count_issue(self.rank, "amo:custom", 8)
        self._track(handle, target_rank, 8)
        admit = net.injection_admit(self.node, inj_end, _AMO_BYTES)
        cpu_free = max(self.env.now + int(round(net.params.o_inject)), admit)
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def amo_b(self, target_rank: int, cells: AtomicArray, idx: int,
              op: str, operand: int, operand2: int = 0, on_applied=None):
        """Blocking fetching AMO; returns the OLD value."""
        handle = yield from self.amo_nbi(target_rank, cells, idx, op,
                                         operand, operand2, fetch=True,
                                         on_applied=on_applied)
        yield from self.wait(handle)
        return handle.result

    def amo_stream_nbi(self, target_rank: int, cells: AtomicArray,
                       base_idx: int, op: str, operands, fetch: bool = False,
                       on_applied=None):
        """Streamed AMOs over consecutive cells (foMPI accelerated
        accumulate): one injection, AMO-engine occupancy per element.

        This is what produces the paper's P_acc,sum = 28 ns/elem + 2.4 us.
        ``op='fetch'`` (MPI_NO_OP, the atomic read) costs the same and
        modifies nothing: see :func:`repro.mem.atomic.prepare_stream`.
        """
        n, run = prepare_stream(cells, base_idx, op, operands)
        if n == 0:
            raise SimulationError("empty AMO stream")
        net = self.network
        p = net.params
        tnode = self._target_node(target_rank)
        nbytes = 8 * n
        inj_start, inj_end = net.occupy_injection(self.node, nbytes)
        admit = net.injection_admit(self.node, inj_end, nbytes)
        cpu_free = max(self.env.now + int(round(p.o_inject)), admit)

        handle = DmappHandle("amo-stream", inj_end, 0)

        def _execute(_t):
            old = run()
            if fetch:
                handle.result = np.array(old, dtype=np.uint64)
            if on_applied is not None:
                on_applied(old)

        # One packet; AMO engine busy amo_gap per element.
        wire = (p.wire_latency(net.hops(self.node, tnode)) + p.nic_latency
                + net._noise())
        head = inj_end + wire  # tail arrival; bandwidth paid at injection
        chan = net.nic(tnode).amo_engine
        start = max(int(round(head)), chan.busy_until)
        chan.busy_until = start + int(round(p.amo_gap * n))
        chan.total_busy += int(round(p.amo_gap * n))
        delivery = chan.busy_until + int(round(p.amo_service))
        ev = self.env.event(name="amo-stream")
        ev.callbacks.append(lambda _e: _execute(self.env.now))
        ev.succeed(delay=max(0, delivery - self.env.now))
        net.counters.count_service(tnode)
        net.counters.count_issue(self.rank, f"amo-stream:{op}", nbytes)
        handle.remote_complete = int(round(delivery + self._wire_back(tnode)))
        self._track(handle, target_rank, nbytes)
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def extend_completion(self, handle: DmappHandle, extra_ns: float) -> None:
        """Push a handle's remote completion later by ``extra_ns``.

        Used by baselines whose software agent processes the operation at
        the *target* after delivery (Cray MPI-2.2 model): the extra time is
        asynchronous to the origin CPU, so it extends the completion
        horizon instead of charging origin compute.
        """
        handle.remote_complete += int(round(extra_ns))
        self._horizon = max(self._horizon, handle.remote_complete)

    def wait(self, handle: DmappHandle):
        """Wait for one explicit handle's remote completion."""
        delta = handle.remote_complete - self.env.now
        if delta > 0:
            yield self.env.timeout(delta)
        return handle.result

    def wait_local(self, handle: DmappHandle):
        delta = handle.local_complete - self.env.now
        if delta > 0:
            yield self.env.timeout(delta)

    def gsync(self):
        """Bulk remote completion of everything this endpoint issued."""
        delta = self._horizon - self.env.now
        if delta > 0:
            yield self.env.timeout(delta)

    @property
    def completion_horizon(self) -> int:
        return self._horizon

    @property
    def ops_issued(self) -> int:
        return self._issued


class ResilientDmappEndpoint(DmappEndpoint):
    """Hardened DMAPP transport for faulty fabrics.

    Every operation is sequence-numbered and transmitted until its effect
    is applied *and* acknowledged, or until the retry budget is exhausted:

    * per-op deadlines: a missing ack after ``op_deadline_ns`` triggers a
      NIC-driven retransmission (the issuing CPU is charged only for the
      first attempt's descriptor write -- recovery overlaps computation);
    * retransmits are idempotent for put/get (re-writing the same bytes /
      re-reading) and exactly-once for AMOs: the injector caches the
      result keyed by ``(origin_rank, seq)``, so a replayed atomic whose
      first copy took effect (only the ack was lost) returns the cached
      old value instead of re-applying;
    * retransmission attempts back off exponentially (capped) with seeded
      jitter, so replay timing is deterministic for a given seed + plan;
    * :class:`~repro.errors.DeadlineError` is raised after
      ``max_retries`` failed attempts, or
      :class:`~repro.errors.NodeCrashedError` when the target node is
      known to have fail-stopped (quarantine: ops to crashed nodes fail
      fast without touching the wire).
    """

    def __init__(self, env, rank, network, rank_map, reg_tables,
                 injector, fault_config) -> None:
        super().__init__(env, rank, network, rank_map, reg_tables)
        self.injector = injector
        self.fault_config = fault_config
        self._op_seq = 0

    # ------------------------------------------------------------------
    # resilience machinery
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._op_seq += 1
        return self._op_seq

    def _quarantine_check(self, tnode: int, op: str, target_rank: int) -> None:
        """Fail fast on ops addressed to a node already known crashed."""
        inj = self.injector
        if inj.node_crashed(tnode, self.env.now):
            raise NodeCrashedError(
                tnode, inj.crash_time(tnode),
                f"{op} from rank {self.rank} to rank {target_rank} refused "
                f"(node quarantined)")

    def _deliver_reliably(self, tnode: int, nbytes: int, effect_cb,
                          kind: str, target_rank: int, *,
                          is_amo: bool = False):
        """Transmit one request until applied + acked.

        Returns ``(first_inject_window, complete_time, attempts)``.  The
        effect callback is attached to every attempt; it must be
        idempotent (put rewrites) or self-deduplicating (AMOs via the
        injector's replay cache).
        """
        inj = self.injector
        cfg = self.fault_config
        net = self.network
        env = self.env
        attempts = 0
        resend_floor: int | None = None
        first_window: tuple[int, int] | None = None
        while True:
            attempts += 1
            if attempts > cfg.max_retries + 1:
                inj.stats.deadline_failures += 1
                ct = inj.crash_time(tnode)
                if ct is not None and env.now >= ct:
                    raise NodeCrashedError(
                        tnode, ct,
                        f"{kind} from rank {self.rank} to rank "
                        f"{target_rank} undeliverable")
                raise DeadlineError(kind, target_rank, attempts - 1,
                                    cfg.op_deadline_ns)
            data_fate = inj.packet_fate(self.node, tnode)
            inj_start, inj_end = net.occupy_injection(
                self.node, max(1, nbytes), earliest=resend_floor)
            if first_window is None:
                first_window = (inj_start, inj_end)
            delivery, ev = net.packet(
                self.node, tnode, max(1, nbytes),
                inject_window=(inj_start, inj_end),
                is_amo=is_amo, fate=data_fate, on_deliver=effect_cb)
            if ev.name == "packet-deliver":
                ack_fate = inj.packet_fate(tnode, self.node)
                if not ack_fate.lost:
                    complete = int(round(delivery + self._wire_back(tnode)
                                         + ack_fate.extra_delay_ns))
                    return first_window, complete, attempts
            # Lost somewhere (request dropped/corrupted, target crashed,
            # or the ack went missing): the source NIC times out after the
            # op deadline and retransmits with capped, jittered backoff.
            ct = inj.crash_time(tnode)
            if ct is not None and inj_end >= ct:
                # The target died before this attempt could complete, and
                # every later retransmit injects even later: give up now
                # instead of burning the whole retry budget (and clogging
                # the injection channel) against a dead node.
                raise NodeCrashedError(
                    tnode, ct,
                    f"{kind} from rank {self.rank} to rank "
                    f"{target_rank} undeliverable (target crashed)")
            inj.stats.retransmits += 1
            inj._trace("retransmit",
                       f"{kind} rank{self.rank}->rank{target_rank} "
                       f"#{attempts}")
            # Draw the backoff exactly once: the obs hook must reuse it,
            # or recording would consume an extra jitter sample and
            # perturb the (seeded, deterministic) retransmit schedule.
            backoff = inj.backoff_ns(attempts)
            if self.obs is not None:
                self.obs.on_retransmit(self.rank, kind, target_rank,
                                       env.now, attempts,
                                       int(round(backoff)))
            resend_floor = int(round(inj_end + cfg.op_deadline_ns
                                     + backoff))

    def _pause_or_raise(self, target_rank: int, exc: NodeCrashedError):
        """FT hook: block until the target's cohort is restored, then let
        the caller retry; re-raise when the crash is not recoverable."""
        yield from self.ft.pause_for_restore(self.rank, target_rank, exc)

    # ------------------------------------------------------------------
    # resilient operations
    # ------------------------------------------------------------------
    def put_nbi(self, desc: MemDescriptor, offset: int, data,
                on_applied=None):
        if self.ft is None:
            return (yield from self._put_nbi_inner(desc, offset, data,
                                                   on_applied))
        while True:
            try:
                return (yield from self._put_nbi_inner(desc, offset, data,
                                                       on_applied))
            except NodeCrashedError as exc:
                yield from self._pause_or_raise(desc.rank, exc)

    def _put_nbi_inner(self, desc: MemDescriptor, offset: int, data,
                       on_applied=None):
        payload = _as_payload(data)
        seg = self._resolve(desc)
        seg._check(offset, payload.nbytes)
        net = self.network
        tnode = self._target_node(desc.rank)
        self._quarantine_check(tnode, "put", desc.rank)
        handle = DmappHandle("put", 0, 0)
        total = payload.nbytes
        chunk = net.params.max_chunk
        pos = 0
        last_complete = self.env.now
        cpu_free = self.env.now
        while True:
            n = min(chunk, total - pos) if total else 0
            piece = payload[pos:pos + n]
            off = offset + pos

            def _write(_t, seg=seg, off=off, piece=piece):
                seg.write(off, piece)  # idempotent: retransmits re-write
                if on_applied is not None:
                    on_applied(off, piece)

            (inj_start, inj_end), complete, _att = self._deliver_reliably(
                tnode, max(1, n), _write, "put", desc.rank)
            admit = net.injection_admit(self.node, inj_end, max(1, n))
            cpu_free = max(self.env.now + int(round(net.params.o_inject)),
                           admit)
            net.counters.count_issue(self.rank, "put", n)
            last_complete = max(last_complete, complete)
            pos += n
            if pos >= total:
                handle.local_complete = inj_end
                break
        handle.remote_complete = last_complete
        self._track(handle, desc.rank, total)
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def get_nbi(self, desc: MemDescriptor, offset: int, nbytes: int,
                out: np.ndarray | None = None):
        if self.ft is None:
            return (yield from self._get_nbi_inner(desc, offset, nbytes, out))
        while True:
            try:
                return (yield from self._get_nbi_inner(desc, offset,
                                                       nbytes, out))
            except NodeCrashedError as exc:
                yield from self._pause_or_raise(desc.rank, exc)

    def _get_nbi_inner(self, desc: MemDescriptor, offset: int, nbytes: int,
                       out: np.ndarray | None = None):
        seg = self._resolve(desc)
        seg._check(offset, nbytes)
        net = self.network
        p = net.params
        inj = self.injector
        cfg = self.fault_config
        tnode = self._target_node(desc.rank)
        self._quarantine_check(tnode, "get", desc.rank)
        if out is not None and out.nbytes != nbytes:
            raise SimulationError(
                f"get out-buffer is {out.nbytes} B, expected {nbytes}")

        attempts = 0
        resend_floor: int | None = None
        first_window: tuple[int, int] | None = None
        data_arrival = self.env.now
        while True:
            attempts += 1
            if attempts > cfg.max_retries + 1:
                inj.stats.deadline_failures += 1
                ct = inj.crash_time(tnode)
                if ct is not None and self.env.now >= ct:
                    raise NodeCrashedError(
                        tnode, ct,
                        f"get from rank {self.rank} to rank {desc.rank} "
                        f"undeliverable")
                raise DeadlineError("get", desc.rank, attempts - 1,
                                    cfg.op_deadline_ns)
            req_fate = inj.packet_fate(self.node, tnode)
            inj_start, inj_end = net.occupy_injection(
                self.node, _HEADER_BYTES, earliest=resend_floor)
            if first_window is None:
                first_window = (inj_start, inj_end)
            req_delivery, req_ev = net.packet(
                self.node, tnode, _HEADER_BYTES,
                inject_window=(inj_start, inj_end), fate=req_fate)
            if req_ev.name == "packet-deliver":
                resp_fate = inj.packet_fate(tnode, self.node)
                if not resp_fate.lost:
                    resp_ready = req_delivery + p.get_target_overhead
                    resp_ready = max(resp_ready, inj.stall_release(
                        tnode, int(round(resp_ready))))
                    resp_chan = (net.nic(tnode).fma
                                 if nbytes <= p.fma_threshold
                                 else net.nic(tnode).bte)
                    _rs, resp_end = resp_chan.occupy(
                        int(round(max(p.nic_packet_gap,
                                      nbytes * p.get_gap_per_byte))),
                        earliest=int(round(resp_ready)))
                    if not inj.node_crashed(tnode, resp_end):
                        data_arrival = int(round(
                            resp_end + self._wire_back(tnode)
                            + resp_fate.extra_delay_ns))
                        break
            ct = inj.crash_time(tnode)
            if ct is not None and inj_end >= ct:
                # Dead target: no retransmit can ever succeed (see
                # _deliver_reliably).
                raise NodeCrashedError(
                    tnode, ct,
                    f"get from rank {self.rank} to rank {desc.rank} "
                    f"undeliverable (target crashed)")
            inj.stats.retransmits += 1
            inj._trace("retransmit",
                       f"get rank{self.rank}->rank{desc.rank} #{attempts}")
            backoff = inj.backoff_ns(attempts)
            if self.obs is not None:
                self.obs.on_retransmit(self.rank, "get", desc.rank,
                                       self.env.now, attempts,
                                       int(round(backoff)))
            resend_floor = int(round(inj_end + cfg.op_deadline_ns
                                     + backoff))

        inj_start, inj_end = first_window
        handle = DmappHandle("get", inj_end, data_arrival)
        ev = self.env.event(name="get-data")

        def _read_at_target(event):
            if out is not None and out.flags["C_CONTIGUOUS"]:
                # Zero-copy landing: one slice copy from target memory
                # straight into the caller's buffer (watch hook included).
                flat = out.view(np.uint8).ravel()
                seg.read_into(offset, memoryview(flat.data))
                handle.result = flat
                return
            data = seg.read(offset, nbytes)
            handle.result = data
            if out is not None:
                out.view(np.uint8).ravel()[:] = data

        ev.callbacks.append(_read_at_target)
        ev.succeed(delay=max(0, data_arrival - self.env.now))
        net.counters.count_issue(self.rank, "get", nbytes)
        self._track(handle, desc.rank, nbytes)
        admit = net.injection_admit(self.node, inj_end, _HEADER_BYTES)
        cpu_free = max(self.env.now + int(round(p.o_inject)), admit)
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def amo_nbi(self, target_rank: int, cells: AtomicArray, idx: int,
                op: str, operand: int, operand2: int = 0,
                fetch: bool = False, on_applied=None):
        # Draw the sequence number once, before any attempt: on a
        # crash-and-restore retry the injector's replay cache then
        # deduplicates an AMO whose first copy already took effect.
        seq = self._next_seq()
        if self.ft is None:
            return (yield from self._amo_nbi_inner(
                target_rank, cells, idx, op, operand, operand2, fetch,
                seq, on_applied))
        while True:
            try:
                return (yield from self._amo_nbi_inner(
                    target_rank, cells, idx, op, operand, operand2, fetch,
                    seq, on_applied))
            except NodeCrashedError as exc:
                yield from self._pause_or_raise(target_rank, exc)

    def _amo_nbi_inner(self, target_rank: int, cells: AtomicArray, idx: int,
                       op: str, operand: int, operand2: int, fetch: bool,
                       seq: int, on_applied=None):
        net = self.network
        inj = self.injector
        tnode = self._target_node(target_rank)
        self._quarantine_check(tnode, f"amo:{op}", target_rank)
        handle = DmappHandle("amo", 0, 0)

        def _execute(_t):
            if inj.amo_executed(self.rank, seq):
                handle.result = inj.replay_result(self.rank, seq)
                return
            if op == "cas":
                old = cells.cas(idx, operand, operand2)
            else:
                old = cells.apply(idx, op, operand)
            inj.record_amo(self.rank, seq, old)
            handle.result = old
            if on_applied is not None:
                on_applied(old)

        (inj_start, inj_end), complete, _att = self._deliver_reliably(
            tnode, _AMO_BYTES, _execute, f"amo:{op}", target_rank,
            is_amo=True)
        handle.local_complete = inj_end
        handle.remote_complete = complete
        net.counters.count_issue(self.rank, f"amo:{op}", 8)
        self._track(handle, target_rank, 8)
        admit = net.injection_admit(self.node, inj_end, _AMO_BYTES)
        cpu_free = max(self.env.now + int(round(net.params.o_inject)),
                       admit)
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def amo_custom_nbi(self, target_rank: int, mutate):
        seq = self._next_seq()
        if self.ft is None:
            return (yield from self._amo_custom_nbi_inner(
                target_rank, mutate, seq))
        while True:
            try:
                return (yield from self._amo_custom_nbi_inner(
                    target_rank, mutate, seq))
            except NodeCrashedError as exc:
                yield from self._pause_or_raise(target_rank, exc)

    def _amo_custom_nbi_inner(self, target_rank: int, mutate, seq: int):
        net = self.network
        inj = self.injector
        tnode = self._target_node(target_rank)
        self._quarantine_check(tnode, "amo:custom", target_rank)
        handle = DmappHandle("amo-custom", 0, 0)

        def _execute(_t):
            if inj.amo_executed(self.rank, seq):
                handle.result = inj.replay_result(self.rank, seq)
                return
            result = mutate()
            inj.record_amo(self.rank, seq, result)
            handle.result = result

        (inj_start, inj_end), complete, _att = self._deliver_reliably(
            tnode, _AMO_BYTES, _execute, "amo:custom", target_rank,
            is_amo=True)
        handle.local_complete = inj_end
        handle.remote_complete = complete
        net.counters.count_issue(self.rank, "amo:custom", 8)
        self._track(handle, target_rank, 8)
        admit = net.injection_admit(self.node, inj_end, _AMO_BYTES)
        cpu_free = max(self.env.now + int(round(net.params.o_inject)),
                       admit)
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle

    def amo_stream_nbi(self, target_rank: int, cells: AtomicArray,
                       base_idx: int, op: str, operands,
                       fetch: bool = False, on_applied=None):
        seq = self._next_seq()
        if self.ft is None:
            return (yield from self._amo_stream_nbi_inner(
                target_rank, cells, base_idx, op, operands, fetch, seq,
                on_applied))
        while True:
            try:
                return (yield from self._amo_stream_nbi_inner(
                    target_rank, cells, base_idx, op, operands, fetch, seq,
                    on_applied))
            except NodeCrashedError as exc:
                yield from self._pause_or_raise(target_rank, exc)

    def _amo_stream_nbi_inner(self, target_rank: int, cells: AtomicArray,
                              base_idx: int, op: str, operands,
                              fetch: bool, seq: int, on_applied=None):
        n, run = prepare_stream(cells, base_idx, op, operands)
        if n == 0:
            raise SimulationError("empty AMO stream")
        net = self.network
        p = net.params
        inj = self.injector
        cfg = self.fault_config
        tnode = self._target_node(target_rank)
        self._quarantine_check(tnode, f"amo-stream:{op}", target_rank)
        nbytes = 8 * n
        handle = DmappHandle("amo-stream", 0, 0)

        def _execute(_t):
            if inj.amo_executed(self.rank, seq):
                cached = inj.replay_result(self.rank, seq)
                if fetch:
                    handle.result = cached
                return
            old = run()
            arr = np.array(old, dtype=np.uint64) if fetch else None
            inj.record_amo(self.rank, seq, arr)
            if fetch:
                handle.result = arr
            if on_applied is not None:
                on_applied(old)

        attempts = 0
        resend_floor: int | None = None
        first_window: tuple[int, int] | None = None
        complete = self.env.now
        while True:
            attempts += 1
            if attempts > cfg.max_retries + 1:
                inj.stats.deadline_failures += 1
                ct = inj.crash_time(tnode)
                if ct is not None and self.env.now >= ct:
                    raise NodeCrashedError(
                        tnode, ct,
                        f"amo-stream from rank {self.rank} to rank "
                        f"{target_rank} undeliverable")
                raise DeadlineError(f"amo-stream:{op}", target_rank,
                                    attempts - 1, cfg.op_deadline_ns)
            data_fate = inj.packet_fate(self.node, tnode)
            inj_start, inj_end = net.occupy_injection(
                self.node, nbytes, earliest=resend_floor)
            if first_window is None:
                first_window = (inj_start, inj_end)
            if not data_fate.drop:
                wire = (p.wire_latency(net.hops(self.node, tnode))
                        + p.nic_latency + net._noise()
                        + data_fate.extra_delay_ns)
                head = inj_end + wire
                head = max(head, inj.stall_release(tnode, int(round(head))))
                chan = net.nic(tnode).amo_engine
                start = max(int(round(head)), chan.busy_until)
                chan.busy_until = start + int(round(p.amo_gap * n))
                chan.total_busy += int(round(p.amo_gap * n))
                delivery = chan.busy_until + int(round(p.amo_service))
                net.counters.count_service(tnode)
                if (not data_fate.corrupt
                        and not inj.node_crashed(tnode, delivery)):
                    ev = self.env.event(name="amo-stream")
                    ev.callbacks.append(lambda _e: _execute(self.env.now))
                    ev.succeed(delay=max(0, delivery - self.env.now))
                    ack_fate = inj.packet_fate(tnode, self.node)
                    if not ack_fate.lost:
                        complete = int(round(
                            delivery + self._wire_back(tnode)
                            + ack_fate.extra_delay_ns))
                        break
            inj.stats.retransmits += 1
            inj._trace("retransmit",
                       f"amo-stream rank{self.rank}->rank{target_rank} "
                       f"#{attempts}")
            backoff = inj.backoff_ns(attempts)
            if self.obs is not None:
                self.obs.on_retransmit(self.rank, f"amo-stream:{op}",
                                       target_rank, self.env.now, attempts,
                                       int(round(backoff)))
            resend_floor = int(round(inj_end + cfg.op_deadline_ns
                                     + backoff))

        inj_start, inj_end = first_window
        handle.local_complete = inj_end
        handle.remote_complete = complete
        net.counters.count_issue(self.rank, f"amo-stream:{op}", nbytes)
        self._track(handle, target_rank, nbytes)
        admit = net.injection_admit(self.node, inj_end, nbytes)
        cpu_free = max(self.env.now + int(round(p.o_inject)), admit)
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return handle
