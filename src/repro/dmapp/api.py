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
single sleep rather than per-packet events.  Target-memory mutation still
happens in a delivery callback (``env.call_at``) at the delivery instant,
so reads at the target observe writes in true simulated-time order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.errors import DeadlineError, NodeCrashedError, SimulationError
from repro.faults import MAX_RETRIES, OP_DEADLINE_NS
from repro.mem.address_space import capture
from repro.mem.atomic import SegmentCells, prepare_stream
from repro.mem.registration import MemDescriptor, RegistrationTable
from repro.machine.network import Network

__all__ = ["DmappEndpoint", "DmappHandle", "require_contiguous"]

_HEADER_BYTES = 24  # request header: opcode + rkey + vaddr (get/amo requests)
_AMO_BYTES = 16     # AMO request payload: operand + address


def require_contiguous(out: np.ndarray, error=SimulationError) -> None:
    """Refuse a get's ``out`` buffer unless it is C-contiguous: the flat
    byte view a get lands in would be a copy of any other layout, and the
    data would silently go nowhere."""
    if not out.flags["C_CONTIGUOUS"]:
        raise error(
            f"get out-buffer (shape {out.shape}, strides {out.strides}) is "
            "not C-contiguous; get into a contiguous buffer and describe a "
            "strided layout with origin_datatype")


@dataclass(slots=True)
class DmappHandle:
    """Explicit-nonblocking operation handle."""

    kind: str
    local_complete: int   # ns: origin buffer reusable
    remote_complete: int  # ns: effect visible + ack at origin
    result: np.ndarray | int | None = None  # filled for fetch ops at delivery


class DmappEndpoint:
    """One rank's DMAPP context, on a clean or a faulty fabric.

    ``injector`` is the network's :class:`~repro.faults.FaultInjector`, or
    ``None`` on a clean fabric (same None-when-off contract as ``obs`` and
    ``ft``): then every operation is exactly one transmission and nothing
    below is constructed or consulted.  With an injector, every operation
    is transmitted until its effect is applied *and* acknowledged
    (:meth:`_transmit`):

    * a missing ack after ``OP_DEADLINE_NS`` triggers a NIC-driven
      retransmission -- the issuing CPU is charged only for the first
      attempt's descriptor write, recovery overlaps computation -- with
      capped exponential backoff and seeded jitter, so replay timing is
      deterministic for a given seed + plan;
    * retransmits are idempotent for put/get (re-writing the same bytes /
      re-reading) and exactly-once for AMOs: each AMO carries a per-origin
      sequence number and the injector caches its result under
      ``(origin_rank, seq)``, so a replayed atomic whose first copy took
      effect (only the ack was lost) returns the cached old value instead
      of re-applying;
    * :class:`~repro.errors.DeadlineError` is raised after ``MAX_RETRIES``
      lost attempts, :class:`~repro.errors.NodeCrashedError` as soon as
      the target node is known to have fail-stopped (quarantine: ops to
      crashed nodes fail fast without touching the wire).  Under an FT
      runtime the operation instead waits for the target's restore and is
      reissued (:meth:`_await_restore`).

    With an injector whose plan loses nothing, schedules are bit-identical
    to the clean fabric's.

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
        self.injector = network.injector
        self._horizon = 0      # latest remote-completion time of any op
        self._op_seq = 0       # AMO sequence numbers (faulty fabric only)

    # ------------------------------------------------------------------
    # faulty fabric: the retransmit loop and its per-op attempts
    # ------------------------------------------------------------------
    def _transmit(self, tnode: int, nbytes: int, kind: str,
                  target_rank: int, attempt, *args) -> tuple[int, int]:
        """Transmit one request until it is applied and acknowledged.

        ``attempt(tnode, nbytes, window, fate, *args)`` makes one
        transmission in the reserved injection ``window`` under the drawn
        data ``fate`` and returns the origin-side completion time, or
        ``None`` when the request, its effect or its ack/response was
        lost.  The effect it delivers must be idempotent (put rewrites,
        get re-reads) or self-deduplicating (AMOs).  Returns ``(end of the
        first injection, completion time)``.
        """
        inj = self.injector
        net = self.network
        env = self.env
        if inj.node_crashed(tnode, env.now):
            raise NodeCrashedError(
                tnode, inj.crash_time(tnode),
                f"{kind} from rank {self.rank} to rank {target_rank} "
                f"refused (node quarantined)")
        attempts = 0
        resend_floor: int | None = None
        first_end: int | None = None
        while True:
            attempts += 1
            if attempts > MAX_RETRIES + 1:
                inj.stats.deadline_failures += 1
                ct = inj.crash_time(tnode)
                if ct is not None and env.now >= ct:
                    raise NodeCrashedError(
                        tnode, ct,
                        f"{kind} from rank {self.rank} to rank "
                        f"{target_rank} undeliverable")
                raise DeadlineError(kind, target_rank, attempts - 1,
                                    OP_DEADLINE_NS)
            fate = inj.packet_fate(self.node, tnode)
            window = net.occupy_injection(self.node, nbytes,
                                          earliest=resend_floor)
            if first_end is None:
                first_end = window[1]
            complete = attempt(tnode, nbytes, window, fate, *args)
            if complete is not None:
                return first_end, complete
            # Lost somewhere (request dropped/corrupted, target crashed,
            # or the ack went missing): the source NIC times out after the
            # op deadline and retransmits with capped, jittered backoff.
            ct = inj.crash_time(tnode)
            if ct is not None and window[1] >= ct:
                # The target died before this attempt could complete, and
                # every later retransmit injects even later: give up now
                # instead of burning the whole retry budget (and clogging
                # the injection channel) against a dead node.
                raise NodeCrashedError(
                    tnode, ct,
                    f"{kind} from rank {self.rank} to rank "
                    f"{target_rank} undeliverable (target crashed)")
            inj.stats.retransmits += 1
            # Draw the backoff exactly once: the obs hook must reuse it,
            # or recording would consume an extra jitter sample and
            # perturb the (seeded, deterministic) retransmit schedule.
            backoff = inj.backoff_ns(attempts)
            if self.obs is not None:
                self.obs.on_retransmit(self.rank, kind, target_rank,
                                       env.now, attempts,
                                       int(round(backoff)))
            resend_floor = int(round(window[1] + OP_DEADLINE_NS
                                     + backoff))

    def _acked(self, tnode: int, applied: int) -> int | None:
        """Draw the ack's fate for an effect applied at ``applied``: the
        origin-side completion time, or ``None`` when the ack is lost."""
        ack = self.injector.packet_fate(tnode, self.node)
        if ack.lost:
            return None
        return int(round(applied + self.network.wire(tnode, self.node)
                         + ack.extra_delay_ns))

    def _attempt_packet(self, tnode, nbytes, window, fate, is_amo, effect):
        """Put chunk / AMO: one packet that applies ``effect`` on delivery."""
        delivery = self.network.packet(
            self.node, tnode, nbytes, inject_window=window, is_amo=is_amo,
            fate=fate, on_deliver=effect)
        if delivery is None:
            return None
        return self._acked(tnode, delivery)

    def _attempt_get(self, tnode, req_bytes, window, fate, nbytes):
        """Get: header-only request out, response leg back."""
        inj = self.injector
        req_delivery = self.network.packet(
            self.node, tnode, req_bytes, inject_window=window, fate=fate)
        if req_delivery is None:
            return None
        # The response's fate is drawn before the target NIC streams it:
        # a lost response never occupies the response channel.
        resp_fate = inj.packet_fate(tnode, self.node)
        if resp_fate.lost:
            return None
        resp_end = self._response_leg(tnode, nbytes, req_delivery)
        if inj.node_crashed(tnode, resp_end):
            return None
        return int(round(resp_end + self.network.wire(tnode, self.node)
                         + resp_fate.extra_delay_ns))

    def _attempt_stream(self, tnode, _nbytes, window, fate, n, effect):
        """AMO stream: AMO-engine occupancy, effect at its end."""
        if fate.drop:
            return None
        delivery = self._stream_delivery(tnode, n, window[1],
                                         fate.extra_delay_ns)
        if fate.corrupt or self.injector.node_crashed(tnode, delivery):
            return None
        self.env.call_at(max(0, delivery - self.env.now), effect)
        return self._acked(tnode, delivery)

    def _await_restore(self, target_rank: int, exc: NodeCrashedError):
        """An operation hit a crashed target.  Under an FT runtime, block
        until the target's cohort is restored; re-raise when the crash is
        not recoverable.  The caller then reissues from target resolution:
        a restored rank has a new registration and may live on another
        node."""
        if self.ft is None:
            raise exc
        yield from self.ft.pause_for_restore(self.rank, target_rank, exc)

    # ------------------------------------------------------------------
    # target-side legs shared by both fabrics
    # ------------------------------------------------------------------
    def _response_leg(self, tnode: int, nbytes: int, req_delivery) -> int:
        """The target NIC reads memory and streams a get response back,
        sharing the target's bulk-injection bandwidth with its own
        outbound traffic (small responses use the FMA path).  Returns the
        time the response has left the target."""
        p = self.network.params
        ready = req_delivery + p.get_target_overhead
        if self.injector is not None:
            ready = max(ready, self.injector.stall_release(
                tnode, int(round(ready))))
        nic = self.network.nic(tnode)
        chan = nic.fma if nbytes <= p.fma_threshold else nic.bte
        return chan.occupy(
            int(round(max(p.nic_packet_gap, nbytes * p.get_gap_per_byte))),
            earliest=int(round(ready)))[1]

    def _stream_delivery(self, tnode: int, n: int, inj_end: int,
                         extra_delay_ns: int = 0) -> int:
        """One packet of ``n`` AMOs injected by ``inj_end``: the target's
        AMO engine is busy ``amo_gap`` per element.  Returns the time the
        last element has executed."""
        net = self.network
        p = net.params
        # Tail arrival; bandwidth was paid at injection.  Memos inline.
        wire = (net._wire.get((self.node, tnode))
                or net.wire(self.node, tnode)) + p.nic_latency
        if net._has_noise:
            wire += net._noise()
        head = inj_end + (wire + extra_delay_ns)
        if self.injector is not None:
            head = max(head, self.injector.stall_release(
                tnode, int(round(head))))
        chan = (net._nics.get(tnode) or net.nic(tnode)).amo_engine
        busy = int(round(p.amo_gap * n))
        chan.busy_until = max(int(round(head)), chan.busy_until) + busy
        return chan.busy_until + net.amo_service_int

    # ------------------------------------------------------------------
    # put
    # ------------------------------------------------------------------
    def put_nbi(self, desc: MemDescriptor, offset: int, data,
                on_applied=None):
        """Implicit-nonblocking put; completed by :meth:`gsync`.

        Captures ``data`` at issue, as the hardware DMA would (a
        :func:`~repro.mem.address_space.capture`, what ``Window.put`` hands
        over, is taken as it is), resolves the descriptor and checks the
        range once, like a bad rkey; each chunk lands as one slice store.
        Charges the origin for injection backpressure (this is what bounds
        the message rate at 1/o_inject).
        """
        if type(data) is not memoryview or type(data.obj) is not bytes:
            data = capture(data)
        total = len(data)
        seg = self.reg_tables[desc.rank].resolve(desc)
        if offset < 0 or offset + total > seg.size or not seg.alive:
            seg._check(offset, total)   # raises
        mem = seg.mv
        net = self.network
        node = self.node
        env = self.env
        rank_map = self.rank_map
        chunk = net.params.max_chunk
        fma = net.params.fma_threshold
        while True:
            try:
                # node_of and the wire memo, inline, and read again after a
                # restore, which may rehome the target.
                tnode = (rank_map.node_of(desc.rank) if rank_map._overrides
                         else desc.rank // rank_map.ranks_per_node)
                wire_back = (net._wire.get((tnode, node))
                             or net.wire(tnode, node))
                pos = 0
                complete = drained = cpu_free = env.now
                while True:
                    n = total - pos
                    if n > chunk:
                        n = chunk
                    size = n or 1
                    piece = data if n == total else data[pos:pos + n]
                    lo = offset + pos

                    def _land(lo=lo, hi=lo + n, piece=piece):
                        if not seg.alive:
                            seg._check(lo, hi - lo)   # raises: freed
                        mem[lo:hi] = piece  # idempotent under retransmit
                        if on_applied is not None:
                            on_applied(lo, piece)

                    if self.injector is None:
                        window = net.occupy_injection(node, size)
                        inj_end = window[1]
                        delivery = net.packet(
                            node, tnode, size, inject_window=window,
                            on_deliver=_land)
                        done = delivery + wire_back
                    else:
                        inj_end, done = self._transmit(
                            tnode, size, "put", desc.rank,
                            self._attempt_packet, False, _land)
                    # The CPU blocks for the descriptor write, or -- when
                    # the injection FIFO is full -- until an older
                    # descriptor drained.
                    cpu_free = env.now + net.o_inject_int
                    if size > fma:    # FMA-path ops never queue
                        cpu_free = max(cpu_free, net.injection_admit(
                            node, inj_end, size))
                    net.counters.count_issue(self.rank, "put", n)
                    # Chunks can finish out of order (a small tail chunk
                    # takes the FMA path while bulk chunks drain on the
                    # BTE): both completions are the MAX, not the last one.
                    if inj_end > drained:
                        drained = inj_end
                    if done > complete:
                        complete = done
                    pos += n
                    if pos >= total:
                        break
                break
            except NodeCrashedError as exc:
                yield from self._await_restore(desc.rank, exc)
        complete = round(complete)
        if complete > self._horizon:
            self._horizon = complete
        env.progress_marks += 1    # data movement is watchdog progress
        if self.obs is not None:
            self.obs.on_op(self.rank, "put", desc.rank, env.now, complete,
                           total)
        # The CPU is blocked only until the NIC accepted the descriptor
        # (o_inject); the DMA drain itself overlaps with computation.
        wait = cpu_free - env.now
        if wait > 0:
            yield wait
        return DmappHandle("put", drained, complete)

    # ------------------------------------------------------------------
    # get
    # ------------------------------------------------------------------
    def get_nbi(self, desc: MemDescriptor, offset: int, nbytes: int,
                out: np.ndarray | None = None):
        """Implicit-nonblocking get; data lands in ``out`` (a C-contiguous
        array) or the handle's ``result`` at remote completion."""
        if out is not None:
            if out.nbytes != nbytes:
                raise SimulationError(
                    f"get out-buffer is {out.nbytes} B, expected {nbytes}")
            require_contiguous(out)
        net = self.network
        node = self.node
        while True:
            try:
                seg = self.reg_tables[desc.rank].resolve(desc)
                seg._check(offset, nbytes)
                tnode = self.rank_map.node_of(desc.rank)
                if self.injector is None:
                    # Request packet (header only) travels to the target
                    # NIC, which streams the response back.
                    window = net.occupy_injection(node, _HEADER_BYTES)
                    inj_end = window[1]
                    req_delivery = net.packet(
                        node, tnode, _HEADER_BYTES, inject_window=window)
                    data_arrival = round(
                        self._response_leg(tnode, nbytes, req_delivery)
                        + net.wire(tnode, node))
                else:
                    inj_end, data_arrival = self._transmit(
                        tnode, _HEADER_BYTES, "get", desc.rank,
                        self._attempt_get, nbytes)
                break
            except NodeCrashedError as exc:
                yield from self._await_restore(desc.rank, exc)
        handle = DmappHandle("get", inj_end, data_arrival)

        # Memory is read at the target when the data lands at the origin.
        def _read_at_target():
            if out is None:
                handle.result = seg.read(offset, nbytes)
                return
            if not seg.alive:
                seg._check(offset, nbytes)  # raises: freed in flight
            # One slice copy from target memory into the caller's buffer.
            flat = out.view(np.uint8).ravel()
            flat.data[:] = seg.mv[offset:offset + nbytes]
            handle.result = flat

        self.env.call_at(max(0, data_arrival - self.env.now),
                         _read_at_target)
        net.counters.count_issue(self.rank, "get", nbytes)
        if data_arrival > self._horizon:
            self._horizon = data_arrival
        self.env.progress_marks += 1    # data movement is watchdog progress
        if self.obs is not None:
            self.obs.on_op(self.rank, "get", desc.rank, self.env.now,
                           data_arrival, nbytes)
        wait = net.o_inject_int
        if _HEADER_BYTES > net.params.fma_threshold:   # FMA ops never queue
            wait = max(wait, net.injection_admit(node, inj_end, _HEADER_BYTES)
                       - self.env.now)
        if wait > 0:
            yield wait
        return handle

    def get_b(self, desc: MemDescriptor, offset: int, nbytes: int):
        """Blocking get: waits for the data; returns a uint8 array."""
        handle = yield from self.get_nbi(desc, offset, nbytes)
        yield from self.wait(handle)
        return handle.result

    # ------------------------------------------------------------------
    # AMOs
    # ------------------------------------------------------------------
    def _amo(self, target_rank: int, handle_kind: str, kind: str,
             nbytes: int, apply, fetch: bool, on_applied, stream: int = 0):
        """Issue one AMO request -- a single AMO, or a ``stream`` of that
        many -- whose effect is ``old = apply()`` at the target NIC.
        Returns ``(handle, wait)``; the caller sleeps the ``wait`` ns.

        The one exactly-once body of all three entry points: the sequence
        number is drawn once, before any attempt or restore-reissue, and a
        replayed copy returns the cached result instead of re-applying.
        It suspends only to await a crashed target's restore: otherwise
        it runs to its return like a plain call, off the caller's stack.
        ``nbytes`` is what the op counts; a single AMO injects
        ``_AMO_BYTES`` for its 8, a stream its ``nbytes``.
        """
        net = self.network
        node = self.node
        inj = self.injector
        seq = 0
        if inj is not None:    # the AMO's sequence number, drawn once
            self._op_seq = seq = self._op_seq + 1
        handle = DmappHandle(handle_kind, 0, 0)
        wire_bytes = nbytes if stream else _AMO_BYTES

        def _execute():
            if seq and inj.amo_executed(self.rank, seq):
                handle.result = inj.replay_result(self.rank, seq)
                return
            old = apply()
            if fetch:
                handle.result = old
            if seq:
                inj.record_amo(self.rank, seq, handle.result)
            if on_applied is not None:
                on_applied(old)

        while True:
            try:
                tnode = self.rank_map.node_of(target_rank)
                if inj is not None:
                    attempt, arg = ((self._attempt_stream, stream) if stream
                                    else (self._attempt_packet, True))
                    inj_end, complete = self._transmit(
                        tnode, wire_bytes, kind, target_rank, attempt, arg,
                        _execute)
                    break
                # Clean fabric: one transmission, inline (DESIGN.md
                # section 7 has the host time a _transmit call costs).
                window = net.occupy_injection(node, wire_bytes)
                inj_end = window[1]
                if stream:
                    delivery = self._stream_delivery(tnode, stream, inj_end)
                    self.env.call_at(max(0, delivery - self.env.now),
                                     _execute)
                else:
                    delivery = net.packet(
                        node, tnode, wire_bytes, inject_window=window,
                        is_amo=True, on_deliver=_execute)
                complete = round(delivery + (net._wire.get((tnode, node))
                                             or net.wire(tnode, node)))
                break
            except NodeCrashedError as exc:
                yield from self._await_restore(target_rank, exc)
        handle.local_complete = inj_end
        handle.remote_complete = complete
        net.counters.count_issue(self.rank, kind, nbytes)
        if complete > self._horizon:
            self._horizon = complete
        # No watchdog progress: a spinning lock issues AMOs forever.
        if self.obs is not None:
            self.obs.on_op(self.rank, handle_kind, target_rank,
                           self.env.now, complete, nbytes)
        wait = net.o_inject_int
        if wire_bytes > net.params.fma_threshold:   # FMA ops never queue
            wait = max(wait, net.injection_admit(node, inj_end, wire_bytes)
                       - self.env.now)
        return handle, wait

    def amo_nbi(self, target_rank: int, cells: SegmentCells, idx: int,
                op: str, operand: int, operand2: int = 0, on_applied=None):
        """One 8-byte AMO at the target NIC.

        ``op='cas'`` uses ``operand`` as compare and ``operand2`` as swap.
        The old value is in ``handle.result`` once the handle completes.
        """
        apply = (partial(cells.cas, idx, operand, operand2) if op == "cas"
                 else partial(cells.apply, idx, op, operand))
        handle, wait = yield from self._amo(
            target_rank, "amo", f"amo:{op}", 8, apply, True, on_applied)
        if wait > 0:
            yield wait
        return handle

    def amo_custom_nbi(self, target_rank: int, mutate):
        """Protocol-level chained AMO: run ``mutate()`` atomically at the
        target NIC at delivery time (one injection).

        Models operation chains the NIC executes without origin round
        trips -- foMPI's PSCW free-storage append (fetch-ticket + write
        slot, Figure 2c) uses this.  ``mutate`` returns a value exposed in
        ``handle.result``.
        """
        handle, wait = yield from self._amo(
            target_rank, "amo-custom", "amo:custom", 8, mutate, True, None)
        if wait > 0:
            yield wait
        return handle

    def amo_stream_nbi(self, target_rank: int, cells: SegmentCells,
                       base_idx: int, op: str, operands, fetch: bool = False,
                       on_applied=None):
        """Streamed AMOs over consecutive cells (foMPI accelerated
        accumulate): one injection, AMO-engine occupancy per element.

        This is what produces the paper's P_acc,sum = 28 ns/elem + 2.4 us.
        The operands are captured at issue; the stream lands in one
        ``cells.apply_block`` when its last element executes, whose old
        words (``uint64``) are the result with ``fetch=True``.  ``op='fetch'``
        (MPI_NO_OP, the atomic read) costs the same and modifies nothing:
        see :func:`repro.mem.atomic.prepare_stream`.
        """
        n, run = prepare_stream(cells, base_idx, op, operands)
        if n == 0:
            raise SimulationError("empty AMO stream")
        handle, wait = yield from self._amo(
            target_rank, "amo-stream", f"amo-stream:{op}", 8 * n, run, fetch,
            on_applied, stream=n)
        if wait > 0:
            yield wait
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
            yield delta
        return handle.result

    def wait_local(self, handle: DmappHandle):
        delta = handle.local_complete - self.env.now
        if delta > 0:
            yield delta

    def gsync(self):
        """Bulk remote completion of everything this endpoint issued."""
        delta = self._horizon - self.env.now
        if delta > 0:
            yield delta

    @property
    def completion_horizon(self) -> int:
        return self._horizon
