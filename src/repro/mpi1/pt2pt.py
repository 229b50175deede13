"""Point-to-point messaging: eager and rendezvous protocols over the
simulated machine.

Protocol summary (paper Section 1's "fast message passing libraries over
RDMA usually require different protocols"):

* **eager** (size <= threshold): data travels immediately; the receiver
  pays matching overhead plus an extra bounce-buffer copy.
* **rendezvous** (large, and all synchronous sends): the sender announces
  with an RTS header; when the receiver matches, it returns a CTS; the
  sender's NIC then moves the data zero-copy.  The handshake adds latency
  and couples the sender to the receiver's arrival -- the overhead the
  paper's one-sided protocols avoid.
* **sync-eager** (small synchronous sends, used by the NBX/DSDE protocol):
  the payload rides along with the RTS and the receiver's match is
  acknowledged back to the sender, which completes only then.

Small-message *intra-node* transfers bypass the NIC and use the XPMEM cost
model, matching the intra/inter knees in the application figures.

Host cost per message (DESIGN.md section 8, "Issue path" and "Delivery
path"): every CPU charge that depends on no message is a whole number of
ns made once per endpoint; the call site left for deadlock reports is an
unformatted ``(format, *args)`` tuple; a message's arrival handler is its
delivery's ``env.call_at`` callback (``partial(peer._on_arrival, msg)``);
a :class:`Request` is a completion flag that makes an event only for a
process that blocks on it; and a blocking call does not enter
``Request.wait`` for a send that completed at issue.
``isend``, ``send``, ``issend``, ``recv``, ``mrecv``, ``sendrecv`` and
``Request.wait`` stay generator functions looked up on the class at every
call: the benchmark's tracer patches them there.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import numpy as np

from repro.errors import Mpi1Error, NodeCrashedError
from repro.machine.network import Network
from repro.machine.params import XpmemParams
from repro.mpi1.matching import (
    ANY_SOURCE,
    ANY_TAG,
    MatchQueue,
    Message,
    PostedRecv,
)
from repro.mpi1.params import Mpi1Params

__all__ = ["Mpi1Endpoint", "Request", "ANY_SOURCE", "ANY_TAG", "wire_size"]


def wire_size(payload: Any) -> int:
    """Default on-wire size estimate for a Python payload."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, (tuple, list)):
        return 8 + sum(wire_size(x) for x in payload)
    if isinstance(payload, dict):
        return 8 + sum(8 + wire_size(v) for v in payload.values())
    return 64


class Request:
    """Completion handle for isend/irecv: a flag, and an event only for a
    process that blocks on it.

    ``done`` is set by the match (receives) or by the protocol's last leg
    (rendezvous and synchronous sends).  :meth:`wait` makes the request's
    event -- named ``req-send`` / ``req-recv``, which is what a deadlock
    report shows -- only when it has to block, and completion succeeds
    the event only while a process waits on it: a request nobody blocks
    on schedules nothing.  An eager send is complete at issue and gets its
    endpoint's one shared, completed request.
    """

    __slots__ = ("endpoint", "name", "done", "_event", "_payload",
                 "_recv_cost", "message")

    def __init__(self, endpoint: "Mpi1Endpoint", name: str) -> None:
        self.endpoint = endpoint
        self.name = name
        self.done = False
        self._event = None
        self._payload: Any = None
        self._recv_cost = 0     # set by the match; sends never carry one
        self.message: Message | None = None

    def test(self) -> bool:
        """Nonblocking completion check (no cost model: a flag test)."""
        return self.done

    def wait(self):
        """Block until complete; returns the payload for receives."""
        if not self.done:
            ev = self._event
            if ev is None:
                ev = self._event = self.endpoint.env.event(self.name)
            yield ev
        if self._recv_cost:
            cost, self._recv_cost = self._recv_cost, 0
            yield cost
        return self._payload

    def _complete(self) -> None:
        """Mark complete; wake the process blocked in :meth:`wait`, if
        one still is."""
        self.done = True
        ev = self._event
        if ev is not None and ev.callbacks:
            ev.succeed()


class Mpi1Endpoint:
    """One rank's two-sided messaging engine."""

    # Rollback-recovery runtime (repro.ft), assigned by RankContext for
    # FT runs.  Two-sided traffic is NOT logged/replayed -- messages in a
    # dead rank's unexpected queue die with it -- so FT merely holds
    # sends addressed to a recoverable rank until its restart instead of
    # failing them.  Crashes must not overlap two-sided phases (documented
    # V1 limitation; the FT workloads only use collectives during setup).
    ft = None
    # Memory-model checker (repro.check), assigned by RankContext when
    # checking is enabled.  Send/recv match points are happens-before
    # edges: the sender deposits its vector clock on the Message at
    # isend, the receiver acquires it when the match completes -- so
    # mixed two-sided/one-sided programs that order RMA accesses with
    # messages do not report false races (same None-when-disabled
    # zero-cost contract as every other protocol hook).
    checker = None

    def __init__(
        self,
        env,
        rank: int,
        network: Network,
        rank_map,
        params: Mpi1Params | None = None,
        xpmem_params: XpmemParams | None = None,
        registry: dict[int, "Mpi1Endpoint"] | None = None,
    ) -> None:
        self.env = env
        self.rank = rank
        self.network = network
        self.rank_map = rank_map
        self.node = rank_map.node_of(rank)
        self.params = p = params or Mpi1Params()
        self.xpmem = xpmem_params or XpmemParams()
        self.registry = registry if registry is not None else {}
        self.registry[rank] = self
        self.queue = MatchQueue()
        self._site_key = f"rank{rank}"
        # Per-message CPU charges that depend on no message: whole ns,
        # made once (the per-size ones are rounded where they are used).
        self._o_send = int(round(p.o_send))
        self._o_issue = int(round(p.o_issue))
        self._o_inject_issue = int(round(network.params.o_inject + p.o_issue))
        self._o_recv_match = int(round(p.o_recv_match))
        self._rndv_handshake = int(round(p.rndv_handshake))
        self._xpmem_latency = int(round(self.xpmem.latency))
        # Every eager send's request: complete at issue, never waited on.
        self._sent = Request(self, "req-send")
        self._sent.done = True

    # ------------------------------------------------------------------
    # transport helpers
    # ------------------------------------------------------------------
    def _quarantine_check(self, peer_rank: int, op: str) -> None:
        """Fail fast on communication with a crashed node (graceful
        degradation: a structured error instead of a hang)."""
        inj = self.network.injector
        if inj is None or peer_rank == ANY_SOURCE:
            return
        pnode = self.rank_map.node_of(peer_rank)
        if inj.node_crashed(pnode, self.env.now):
            raise NodeCrashedError(
                pnode, inj.crash_time(pnode),
                f"{op} between rank {self.rank} and rank {peer_rank} "
                f"refused (node quarantined)")

    def _ship(self, dest: int, nbytes: int, deliver_cb) -> int:
        """Move ``nbytes`` to rank ``dest``; ``deliver_cb()`` runs on
        arrival.

        Returns until when the sending CPU is busy (descriptor work plus
        FIFO backpressure -- this bounds the MPI-1 message rate of Figure
        5b).  Uses the network inter-node and the XPMEM cost model
        intra-node.
        """
        env = self.env
        now = env.now
        dnode = self.rank_map.node_of(dest)
        if dnode == self.node:
            copy = round(self.xpmem.store_setup
                         + nbytes * self.xpmem.copy_per_byte)
            env.call_at(copy + self._xpmem_latency, deliver_cb)
            self.network.counters.count_issue(self.rank, "mpi1-intra", nbytes)
            return now + copy + self._o_issue
        total = nbytes + self.params.header_bytes
        net = self.network
        window = net.occupy_injection(self.node, total)
        # reliable=True enables link-level recovery when a fault injector
        # is installed: the source NIC retransmits lost/corrupted packets
        # with seeded backoff until delivery (a no-op on clean fabrics).
        net.packet(self.node, dnode, total, inject_window=window,
                   on_deliver=deliver_cb, reliable=True)
        net.counters.count_issue(self.rank, "mpi1-inter", nbytes)
        if total > net.params.fma_threshold:    # FMA ops never queue
            now = max(now, net.injection_admit(self.node, window[1], total))
        return now + self._o_inject_issue

    # ------------------------------------------------------------------
    # sends
    # ------------------------------------------------------------------
    def isend(self, dest: int, payload: Any, tag: int = 0,
              channel: str = "user", nbytes: int | None = None,
              sync: bool = False):
        """Nonblocking send; generator returning a :class:`Request`."""
        n = wire_size(payload) if nbytes is None else int(nbytes)
        # A crashed peer fails the send at issue; an FT run instead holds
        # it until the peer is restored, then checks again.
        while self.network.injector is not None:
            try:
                self._quarantine_check(dest, "send")
                break
            except NodeCrashedError as exc:
                if self.ft is None:
                    raise
                yield from self.ft.pause_for_restore(self.rank, dest, exc)
        env = self.env
        env.api_sites[self._site_key] = (
            "mpi.isend(dest=%s, tag=%s, %sB)", dest, tag, n)
        yield self._o_send
        # Capture the send buffer at issue time (MPI send-buffer semantics).
        data = payload.copy() if isinstance(payload, np.ndarray) else payload
        msg = Message(self.rank, channel, tag, data, n, "eager")
        if self.checker is not None:
            msg.clock = self.checker.msg_send(self.rank)
        try:
            arrive = partial(self.registry[dest]._on_arrival, msg)
        except KeyError:
            raise Mpi1Error(f"no such rank {dest}") from None

        eager_threshold = self.params.eager_threshold
        if sync or n > eager_threshold:
            req = Request(self, "req-send")
            msg.kind = "rts"
            msg.sender_state = st = {
                "req": req, "sync_eager": sync and n <= eager_threshold,
                "endpoint": self, "dest": dest,
            }
            header = self.params.header_bytes
            if st["sync_eager"]:
                # payload rides with the RTS; sender completes on match-ack
                cpu_free = self._ship(dest, n + header, arrive)
            else:
                # data moves only after CTS; "data" stays in the sender
                # state until it has arrived
                st["data"] = data
                msg.payload = None
                cpu_free = self._ship(dest, header, arrive)
        else:
            req = self._sent
            cpu_free = self._ship(dest, n, arrive)
        wait = cpu_free - env.now
        if wait > 0:
            yield wait
        return req

    def send(self, dest: int, payload: Any, tag: int = 0,
             channel: str = "user", nbytes: int | None = None):
        """Blocking standard send."""
        req = yield from self.isend(dest, payload, tag, channel, nbytes)
        if not req.done:     # eager: complete at issue
            yield from req.wait()

    def issend(self, dest: int, payload: Any, tag: int = 0,
               channel: str = "user", nbytes: int | None = None):
        """Nonblocking synchronous send (completes only once matched) --
        the primitive the NBX dynamic-sparse-data-exchange needs."""
        return (yield from self.isend(dest, payload, tag, channel, nbytes,
                                      sync=True))

    # ------------------------------------------------------------------
    # receives
    # ------------------------------------------------------------------
    def irecv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
              channel: str = "user") -> Request:
        """Nonblocking receive (plain function -- posting is instant; the
        matching cost is charged when the request completes)."""
        req = Request(self, "req-recv")
        posted = PostedRecv(src, channel, tag, req)
        msg = self.queue.post(posted)
        if msg is not None:
            if msg.kind == "rts":
                if msg.sender_state.get("sync_eager"):
                    self._ack_sync(msg)
                    self._complete_recv(req, msg)
                else:
                    self._send_cts_for(msg, posted)
            else:
                self._complete_recv(req, msg)
        return req

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
             channel: str = "user"):
        """Blocking receive; returns the payload."""
        if self.network.injector is not None:
            self._quarantine_check(src, "recv")
        self.env.api_sites[self._site_key] = (
            "mpi.recv(src=%s, tag=%s)",
            "ANY" if src == ANY_SOURCE else src,
            "ANY" if tag == ANY_TAG else tag)
        return (yield from self.irecv(src, tag, channel).wait())

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
               channel: str = "user") -> Message | None:
        """Check the unexpected queue without receiving."""
        return self.queue.probe(src, channel, tag)

    def improbe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
                channel: str = "user") -> Message | None:
        """Match-and-extract from the unexpected queue; pair with mrecv."""
        if not self.queue.unexpected:
            return None     # the idle poll: nothing arrived
        msg = self.queue.extract(src, channel, tag)
        if msg is not None and msg.kind == "rts":
            if msg.sender_state.get("sync_eager"):
                # Payload rode along with the RTS; ack the match so the
                # synchronous sender can complete.
                self._ack_sync(msg)
            else:
                # An extracted rendezvous message still needs its data.
                self._send_cts_for(msg)
        return msg

    def mrecv(self, msg: Message):
        """Receive a message previously extracted by improbe."""
        req = Request(self, "req-recv")
        if msg.kind == "eager" or "data" not in msg.sender_state:
            # Eager, sync-eager (the payload rode with the RTS, whatever
            # it is), or a rendezvous whose data has already landed.
            self._complete_recv(req, msg)
        else:
            msg.sender_state["recv_req"] = req
        return (yield from req.wait())

    # ------------------------------------------------------------------
    # engine internals (run from delivery callbacks)
    # ------------------------------------------------------------------
    def _on_arrival(self, msg: Message) -> None:
        """``partial(peer._on_arrival, msg)`` is the delivery callback of
        the packet (or intra-node copy) that carries ``msg``."""
        # Every message arrival is forward progress (it happens once per
        # message -- unlike retry loops, it cannot recur in a livelock).
        self.env.note_progress()
        recv = self.queue.arrive(msg)
        if recv is None:
            return      # unexpected: handled when a matching recv is posted
        if msg.kind == "rts":
            if msg.sender_state.get("sync_eager"):
                # ack the match back to the sender
                self._ack_sync(msg)
                self._complete_recv(recv.req, msg)
            else:
                self._send_cts_for(msg, recv)
        else:
            self._complete_recv(recv.req, msg)

    def _complete_recv(self, req: Request, msg: Message) -> None:
        # A successful match is forward progress for the livelock watchdog.
        self.env.note_progress()
        if self.checker is not None:
            self.checker.msg_recv(self.rank, msg.clock)
        req._payload = msg.payload
        if msg.kind == "eager":
            p = self.params
            req._recv_cost = round(
                p.o_recv_match + msg.nbytes * p.eager_copy_per_byte)
        else:
            req._recv_cost = self._o_recv_match
        req.message = msg
        # Request._complete, inlined: this runs once per receive.
        req.done = True
        ev = req._event
        if ev is not None and ev.callbacks:
            ev.succeed()

    def _ack_sync(self, msg: Message) -> None:
        self._ship(msg.src, 0, msg.sender_state["req"]._complete)

    def _send_cts_for(self, msg: Message, recv: PostedRecv | None = None) -> None:
        """Receiver side of rendezvous: CTS back, then data comes over."""
        st = msg.sender_state
        sender: Mpi1Endpoint = st["endpoint"]

        def _on_data() -> None:
            msg.payload = st.pop("data")
            st["req"]._complete()
            target_req = st.get("recv_req") or (recv.req if recv else None)
            if target_req is not None:
                self._complete_recv(target_req, msg)

        def _on_cts() -> None:
            # The sender NIC moves the data without CPU involvement.
            sender._ship(self.rank, msg.nbytes, _on_data)

        # CTS header: receiver -> sender, plus software handshake latency.
        self.env.call_at(self._rndv_handshake, lambda: self._ship(
            sender.rank, self.params.header_bytes, _on_cts))

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def sendrecv(self, dest: int, payload: Any, src: int = ANY_SOURCE,
                 tag: int = 0, channel: str = "user",
                 nbytes: int | None = None):
        sreq = yield from self.isend(dest, payload, tag, channel, nbytes)
        got = yield from self.irecv(src, tag, channel).wait()
        if not sreq.done:    # eager: complete at issue
            yield from sreq.wait()
        return got
