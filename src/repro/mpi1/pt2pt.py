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
"""

from __future__ import annotations

import itertools
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


def _freeze(payload: Any) -> Any:
    """Capture send buffers at issue time (MPI send-buffer semantics)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return payload


class Request:
    """Completion handle for isend/irecv."""

    __slots__ = ("endpoint", "kind", "event", "_payload", "_recv_cost", "message")

    def __init__(self, endpoint: "Mpi1Endpoint", kind: str) -> None:
        self.endpoint = endpoint
        self.kind = kind
        self.event = endpoint.env.event(name=f"req-{kind}")
        self._payload: Any = None
        self._recv_cost = 0
        self.message: Message | None = None

    def test(self) -> bool:
        """Nonblocking completion check (no cost model: a flag test)."""
        return self.event.triggered

    def wait(self):
        """Block until complete; returns the payload for receives."""
        if not self.event.triggered:
            yield self.event
        if self.kind == "recv" and self._recv_cost:
            cost, self._recv_cost = self._recv_cost, 0
            yield self.endpoint.env.timeout(cost)
        return self._payload


class Mpi1Endpoint:
    """One rank's two-sided messaging engine."""

    _seq = itertools.count(1)
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
        self.params = params or Mpi1Params()
        self.xpmem = xpmem_params or XpmemParams()
        self.registry = registry if registry is not None else {}
        self.registry[rank] = self
        self.queue = MatchQueue()

    # ------------------------------------------------------------------
    # transport helpers
    # ------------------------------------------------------------------
    def _peer(self, rank: int) -> "Mpi1Endpoint":
        try:
            return self.registry[rank]
        except KeyError:
            raise Mpi1Error(f"no such rank {rank}") from None

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

    def _ship(self, dest: int, nbytes: int, deliver_cb) -> tuple[int, int]:
        """Move ``nbytes`` to rank ``dest``; run ``deliver_cb(event)`` on arrival.

        Returns ``(local_complete, cpu_free)``: when the buffer is
        reusable and until when the sending CPU is busy (descriptor work
        plus FIFO backpressure -- this bounds the MPI-1 message rate of
        Figure 5b).  Uses the network inter-node and the XPMEM cost model
        intra-node.
        """
        env = self.env
        p = self.params
        dnode = self.rank_map.node_of(dest)
        if dnode == self.node:
            copy = int(round(self.xpmem.store_setup
                             + nbytes * self.xpmem.copy_per_byte))
            arrival = env.now + copy + int(round(self.xpmem.latency))
            ev = env.event(name="intra-msg")
            ev.callbacks.append(deliver_cb)
            ev.succeed(arrival, delay=arrival - env.now)
            self.network.counters.count_issue(self.rank, "mpi1-intra", nbytes)
            cpu_free = env.now + copy + int(round(p.o_issue))
            return cpu_free, cpu_free
        total = nbytes + p.header_bytes
        net = self.network
        inj_start, inj_end = net.occupy_injection(self.node, total)
        # reliable=True enables link-level recovery when a fault injector
        # is installed: the source NIC retransmits lost/corrupted packets
        # with seeded backoff until delivery (a no-op on clean fabrics).
        net.packet(self.node, dnode, total,
                   inject_window=(inj_start, inj_end),
                   on_deliver=deliver_cb, reliable=True)
        net.counters.count_issue(self.rank, "mpi1-inter", nbytes)
        admit = net.injection_admit(self.node, inj_end, total)
        cpu_free = max(env.now, admit) + int(round(
            net.params.o_inject + p.o_issue))
        return inj_end, cpu_free

    # ------------------------------------------------------------------
    # sends
    # ------------------------------------------------------------------
    def isend(self, dest: int, payload: Any, tag: int = 0,
              channel: str = "user", nbytes: int | None = None,
              sync: bool = False):
        """Nonblocking send; generator returning a :class:`Request`."""
        n = wire_size(payload) if nbytes is None else int(nbytes)
        if self.ft is None:
            self._quarantine_check(dest, "send")
        else:
            while True:
                try:
                    self._quarantine_check(dest, "send")
                    break
                except NodeCrashedError as exc:
                    yield from self.ft.pause_for_restore(self.rank, dest, exc)
        self.env.api_sites[f"rank{self.rank}"] = (
            f"mpi.isend(dest={dest}, tag={tag}, {n}B)")
        req = Request(self, "send")
        yield self.env.timeout(int(round(self.params.o_send)))
        data = _freeze(payload)
        msg = Message(self.rank, channel, tag, data, n, "eager",
                      seq=next(self._seq))
        if self.checker is not None:
            msg.clock = self.checker.msg_send(self.rank)
        peer = self._peer(dest)

        if sync or n > self.params.eager_threshold:
            msg.kind = "rts"
            msg.sender_state = {
                "req": req, "sync_eager": sync and n <= self.params.eager_threshold,
                "endpoint": self, "dest": dest,
            }
            if msg.sender_state["sync_eager"]:
                # payload rides with the RTS; sender completes on match-ack
                _done, cpu_free = self._ship(
                    dest, n + self.params.header_bytes,
                    lambda _t, m=msg, p=peer: p._on_arrival(m))
            else:
                msg.sender_state["data"] = data
                msg.payload = None  # data moves only after CTS
                _done, cpu_free = self._ship(
                    dest, self.params.header_bytes,
                    lambda _t, m=msg, p=peer: p._on_arrival(m))
        else:
            local_done, cpu_free = self._ship(
                dest, n, lambda _t, m=msg, p=peer: p._on_arrival(m))
            req.event.succeed(delay=max(0, local_done - self.env.now))
        wait = cpu_free - self.env.now
        if wait > 0:
            yield self.env.timeout(wait)
        return req

    def send(self, dest: int, payload: Any, tag: int = 0,
             channel: str = "user", nbytes: int | None = None):
        """Blocking standard send."""
        req = yield from self.isend(dest, payload, tag, channel, nbytes)
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
        req = Request(self, "recv")
        posted = PostedRecv(src, channel, tag, event=req)
        msg = self.queue.post(posted)
        if msg is not None:
            if msg.kind == "rts":
                if msg.sender_state.get("sync_eager"):
                    self._ack_sync(msg)
                    self._complete_recv(req, msg)
                else:
                    posted.event = req
                    self._send_cts_for(msg, posted)
            else:
                self._complete_recv(req, msg)
        return req

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
             channel: str = "user"):
        """Blocking receive; returns the payload."""
        self._quarantine_check(src, "recv")
        self.env.api_sites[f"rank{self.rank}"] = (
            f"mpi.recv(src={'ANY' if src == ANY_SOURCE else src}, "
            f"tag={'ANY' if tag == ANY_TAG else tag})")
        req = self.irecv(src, tag, channel)
        return (yield from req.wait())

    def iprobe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
               channel: str = "user") -> Message | None:
        """Check the unexpected queue without receiving."""
        return self.queue.probe(src, channel, tag)

    def improbe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
                channel: str = "user") -> Message | None:
        """Match-and-extract from the unexpected queue; pair with mrecv."""
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
        req = Request(self, "recv")
        if msg.kind == "eager" or msg.payload is not None:
            self._complete_recv(req, msg)
        else:
            msg.sender_state["recv_req"] = req
        return (yield from req.wait())

    # ------------------------------------------------------------------
    # engine internals (run from delivery callbacks)
    # ------------------------------------------------------------------
    def _on_arrival(self, msg: Message) -> None:
        # Every message arrival is forward progress (it happens once per
        # message -- unlike retry loops, it cannot recur in a livelock).
        self.env.note_progress()
        recv = self.queue.arrive(msg)
        if msg.kind == "rts":
            if msg.sender_state.get("sync_eager"):
                # ack the match back to the sender when matched
                if recv is not None:
                    self._ack_sync(msg)
                    self._complete_recv(recv.event, msg)
                # else: acked when a matching recv is posted (in post path)
            elif recv is not None:
                self._send_cts_for(msg, recv)
        else:
            if recv is not None:
                self._complete_recv(recv.event, msg)

    def _complete_recv(self, req: Request, msg: Message) -> None:
        # A successful match is forward progress for the livelock watchdog.
        self.env.note_progress()
        if self.checker is not None:
            self.checker.msg_recv(self.rank, msg.clock)
        p = self.params
        cost = p.o_recv_match
        if msg.kind == "eager":
            cost += msg.nbytes * p.eager_copy_per_byte
        req._payload = msg.payload
        req._recv_cost = int(round(cost))
        req.message = msg
        if msg.kind == "rts" and msg.sender_state.get("sync_eager"):
            pass  # ack handled by caller
        if not req.event.triggered:
            req.event.succeed(msg)

    def _ack_sync(self, msg: Message) -> None:
        st = msg.sender_state
        sender: Mpi1Endpoint = st["endpoint"]
        sreq: Request = st["req"]

        def _fire(_t):
            if not sreq.event.triggered:
                sreq.event.succeed()

        self._ship(sender.rank, 0, lambda t: _fire(t))

    def _send_cts_for(self, msg: Message, recv: PostedRecv | None = None) -> None:
        """Receiver side of rendezvous: CTS back, then data comes over."""
        st = msg.sender_state
        sender: Mpi1Endpoint = st["endpoint"]

        def _on_cts(_t) -> None:
            data = st["data"]

            def _on_data(_t2) -> None:
                msg.payload = data
                sreq: Request = st["req"]
                if not sreq.event.triggered:
                    sreq.event.succeed()
                target_req = st.get("recv_req") or (recv.event if recv else None)
                if target_req is not None:
                    self._complete_recv(target_req, msg)

            # The sender NIC moves the data without CPU involvement.
            sender._ship(self.rank, msg.nbytes, _on_data)

        extra = int(round(self.params.rndv_handshake))

        def _delayed_cts(_t) -> None:
            _on_cts(_t)

        # CTS header: receiver -> sender, plus software handshake latency.
        ev = self.env.event(name="cts-delay")
        ev.callbacks.append(lambda _e: self._ship(
            sender.rank, self.params.header_bytes, _delayed_cts))
        ev.succeed(delay=extra)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def sendrecv(self, dest: int, payload: Any, src: int = ANY_SOURCE,
                 tag: int = 0, channel: str = "user",
                 nbytes: int | None = None):
        sreq = yield from self.isend(dest, payload, tag, channel, nbytes)
        rreq = self.irecv(src, tag, channel)
        got = yield from rreq.wait()
        yield from sreq.wait()
        return got
