"""MPI-1 KV comparator: request/reply active messages (fig7a-style).

The two-sided baseline for the serving benchmark: every remote operation
sends a request to the owner, which must *actively receive* it, apply it
to a local dict, and send the reply -- the receiver involvement the RMA
store eliminates.  Clients keep at most one request outstanding, so any
``TAG_REP`` belongs to the current request; while waiting for a reply
(or pacing the open loop), incoming requests are served inline.

Termination mirrors :mod:`repro.apps.hashtable.mpi1_ht`: a rank's DONE
fan-out follows all its requests on the same channel (non-overtaking),
and its requests complete (reply received) before DONE is sent, so after
``nranks - 1`` DONEs no request can still be in flight.
"""

from __future__ import annotations

import numpy as np

from repro.apps.hashtable.common import DEFAULT_TABLE_SLOTS, place_key
from repro.serve.zipf import OP_GET, OP_PUT, ServeSpec, client_schedule

__all__ = ["mpi1_kv_program"]

_MASK63 = (1 << 63) - 1
_TAG_REQ = 1
_TAG_REP = 2
_TAG_DONE = 3
_HANDLER_NS = 60     # owner-side handler cost per served request
_IDLE_POLL_NS = 400  # unexpected-queue poll backoff while pacing


def apply_local(store: dict, op: int, key: int, value: int) -> int:
    """Owner-side handler; semantics match :class:`KvStore` exactly."""
    if op == OP_GET:
        return store.get(key, 0)
    if op == OP_PUT:
        store[key] = value & _MASK63
        return 0
    # UPDATE: add to the current value, or insert the delta if absent
    # (the RMA store's CAS-update semantics).
    store[key] = (store[key] + value) & _MASK63 if key in store \
        else value & _MASK63
    return store[key]


def mpi1_kv_program(ctx, spec: ServeSpec):
    """One rank of the MPI-1 serving phase.

    Returns ``(lat, contents)`` shaped like
    :func:`repro.serve.driver.kv_serve_program`'s result (1-based store
    keys), so the two backends' final states are directly comparable.
    """
    from repro.serve.driver import initial_value

    rank, nranks = ctx.rank, ctx.nranks
    # Every key's owner in one pass (store key = schedule key + 1).
    owners = place_key(np.arange(1, spec.nkeys + 1, dtype=np.uint64),
                       nranks, DEFAULT_TABLE_SLOTS)[0].tolist()
    # Owner-side preload: the dict IS the partition, so each owner just
    # installs its keys (as the RMA variant does through its local view).
    store = {key + 1: initial_value(spec.seed, key)
             for key, owner in enumerate(owners) if owner == rank}
    yield from ctx.coll.barrier()

    pending = []
    done_seen = 0

    def serve(payload):
        op, key, value, src = payload
        yield _HANDLER_NS
        result = apply_local(store, op, key + 1, value)
        req = yield from ctx.mpi.isend(src, result, tag=_TAG_REP,
                                       channel="kv", nbytes=8)
        pending.append(req)

    sched = client_schedule(spec, rank, nranks)
    lat = np.zeros((len(sched), 3), dtype=np.int64)
    env = ctx.env
    improbe = ctx.mpi.improbe
    unexpected = ctx.mpi.queue.unexpected
    t0 = env.now
    obs = ctx.obs
    for i, row in enumerate(sched):
        # Row by row: whole-schedule lists held ~1 MB at 6,400 requests.
        t_rel, op, key, value = row.tolist()
        t_arr = t0 + t_rel
        # The pacing poll is most of this program's events, so an idle
        # one makes no call: it probes only a nonempty queue.
        while env.now < t_arr:
            msg = improbe(channel="kv") if unexpected else None
            if msg is None:
                # A bounded sleep toward a scheduled arrival always
                # terminates: tell the watchdog (``note_progress``,
                # inlined), or many idle pollers between sparse arrivals
                # look like a livelock.
                env.progress_marks += 1
                wait = t_arr - env.now
                yield wait if wait < _IDLE_POLL_NS else _IDLE_POLL_NS
            else:
                payload = yield from ctx.mpi.mrecv(msg)
                if msg.tag == _TAG_DONE:
                    done_seen += 1
                elif msg.tag == _TAG_REQ:
                    yield from serve(payload)
        owner = owners[key]
        if owner == rank:
            yield _HANDLER_NS
            apply_local(store, op, key + 1, value)
        else:
            req = yield from ctx.mpi.isend(owner, (op, key, value, rank),
                                           tag=_TAG_REQ, channel="kv",
                                           nbytes=32)
            pending.append(req)
            while True:
                rreq = ctx.mpi.irecv(channel="kv")
                payload = yield from rreq.wait()
                tag = rreq.message.tag
                if tag == _TAG_REP:
                    break
                if tag == _TAG_DONE:
                    done_seen += 1
                else:
                    yield from serve(payload)
        done = ctx.now
        lat[i] = (t_arr, done, op)
        if obs is not None:
            obs.metrics.observe("kv.latency_ns", rank, done - t_arr)

    for req in pending:
        yield from req.wait()
    pending.clear()
    for other in range(nranks):
        if other != rank:
            yield from ctx.mpi.isend(other, None, tag=_TAG_DONE,
                                     channel="kv", nbytes=0)
    while done_seen < nranks - 1:
        rreq = ctx.mpi.irecv(channel="kv")
        payload = yield from rreq.wait()
        if rreq.message.tag == _TAG_DONE:
            done_seen += 1
        elif rreq.message.tag == _TAG_REQ:
            yield from serve(payload)
    for req in pending:
        yield from req.wait()
    yield from ctx.coll.barrier()
    return lat, dict(store)
