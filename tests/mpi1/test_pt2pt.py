"""End-to-end point-to-point semantics over the simulated machine."""

from collections import Counter

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig
from repro.errors import Mpi1Error
from repro.mpi1.pt2pt import wire_size
from tests.conftest import idle_tracers

INTER = MachineConfig(ranks_per_node=1)


def test_wire_size_estimates():
    assert wire_size(None) == 0
    assert wire_size(np.zeros(10, np.int64)) == 80
    assert wire_size(b"abc") == 3
    assert wire_size(7) == 8
    assert wire_size(3.14) == 8
    assert wire_size([1, 2]) == 24
    assert wire_size({"a": 1}) == 24
    assert wire_size(object()) == 64


def test_send_to_unknown_rank():
    def program(ctx):
        if ctx.rank == 0:
            with pytest.raises(Mpi1Error):
                yield from ctx.mpi.send(7, None)
        yield from ctx.coll.barrier()

    run_spmd(program, 2, machine=INTER)


def test_message_order_preserved():
    """Non-overtaking: same (src, tag) arrives in send order."""
    def program(ctx):
        if ctx.rank == 0:
            for i in range(10):
                yield from ctx.mpi.send(1, i, tag=3)
            return None
        got = []
        for _ in range(10):
            got.append((yield from ctx.mpi.recv(0, tag=3)))
        return got

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1] == list(range(10))


def test_tags_demultiplex():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.mpi.send(1, "a", tag=1)
            yield from ctx.mpi.send(1, "b", tag=2)
            return None
        b = yield from ctx.mpi.recv(0, tag=2)
        a = yield from ctx.mpi.recv(0, tag=1)
        return (a, b)

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1] == ("a", "b")


def test_any_source_recv():
    def program(ctx):
        if ctx.rank == 0:
            got = set()
            for _ in range(2):
                got.add((yield from ctx.mpi.recv()))
            return sorted(got)
        yield from ctx.mpi.send(0, ctx.rank * 10)
        return None

    res = run_spmd(program, 3, machine=INTER)
    assert res.returns[0] == [10, 20]


def test_send_buffer_captured_at_send():
    """MPI send-buffer semantics: later writes don't leak into the message."""
    def program(ctx):
        if ctx.rank == 0:
            buf = np.full(8, 1, np.uint8)
            req = yield from ctx.mpi.isend(1, buf)
            buf[:] = 99  # modified after isend
            yield from req.wait()
            return None
        got = yield from ctx.mpi.recv(0)
        return got.tolist()

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1] == [1] * 8


def test_issend_completes_only_on_match():
    def program(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            req = yield from ctx.mpi.issend(1, "hello")
            yield from req.wait()
            return ctx.now - t0
        yield from ctx.compute(40_000)  # receiver is late
        got = yield from ctx.mpi.recv(0)
        assert got == "hello"
        return None

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] > 35_000  # sender waited for the match


def test_standard_eager_send_does_not_wait_for_recv():
    def program(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            yield from ctx.mpi.send(1, "x")
            sent_at = ctx.now - t0
            yield from ctx.coll.barrier()
            return sent_at
        yield from ctx.compute(50_000)
        yield from ctx.mpi.recv(0)
        yield from ctx.coll.barrier()
        return None

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] < 10_000


def test_rendezvous_data_integrity():
    n = 100_000  # above the eager threshold

    def program(ctx):
        if ctx.rank == 0:
            data = np.arange(n, dtype=np.uint8)
            yield from ctx.mpi.send(1, data)
            return None
        got = yield from ctx.mpi.recv(0)
        return int(got.sum())

    res = run_spmd(program, 2, machine=INTER)
    expected = int(np.arange(n, dtype=np.uint8).sum())
    assert res.returns[1] == expected


def test_rendezvous_waits_for_receiver():
    n = 100_000

    def program(ctx):
        if ctx.rank == 0:
            t0 = ctx.now
            req = yield from ctx.mpi.isend(1, np.zeros(n, np.uint8))
            yield from req.wait()
            return ctx.now - t0
        yield from ctx.compute(60_000)
        yield from ctx.mpi.recv(0)
        return None

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] > 55_000


def test_iprobe_and_improbe_mrecv():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.mpi.send(1, "probe-me", tag=6)
            yield from ctx.coll.barrier()
            return None
        yield from ctx.compute(5_000)  # let the message land
        assert ctx.mpi.iprobe(tag=7) is None
        m = ctx.mpi.iprobe(tag=6)
        assert m is not None
        msg = ctx.mpi.improbe(tag=6)
        got = yield from ctx.mpi.mrecv(msg)
        assert ctx.mpi.iprobe(tag=6) is None  # consumed
        yield from ctx.coll.barrier()
        return got

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[1] == "probe-me"


def test_self_send():
    def program(ctx):
        req = yield from ctx.mpi.isend(ctx.rank, "self", tag=1)
        got = yield from ctx.mpi.recv(ctx.rank, tag=1)
        yield from req.wait()
        return got

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns == ["self", "self"]


def test_request_test_flag():
    def program(ctx):
        if ctx.rank == 0:
            req = ctx.mpi.irecv(1, tag=2)
            assert not req.test()
            yield from ctx.compute(20_000)
            assert req.test()
            return (yield from req.wait())
        yield from ctx.mpi.send(0, 123, tag=2)
        return None

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] == 123


def test_protocol_threshold_is_a_crossover():
    """A well-placed eager threshold means the protocols cost about the
    same right at the switch: the handshake's round trip buys back the
    eager bounce-buffer copy."""
    def timed(nbytes):
        def program(ctx):
            data = np.zeros(nbytes, np.uint8)
            if ctx.rank == 0:
                t0 = ctx.now
                yield from ctx.mpi.send(1, data)
                got = yield from ctx.mpi.recv(1)
                return (ctx.now - t0) / 2
            got = yield from ctx.mpi.recv(0)
            yield from ctx.mpi.send(0, got)
            return None

        return run_spmd(program, 2, machine=INTER).returns[0]

    below = timed(8000)   # eager side of the threshold
    above = timed(8500)   # rendezvous side
    assert abs(above - below) < 1500
    # far from the threshold the regimes differ visibly
    assert timed(64) < below - 1500       # tiny eager much cheaper
    assert timed(65536) > above + 5000    # large rendezvous bandwidth-bound


# ---------------------------------------------------------------------------
# requests: a completion flag, and an event only for a process that blocks
# ---------------------------------------------------------------------------
def _popped(program):
    """Run on the step loop; the names of every popped entry, and the
    idle ones (see ``tests.conftest.IdleTracer``)."""
    with idle_tracers(limit=10_000) as tracers:
        res = run_spmd(program, 2, machine=INTER)
    (tracer,) = tracers
    return res, Counter(name for _t, name in tracer.records), tracer.idle


_BARE_RANKS = Counter({"init:rank0": 1, "init:rank1": 1,
                       "rank0": 1, "rank1": 1})


def test_eager_isend_and_wait_schedule_only_their_cpu_sleeps():
    """An eager send is complete at issue: the request schedules nothing,
    and ``wait()`` makes no event.  What remains is the two CPU charges
    and the message's one delivery."""
    def program(ctx):
        if ctx.rank == 0:
            req = yield from ctx.mpi.isend(1, b"x")
            assert req.test()
            yield from req.wait()

    _res, popped, idle = _popped(program)
    assert popped == _BARE_RANKS + Counter({"sleep": 2, "call": 1})
    assert idle == {}


def test_receive_matched_at_post_schedules_only_its_receive_cost():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.mpi.send(1, 7)
            return None
        yield 50_000                    # the message is already queued
        req = ctx.mpi.irecv(0)
        assert req.test()
        return (yield from req.wait())

    res, popped, idle = _popped(program)
    assert res.returns[1] == 7
    # Sender: o_send + issue.  Receiver: the 50 us nap + the match cost.
    assert popped == _BARE_RANKS + Counter({"sleep": 4, "call": 1})
    assert idle == {}


def test_blocking_receive_is_woken_by_exactly_one_event():
    def program(ctx):
        if ctx.rank == 0:
            yield 10_000
            yield from ctx.mpi.send(1, "late")
            return None
        return (yield from ctx.mpi.recv(0))

    res, popped, idle = _popped(program)
    assert res.returns[1] == "late"
    assert popped["req-recv"] == 1 and "req-send" not in popped
    assert idle == {}


@pytest.mark.parametrize("kind", ["eager", "rendezvous", "sync"])
def test_send_request_test_before_and_after_completion(kind):
    """``test()`` is true at issue for an eager send only; rendezvous and
    synchronous sends complete once the late receiver matched."""
    payload = np.zeros(100_000, np.uint8) if kind == "rendezvous" else b"x"

    def program(ctx):
        if ctx.rank == 0:
            req = yield from ctx.mpi.isend(1, payload, sync=kind == "sync")
            before = req.test()
            yield from req.wait()
            return before, req.test()
        yield 20_000
        yield from ctx.mpi.recv(0)
        return None

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns[0] == (kind == "eager", True)


@pytest.mark.parametrize("payload,nbytes", [
    (None, None), (b"", None), (b"x", None), (None, 100_000)],
    ids=["sync-None", "sync-empty", "sync-x", "rendezvous-None"])
def test_mrecv_after_improbe_completes_whatever_the_payload(payload, nbytes):
    """``mrecv`` tells a message whose data is still to come from the
    protocol state, not from the payload: a zero-byte synchronous send
    (``None`` or ``b""``) and a rendezvous of ``None`` whose data has
    landed complete like any other."""
    def program(ctx):
        if ctx.rank == 0:
            req = yield from ctx.mpi.isend(1, payload, tag=5, nbytes=nbytes,
                                           sync=nbytes is None)
            yield from req.wait()
            return "sent"
        msg = None
        while msg is None:
            msg = ctx.mpi.improbe(tag=5)
            if msg is None:
                yield 100
        yield 50_000                    # a rendezvous' data lands meanwhile
        return (yield from ctx.mpi.mrecv(msg))

    res = run_spmd(program, 2, machine=INTER)
    assert res.returns == ["sent", payload]
