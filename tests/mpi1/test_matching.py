"""Pure matching-queue semantics."""

from repro.mpi1.matching import (
    ANY_SOURCE,
    ANY_TAG,
    MatchQueue,
    Message,
    PostedRecv,
)


def _msg(src=0, tag=0, channel="user", payload="x"):
    return Message(src, channel, tag, payload, 8, "eager")


def _recv(src=ANY_SOURCE, tag=ANY_TAG, channel="user"):
    return PostedRecv(src, channel, tag, req=object())


def test_post_then_arrive_matches():
    q = MatchQueue()
    r = _recv()
    assert q.post(r) is None
    assert q.arrive(_msg()) is r
    assert q.depth() == (0, 0)


def test_arrive_then_post_matches_unexpected():
    q = MatchQueue()
    m = _msg(tag=5)
    assert q.arrive(m) is None
    assert q.post(_recv(tag=5)) is m


def test_wildcards():
    q = MatchQueue()
    q.arrive(_msg(src=3, tag=9))
    assert q.post(_recv(src=ANY_SOURCE, tag=9)) is not None
    q.arrive(_msg(src=3, tag=9))
    assert q.post(_recv(src=3, tag=ANY_TAG)) is not None


def test_specific_mismatch_queues():
    q = MatchQueue()
    q.arrive(_msg(src=1, tag=1))
    assert q.post(_recv(src=2, tag=1)) is None  # wrong source
    assert q.depth() == (1, 1)


def test_channel_isolation():
    q = MatchQueue()
    q.arrive(_msg(channel="coll"))
    assert q.post(_recv(channel="user")) is None
    assert q.post(_recv(channel="coll")) is not None


def test_non_overtaking_same_source_tag():
    """Messages from one source with one tag match in arrival order."""
    q = MatchQueue()
    m1, m2 = _msg(payload="first"), _msg(payload="second")
    q.arrive(m1)
    q.arrive(m2)
    assert q.post(_recv()).payload == "first"
    assert q.post(_recv()).payload == "second"


def test_posted_receive_order():
    q = MatchQueue()
    r1, r2 = _recv(), _recv()
    q.post(r1)
    q.post(r2)
    assert q.arrive(_msg()) is r1
    assert q.arrive(_msg()) is r2


def test_probe_nondestructive():
    q = MatchQueue()
    m = _msg(tag=4)
    q.arrive(m)
    assert q.probe(ANY_SOURCE, "user", 4) is m
    assert q.probe(ANY_SOURCE, "user", 4) is m  # still there
    assert q.probe(ANY_SOURCE, "user", 5) is None


def test_extract_removes():
    q = MatchQueue()
    m = _msg(tag=4)
    q.arrive(m)
    assert q.extract(ANY_SOURCE, "user", 4) is m
    assert q.extract(ANY_SOURCE, "user", 4) is None
