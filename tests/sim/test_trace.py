"""Span log and operation counters."""

from repro.machine.network import OpCounters
from repro.obs.core import SpanLog, SpanRecord


def test_span_log_add_and_instant():
    log = SpanLog()
    log.add("rank", 3, "lock.hold", "lock", 100, 250,
            args={"target": 1, "attempt": 2})
    log.add("nic", 0, "pkt", "nic", 400, 400)
    assert len(log) == 2
    span, mark = log.spans
    assert span == SpanRecord("rank", 3, "lock.hold", "lock", 100, 150,
                              (("attempt", 2), ("target", 1)))
    assert span.end_ns() == 250
    assert mark.dur_ns == 0 and mark.start_ns == 400


def test_span_log_clamps_negative_duration():
    log = SpanLog()
    log.add("rank", 0, "x", "c", 500, 400)
    assert log.spans[0].dur_ns == 0


def test_span_log_limit():
    log = SpanLog(limit=3)
    for i in range(10):
        log.add("rank", 0, f"s{i}", "c", i, i + 1)
    assert len(log) == 3
    assert log.dropped == 7
    assert [s.name for s in log.spans] == ["s0", "s1", "s2"]


def test_op_counters():
    c = OpCounters()
    c.count_issue(0, "put", 64)
    c.count_issue(0, "put", 64)
    c.count_issue(1, "get", 8)
    c.add_control_memory(0, 70)
    c.add_control_memory(1, 5)
    assert c.messages == 3
    assert c.bytes_moved == 136
    assert c.max_remote_ops() == 2
    assert c.max_control_memory() == 70
    snap = c.snapshot()
    assert snap["by_kind"] == {"put": 2, "get": 1}


def test_op_counters_empty():
    c = OpCounters()
    assert c.max_remote_ops() == 0
    assert c.max_control_memory() == 0
