"""Vector-clock engine unit tests."""

from repro.check.vclock import VectorClock


def test_fresh_clock_owns_one_tick():
    c = VectorClock(3, 0)
    assert c[0] == 1
    assert c[1] == 0 and c[2] == 0
    assert len(c) == 3


def test_tick_advances_only_own_component():
    c = VectorClock(3, 1)
    c.tick(1)
    assert c[1] == 2
    assert c[0] == 0 and c[2] == 0


def test_copy_is_independent():
    c = VectorClock(2, 0)
    snap = c.copy()
    c.tick(0)
    assert snap[0] == 1
    assert c[0] == 2


def test_merge_is_componentwise_max():
    a = VectorClock(3, 0)
    b = VectorClock(3, 2)
    b.tick(2)
    a.merge(b)
    assert a.c == [1, 0, 2]


def test_own_component_defines_happens_before():
    """An access at ``a``'s tick is ordered before ``b`` once ``b``'s
    clock has caught up with that tick (``check.core._ordered``)."""
    a = VectorClock(2, 0)
    b = VectorClock(2, 1)
    # Concurrent: neither has seen the other's tick.
    assert a[0] > b[0] and b[1] > a[1]
    # After b acquires a's clock, a's tick is known to b, not vice versa.
    b.merge(a)
    b.tick(1)
    assert a[0] <= b[0] and b[1] > a[1]


def test_equality():
    a = VectorClock(2, 0)
    b = VectorClock(2, 0)
    assert a == b
    b.tick(0)
    assert a != b
    assert a != [1, 0]
