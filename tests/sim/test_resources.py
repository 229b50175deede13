"""BusyChannel."""

from repro.sim.resources import BusyChannel


def test_busy_channel_serializes(env):
    ch = BusyChannel(env)
    s1, e1 = ch.occupy(100)
    s2, e2 = ch.occupy(50)
    assert (s1, e1) == (0, 100)
    assert (s2, e2) == (100, 150)


def test_busy_channel_earliest(env):
    ch = BusyChannel(env)
    s, e = ch.occupy(10, earliest=500)
    assert (s, e) == (500, 510)
    # a later request with a lower earliest still queues after
    s2, e2 = ch.occupy(10, earliest=100)
    assert s2 == 510
