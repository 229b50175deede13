"""The inlined fast run loop vs the step loop.

``Environment.run()`` with no tracer and no ``until`` takes the fast loop;
a tracer or an ``until`` takes the reference ``step()`` loop.  Both must
process the exact same event schedule -- same event count, same final
clock, same process return values -- while only the fast loop recycles
``yield env.timeout(d)`` objects.  These tests pin the bit-identity
contract and the recycling/detach invariants DESIGN.md documents; the
reference side selects the step loop by installing a ``Tracer``.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import URGENT, Environment, Timeout
from tests.conftest import make_env


def _mixed_workload(env, log):
    """Timeouts, bare events, conditions, priorities and interrupts."""

    def ticker(name, period, n):
        for i in range(n):
            yield env.timeout(period)
            log.append((env.now, name, i))

    def waiter(ev):
        got = yield ev
        log.append((env.now, "waiter", got))
        t1, t2 = env.timeout(5), env.timeout(50)
        first = yield env.any_of([t1, t2])
        log.append((env.now, "anyof", first))
        yield env.all_of([env.timeout(3), env.timeout(7)])
        log.append((env.now, "allof", None))

    def firer(ev):
        yield env.timeout(13)
        ev.succeed("payload", delay=2, priority=URGENT)
        log.append((env.now, "fired", None))

    ev = env.event("ev")
    env.process(ticker("a", 10, 8), name="a")
    env.process(ticker("b", 7, 8), name="b")
    env.process(waiter(ev), name="waiter")
    env.process(firer(ev), name="firer")


def _run(step_loop):
    env = make_env(step_loop)
    log = []
    _mixed_workload(env, log)
    env.run()
    return log, env.now, env.events_processed


def test_fast_matches_step_loop_bit_identical():
    assert _run(step_loop=False) == _run(step_loop=True)


def test_fast_matches_step_loop_with_failures():
    def build(env, log):
        def bad():
            yield env.timeout(5)
            raise ValueError("boom")

        def good():
            yield env.timeout(20)
            log.append(env.now)

        return [env.process(bad(), name="bad"),
                env.process(good(), name="good")]

    outcomes = []
    for step_loop in (False, True):
        env = make_env(step_loop, strict=False)
        log = []
        procs = build(env, log)
        env.run()
        outcomes.append((log, env.now, env.events_processed,
                         [(p.ok, type(p.value).__name__) for p in procs]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][3][0] == (False, "ValueError")


def test_timeouts_recycled_on_fast_path():
    env = Environment()

    def spin():
        for _ in range(100):
            yield env.timeout(1)

    env.process(spin(), name="spin")
    env.run()
    # The yield-timeout pattern must feed the freelist ...
    assert env._timeout_pool
    recycled = env._timeout_pool[-1]
    # ... and a later request must reuse an instance, fully reset (a
    # Timeout is scheduled -- hence triggered -- from birth, with no
    # callbacks until somebody yields it).
    t = env.timeout(4)
    assert t is recycled
    assert isinstance(t, Timeout)
    assert t.callbacks == []
    assert t.triggered and t._ok


def test_shared_timeout_not_recycled():
    """A timeout with more than the single process callback (here: also
    feeding an AllOf) must never enter the freelist."""
    env = Environment()

    def waiter():
        t = env.timeout(10)
        yield env.all_of([t, env.timeout(20)])

    env.process(waiter(), name="w")
    env.run()
    assert env._timeout_pool == []


def test_step_loop_never_recycles():
    """A tracer puts ``run()`` on the step loop, which records every
    event and feeds no freelist."""
    env = make_env(step_loop=True)

    def spin():
        for _ in range(5):
            yield env.timeout(2)

    env.process(spin(), name="spin")
    env.run()
    assert len(env.tracer.records) == env.events_processed
    assert env._timeout_pool == []


def test_anyof_detaches_loser_callbacks(env):
    winner = env.timeout(5)
    loser = env.timeout(500)

    def waiter():
        yield env.any_of([winner, loser])

    env.process(waiter(), name="w")
    env.run(until=100)
    # After the condition fired, the losing child must not keep a
    # reference to the condition's _on_fire (callback churn + leak).
    assert loser.callbacks == []


def test_condition_with_fired_children_detaches(env):
    done = env.event()
    done.succeed(1)
    pending = env.timeout(50)
    env.run(until=1)           # process `done`
    cond = env.any_of([done, pending])
    assert cond.triggered
    assert pending.callbacks == []


def test_max_events_backstop_on_fast_path():
    env = Environment(max_events=500)

    def forever():
        while True:
            yield env.timeout(1)

    env.process(forever(), name="loop")
    with pytest.raises(SimulationError, match="max_events"):
        env.run()
    assert env.events_processed >= 500


def test_run_until_takes_the_step_loop():
    """``until`` stops on the step loop: the clock lands on the stop time,
    only events due by then ran, and nothing was recycled."""
    env = Environment()
    log = []
    timeouts = []

    def spin():
        while True:
            timeouts.append(env.timeout(9))
            yield timeouts[-1]
            log.append(env.now)

    env.process(spin(), name="spin")
    env.run(until=100)
    assert log == list(range(9, 100, 9))
    assert env.now == 100
    assert env.events_processed == 1 + len(log)   # init + one per timeout
    assert len(set(map(id, timeouts))) == len(timeouts)
