"""Unit tests for the DES kernel."""

import numpy as np
import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.kernel import AllOf, AnyOf, Environment, Interrupt, Timeout
from tests.conftest import StepEnvironment, make_env


def test_clock_starts_at_zero(env):
    assert env.now == 0


def test_timeout_advances_clock(env):
    done = {}

    def prog():
        yield env.timeout(100)
        done["t"] = env.now

    env.process(prog())
    env.run()
    assert done["t"] == 100
    assert env.now == 100


def test_zero_delay_timeout(env):
    def prog():
        yield env.timeout(0)
        return env.now

    p = env.process(prog())
    env.run()
    assert p.value == 0


def test_negative_timeout_rejected(env):
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_succeed_with_a_bad_delay_leaves_the_event_pending(env):
    """The delay is checked before the event is marked triggered or
    pushed, so the caller can still succeed it properly."""
    ev = env.event("e")
    with pytest.raises(SimulationError, match="past"):
        ev.succeed(1, delay=-1)
    assert not ev.triggered and env._queue == []
    ev.succeed(2, delay=3)
    env.run()
    assert (ev.value, env.now) == (2, 3)


def test_process_return_value(env):
    def prog():
        yield env.timeout(5)
        return 42

    p = env.process(prog())
    env.run()
    assert p.value == 42


def test_sequential_timeouts_accumulate(env):
    def prog():
        yield env.timeout(10)
        yield env.timeout(20)
        yield env.timeout(30)
        return env.now

    p = env.process(prog())
    env.run()
    assert p.value == 60


def test_yield_from_subroutine(env):
    def sub():
        yield env.timeout(7)
        return "sub-result"

    def prog():
        val = yield from sub()
        return (val, env.now)

    p = env.process(prog())
    env.run()
    assert p.value == ("sub-result", 7)


def test_two_processes_interleave(env):
    order = []

    def a():
        yield env.timeout(10)
        order.append("a10")
        yield env.timeout(20)
        order.append("a30")

    def b():
        yield env.timeout(15)
        order.append("b15")
        yield env.timeout(20)
        order.append("b35")

    env.process(a())
    env.process(b())
    env.run()
    assert order == ["a10", "b15", "a30", "b35"]


def test_same_time_fifo_order(env):
    """Events at the same instant fire in scheduling order."""
    order = []

    def make(i):
        def prog():
            yield env.timeout(50)
            order.append(i)
        return prog

    for i in range(10):
        env.process(make(i)())
    env.run()
    assert order == list(range(10))


def test_event_succeed_wakes_waiter(env):
    ev = env.event()
    got = {}

    def waiter():
        val = yield ev
        got["val"] = val

    def firer():
        yield env.timeout(30)
        ev.succeed("payload")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got["val"] == "payload"


def test_event_double_trigger_rejected(env):
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter(env):
    ev = env.event()
    caught = {}

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught["exc"] = exc

    def firer():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    env.process(waiter())
    env.process(firer())
    env.run()
    assert isinstance(caught["exc"], ValueError)


def test_yield_already_processed_event_continues(env):
    ev = env.event()

    def prog():
        yield env.timeout(10)
        # ev fired at t=1; yielding it now must not block.
        val = yield ev
        return (val, env.now)

    def firer():
        yield env.timeout(1)
        ev.succeed("early")

    p = env.process(prog())
    env.process(firer())
    env.run()
    assert p.value == ("early", 10)


def test_wait_on_process(env):
    def child():
        yield env.timeout(25)
        return "child-val"

    def parent():
        c = env.process(child())
        val = yield c
        return (val, env.now)

    p = env.process(parent())
    env.run()
    assert p.value == ("child-val", 25)


def test_allof_waits_for_all(env):
    def prog():
        t1 = env.timeout(10, value="a")
        t2 = env.timeout(30, value="b")
        vals = yield AllOf(env, [t1, t2])
        return (vals, env.now)

    p = env.process(prog())
    env.run()
    vals, t = p.value
    assert vals == ["a", "b"]
    assert t == 30


def test_allof_empty_fires_immediately(env):
    def prog():
        vals = yield AllOf(env, [])
        return (vals, env.now)

    p = env.process(prog())
    env.run()
    assert p.value == ([], 0)


def test_anyof_fires_on_first(env):
    def prog():
        t1 = env.timeout(10, value="fast")
        t2 = env.timeout(30, value="slow")
        val = yield AnyOf(env, [t1, t2])
        return (val, env.now)

    p = env.process(prog())
    env.run()
    assert p.value == ("fast", 10)


def test_allof_with_already_fired_children(env):
    def prog():
        t1 = env.timeout(1, value="x")
        yield env.timeout(5)
        vals = yield AllOf(env, [t1, env.timeout(2, value="y")])
        return vals

    p = env.process(prog())
    env.run()
    assert p.value == ["x", "y"]


def test_deadlock_detected(env):
    def prog():
        yield env.event()  # never fires

    env.process(prog())
    with pytest.raises(DeadlockError):
        env.run()


def test_deadlock_counts_blocked(env):
    def prog():
        yield env.event()

    for _ in range(3):
        env.process(prog())
    with pytest.raises(DeadlockError) as exc:
        env.run()
    assert exc.value.blocked == 3


def test_run_until_time():
    env = StepEnvironment()
    ticks = []

    def prog():
        while True:
            yield env.timeout(10)
            ticks.append(env.now)

    env.process(prog())
    env.run(until=35)
    assert ticks == [10, 20, 30]
    assert env.now == 35


def test_strict_mode_propagates_exceptions(env):
    def prog():
        yield env.timeout(1)
        raise RuntimeError("app bug")

    env.process(prog())
    with pytest.raises(RuntimeError, match="app bug"):
        env.run()


def test_nonstrict_mode_records_failure():
    env = Environment(strict=False)

    def prog():
        yield env.timeout(1)
        raise RuntimeError("app bug")

    p = env.process(prog())
    env.run()
    assert not p.ok
    assert isinstance(p.value, RuntimeError)


def test_interrupt(env):
    log = {}

    def victim():
        try:
            yield env.timeout(1000)
        except Interrupt as i:
            log["cause"] = i.cause
            log["when"] = env.now

    def killer(v):
        yield env.timeout(50)
        v.interrupt("stop")

    v = env.process(victim())
    env.process(killer(v))
    env.run()
    assert log == {"cause": "stop", "when": 50}


def test_interrupt_dead_process_rejected(env):
    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_max_events_backstop():
    env = Environment(max_events=100)

    def spin():
        while True:
            yield env.timeout(1)

    env.process(spin())
    with pytest.raises(SimulationError, match="max_events"):
        env.run()


def test_process_requires_generator(env):
    def not_a_gen():
        return 3

    with pytest.raises(SimulationError):
        env.process(not_a_gen())  # type: ignore[arg-type]


def test_yield_non_event_raises(env):
    def prog():
        yield "42"  # type: ignore[misc]

    env.process(prog())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_yield_int_sleeps(env):
    def prog():
        got = yield 100
        yield 0
        return (got, env.now)

    p = env.process(prog())
    env.run()
    assert p.value == (None, 100)
    # init + two sleeps + completion, as with two timeouts
    assert env.events_processed == 4


@pytest.mark.parametrize("step_loop", [False, True], ids=["fast", "step"])
@pytest.mark.parametrize("bad", [-1, 1.5, np.int64(3), True],
                         ids=["negative", "float", "np.int64", "bool"])
def test_bad_sleep_raises_inside_program(bad, step_loop):
    """Only a Python int >= 0 is a sleep; anything else is thrown into the
    program, which can catch it and carry on."""
    env = make_env(step_loop)

    def prog():
        try:
            yield bad
        except SimulationError as exc:
            yield 5
            return str(exc), env.now

    p = env.process(prog())
    env.run()
    msg, t = p.value
    assert "non-event" in msg and t == 5


def test_uncaught_bad_sleep_fails_the_process():
    env = Environment(strict=False)

    def prog():
        yield 1.5

    p = env.process(prog())
    env.run()
    assert not p.ok and isinstance(p.value, SimulationError)


@pytest.mark.parametrize("spelling, delay, error", [
    ("env.timeout", -0.5, "negative timeout delay -0.5"),
    ("Timeout", -0.5, "negative timeout delay -0.5"),
    ("yield", -1, "non-event -1"),
], ids=["env.timeout", "Timeout", "yield"])
def test_every_negative_delay_rejected(env, spelling, delay, error):
    """One rule for every spelling of a delay: a negative one is an error
    (``env.timeout`` used to truncate -0.5 to a 0 ns timeout)."""
    def prog():
        if spelling == "env.timeout":
            yield env.timeout(delay)
        elif spelling == "Timeout":
            yield Timeout(env, delay)
        else:
            yield delay
        return "resumed"

    env.process(prog())
    with pytest.raises(SimulationError, match=error):
        env.run()
    assert env.now == 0


def test_events_processed_counter(env):
    def prog():
        for _ in range(5):
            yield env.timeout(1)

    env.process(prog())
    env.run()
    # 1 bootstrap + 5 timeouts + 1 process-completion event
    assert env.events_processed == 7
