"""The kernel's inlined run loop vs the reference step loop.

``Environment.run()`` is the kernel's one, inlined loop;
``tests.conftest.StepEnvironment`` is the reference stepper (and the one
that stops at ``run(until=t)``).  Both must process the exact same event
schedule -- same event count, same final clock, same process return
values -- and both resume a sleeping process (``yield ns``) straight from
its sleep token and run a bare callback (``env.call_at``) straight from
its entry.  These tests pin the bit-identity contract and the sleep-token,
callback-entry and detach invariants DESIGN.md documents.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import URGENT, Environment, Interrupt, Timeout
from tests.conftest import IdleTracer, StepEnvironment, make_env


def _mixed_workload(env, log, sleep=True):
    """Sleeps (``yield ns``; with ``sleep=False`` the same waits spelled
    ``yield env.timeout(ns)``), timeouts carrying values, named events,
    conditions, priorities, an interrupted sleeper that catches the
    interrupt and sleeps again, and bare callbacks (``env.call_at``): a
    chain that schedules its successor (the first one on its own tick)
    and one that wakes a process, as a delivery completing a request
    does."""

    def nap(ns):
        return ns if sleep else env.timeout(ns)

    def ticker(name, period, n):
        for i in range(n):
            got = yield nap(period)
            log.append((env.now, name, i, got))

    def timer(n):
        for i in range(n):
            got = yield env.timeout(4, value=i)
            log.append((env.now, "timer", got))

    def waiter(ev, ev2):
        got = yield ev
        log.append((env.now, "waiter", got))
        first = yield env.any_of([env.timeout(9, value="t"), ev2])
        log.append((env.now, "anyof", first))
        yield env.all_of([env.timeout(3), env.timeout(7)])
        log.append((env.now, "allof", None))
        yield nap(0)
        log.append((env.now, "zero", None))

    def victim():
        try:
            yield nap(1000)
        except Interrupt as i:
            log.append((env.now, "interrupted", i.cause))
        yield nap(30)
        log.append((env.now, "victim", None))

    def firer(ev, ev2, v):
        yield nap(13)
        ev.succeed("payload", delay=2, priority=URGENT)
        log.append((env.now, "fired", None))
        yield nap(37)
        v.interrupt("stop")
        ev2.succeed("ev2")

    def chain(i):
        log.append((env.now, "call", i))
        if i < 3:
            env.call_at(i, lambda: chain(i + 1))

    def receiver(ev3):
        got = yield ev3
        log.append((env.now, "received", got))

    ev, ev2, ev3 = env.event("ev"), env.event("ev2"), env.event("ev3")
    env.call_at(10, lambda: chain(0))
    env.call_at(21, lambda: ev3.succeed("delivered"))
    env.process(receiver(ev3), name="receiver")
    env.process(ticker("a", 10, 8), name="a")
    env.process(ticker("b", 7, 8), name="b")
    env.process(timer(6), name="timer")
    env.process(waiter(ev, ev2), name="waiter")
    v = env.process(victim(), name="victim")
    env.process(firer(ev, ev2, v), name="firer")


def _run(step_loop, sleep=True):
    env = make_env(step_loop)
    log = []
    _mixed_workload(env, log, sleep)
    env.run()
    return log, env.now, env.events_processed


def test_fast_matches_step_loop_bit_identical():
    fast = _run(step_loop=False)
    assert fast == _run(step_loop=True)
    # The victim woke once, at the interrupt, and its second sleep fired
    # on time; its retired entry still popped (at t = 1000) and counted.
    log, now, _ = fast
    assert [e for e in log if e[1] in ("interrupted", "victim")] == [
        (50, "interrupted", "stop"), (80, "victim", None)]
    assert now == 1000
    # Ticker "a" sleeps until 10 too: the chain's first call, pushed
    # before the ticker started, runs ahead of it; its delay-0 successor
    # runs on the same tick, after it.
    assert [e for e in log
            if e[1] in ("call", "received") or e[:2] == (10, "a")] == [
        (10, "call", 0), (10, "a", 0, None), (10, "call", 1),
        (11, "call", 2), (13, "call", 3), (21, "received", "delivered")]


@pytest.mark.parametrize("step_loop", [False, True], ids=["fast", "step"])
def test_call_at_is_the_entry_a_one_callback_event_gets(step_loop):
    """``env.call_at(d, fn)`` runs ``fn()`` where an event with ``fn`` as
    its one callback, succeeded with delay ``d``, would: same order, clock
    and event count, against sleepers on the same ticks."""
    def run(bare):
        env = make_env(step_loop)
        log = []

        def sleeper():
            for i in range(3):
                yield 5
                log.append((env.now, "sleep", i))

        def note(tag):
            return lambda: log.append((env.now, tag))

        env.process(sleeper(), name="s")
        for i, delay in enumerate((5, 0, 10, 5, 15)):
            if bare:
                env.call_at(delay, note(i))
            else:
                ev = env.event()
                ev.callbacks.append(lambda _ev, fn=note(i): fn())
                ev.succeed(delay=delay)
        env.run()
        return log, env.now, env.events_processed

    assert run(bare=True) == run(bare=False)


def test_call_at_rejects_the_past(env):
    with pytest.raises(SimulationError, match="past"):
        env.call_at(-1, lambda: None)


@pytest.mark.parametrize("step_loop", [False, True], ids=["fast", "step"])
def test_sleep_schedules_like_a_timeout(step_loop):
    """``yield ns`` is ``yield env.timeout(ns)`` without the event: same
    resume order, clock and event count, interrupt included."""
    assert _run(step_loop) == _run(step_loop, sleep=False)


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


def test_sleep_reuses_the_process_token(monkeypatch):
    """Every sleep of a process pushes its one token -- no ``Timeout`` is
    made -- on both loops."""
    made = []
    init = Timeout.__init__
    monkeypatch.setattr(Timeout, "__init__",
                        lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    env = StepEnvironment()

    def spin():
        for _ in range(100):
            yield 1

    proc = env.process(spin(), name="spin")
    token = proc._sleep
    env.run(until=50)                      # step loop
    pending = env._queue[0]
    assert pending[0] == 51 and pending[3] is token
    Environment.run(env)                   # the kernel's loop
    assert proc._sleep is token and token.proc is proc
    assert made == []
    assert env.now == 100 and env.events_processed == 102


def test_yielded_timeout_keeps_its_value():
    """Timeouts are not pooled: one yielded directly and shared with an
    ``AllOf`` keeps its identity and value after firing."""
    env = Environment()
    seen = []

    def waiter():
        t = env.timeout(10, value="a")
        got = yield t
        vals = yield env.all_of([t, env.timeout(20, value="b")])
        seen.append((got, vals, t.value, t.processed))
        assert env.timeout(1) is not t

    env.process(waiter(), name="w")
    env.run()
    assert seen == [("a", ["a", "b"], "a", True)]


def test_step_loop_traces_every_sleep():
    """The step loop shows its tracer every entry -- sleeps as
    ``"sleep"`` -- and counts what the kernel's loop counts."""
    def spin(env):
        for _ in range(5):
            yield 2

    counts = []
    for step_loop in (True, False):
        env = make_env(step_loop=step_loop)
        if step_loop:
            env.tracer = tracer = IdleTracer(limit=100)
        env.process(spin(env), name="spin")
        env.run()
        counts.append((env.now, env.events_processed))
    records = tracer.records
    assert counts[0] == counts[1] == (10, 7)
    assert len(records) == 7
    assert [r for r in records if r[1] == "sleep"] == [
        (t, "sleep") for t in range(2, 11, 2)]


def test_anyof_detaches_loser_callbacks():
    env = StepEnvironment()
    winner = env.timeout(5)
    loser = env.timeout(500)

    def waiter():
        yield env.any_of([winner, loser])

    env.process(waiter(), name="w")
    env.run(until=100)
    # After the condition fired, the losing child must not keep a
    # reference to the condition's _on_fire (callback churn + leak).
    assert loser.callbacks == []


def test_condition_with_fired_children_detaches():
    env = StepEnvironment()
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
    """``until`` stops the step loop: the clock lands on the stop time,
    only events due by then ran, and nothing was recycled."""
    env = StepEnvironment()
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
