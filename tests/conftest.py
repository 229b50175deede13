"""Shared fixtures for the test suite."""

from collections import Counter
from contextlib import contextmanager
from heapq import heappop

import pytest

import repro.runtime.world as world_module
from repro.errors import SimulationError
from repro.sim.kernel import Environment, Event, Process, Timeout, _Call, _Sleep


@pytest.fixture
def env():
    """A fresh strict DES environment."""
    return Environment()


class StepEnvironment(Environment):
    """The reference run loop the kernel's inlined one is tested against.

    One popped entry at a time, with no inlining: a sleep token resumes
    its process through ``Process._resume``, a ``call_at`` entry runs
    ``fn()``, an event runs its callback list.  ``tracer.record(now,
    entry)`` (when a tracer is set) sees each entry before it dispatches.
    ``run(until=t)`` stops once the next entry is due after ``t``, with the
    clock on ``t``.
    """

    tracer = None

    def run(self, until=None):
        queue = self._queue
        while queue:
            if until is not None and queue[0][0] > until:
                self.now = until
                return
            if self.events_processed >= self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events} "
                    f"(simulated t={self.now}ns) -- runaway protocol?")
            when, _prio, _seq, entry = heappop(queue)
            assert when >= self.now, "time went backwards"
            self.now = when
            self.events_processed += 1
            if self.tracer is not None:
                self.tracer.record(when, entry)
            if entry.__class__ is _Sleep:
                if entry.proc is not None:
                    entry.proc._resume(entry)
            elif entry.__class__ is _Call:
                entry.fn()
            else:
                callbacks, entry.callbacks = entry.callbacks, None
                for cb in callbacks:
                    cb(entry)
            if self.watchdog_interval \
                    and self.events_processed >= self._wd_next:
                self._watchdog_check()
        self._drained()


def make_env(step_loop=False, **kw):
    """A fresh environment on the kernel's loop, or on the reference
    :class:`StepEnvironment` loop."""
    return (StepEnvironment if step_loop else Environment)(**kw)


class IdleTracer:
    """Step-loop recorder that counts popped entries which did nothing.

    ``records`` keeps the first ``limit`` ``(now, name)`` pairs, naming a
    sleep token ``"sleep"`` and a ``call_at`` entry ``"call"``.  An entry
    does something when it resumes a process or runs a callback.  Two
    kinds may do neither: a process's own exit event that nobody joined,
    and a sleep whose sleeper an interrupt took away (a retired sleep
    token, or a ``Timeout`` -- a sleep spelled as an event).  Any other
    event popped with an empty callback list was made for a waiter that
    never came; ``idle`` counts those by event name.
    """

    def __init__(self, limit: int = 0) -> None:
        self.records: list[tuple[int, str]] = []
        self.limit = limit
        self.idle: Counter = Counter()

    def record(self, now, entry) -> None:
        if not isinstance(entry, Event):
            name = "sleep" if entry.__class__ is _Sleep else "call"
        else:
            name = entry.name or type(entry).__name__
            if not entry.callbacks \
                    and not isinstance(entry, (Process, Timeout)):
                self.idle[entry.name] += 1
        if len(self.records) < self.limit:
            self.records.append((now, name))


@contextmanager
def idle_tracers(limit: int = 0):
    """Run every world built inside on the reference step loop under an
    :class:`IdleTracer` (keeping ``limit`` records); yields the list the
    tracers land in, in build order."""
    tracers = []
    plain = world_module.Environment

    class Traced(StepEnvironment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.tracer = IdleTracer(limit)
            tracers.append(self.tracer)

    world_module.Environment = Traced
    try:
        yield tracers
    finally:
        world_module.Environment = plain
