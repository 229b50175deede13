"""Shared fixtures for the test suite."""

from collections import Counter
from contextlib import contextmanager

import pytest

import repro.runtime.world as world_module
from repro.sim.kernel import Environment, Event, Process, Timeout
from repro.sim.trace import Tracer


@pytest.fixture
def env():
    """A fresh strict DES environment."""
    return Environment()


def make_env(step_loop=False, **kw):
    """A fresh environment on the fast loop, or -- with a tracer
    installed, which is what selects it -- on the reference step loop."""
    env = Environment(**kw)
    if step_loop:
        env.tracer = Tracer()
    return env


class IdleTracer(Tracer):
    """Step-loop tracer that counts popped entries which did nothing.

    An entry does something when it resumes a process or runs a callback.
    Two kinds may do neither: a process's own exit event that nobody
    joined, and a sleep whose sleeper an interrupt took away (a retired
    sleep token, or a ``Timeout`` -- a sleep spelled as an event).  Any
    other event popped with an empty callback list was made for a waiter
    that never came; ``idle`` counts those by event name.
    """

    def __init__(self, limit: int = 0) -> None:
        super().__init__(limit)
        self.idle: Counter = Counter()

    def record(self, now, event) -> None:
        super().record(now, event)
        if isinstance(event, Event) and not event.callbacks \
                and not isinstance(event, (Process, Timeout)):
            self.idle[event.name] += 1


@contextmanager
def idle_tracers(limit: int = 0):
    """Run every world built inside on the step loop under an
    :class:`IdleTracer` (keeping ``limit`` records); yields the list the
    tracers land in, in build order."""
    tracers = []
    plain = world_module.Environment

    class Traced(plain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.tracer = IdleTracer(limit)
            tracers.append(self.tracer)

    world_module.Environment = Traced
    try:
        yield tracers
    finally:
        world_module.Environment = plain
