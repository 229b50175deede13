"""Shared fixtures for the test suite."""

import pytest

from repro.sim.kernel import Environment
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
