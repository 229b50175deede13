"""Delay-bounded exploration of a registry entry's schedules.

The kernel is deterministic and :meth:`repro.faults.FaultInjector.packet_fate`
is asked once per transmission attempt, so a schedule is named by the set
of attempts that arrive late.  :func:`delayed` swaps the injector for a
subclass that adds :data:`DELAY_NS` to the attempts whose 0-based call
index is in a given set, the same way ``tests/conftest.py::idle_tracers``
swaps the world's ``Environment``.  Runs take ``faults=FaultPlan()``, so
the empty set is the default schedule.

:func:`delay_sets` walks every set of at most ``k`` delays in index order,
the bounded search of Emmi, Qadeer and Rakamarić, "Delay-Bounded
Scheduling" (POPL 2011): the next delay may fall on any later attempt
that the run with the delays so far actually makes.

A finding replays from its one-line reproducer::

    PYTHONPATH=src python -c "from tests.check.explore import run_delayed; \\
        print(run_delayed('racy_latent', 2, [7], seed=11)[0].check.violations)"
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

from repro import faults as faults_module
from repro.config import FaultPlan, RunResult
from repro.workloads import run_workload

#: What a delayed attempt adds to its wire time: well above
#: ``racy_latent``'s threshold margin, well below the NIC's ack deadline.
DELAY_NS = 5_000


@contextmanager
def delayed(delays: Iterable[int]) -> Iterator[list]:
    """Every world built inside delays the transmission attempts whose
    0-based index is in ``delays``; yields the injectors, in build order
    (each counts its attempts in ``.attempts``)."""
    chosen = frozenset(delays)
    injectors = []
    plain = faults_module.FaultInjector

    class Delaying(plain):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.attempts = 0
            injectors.append(self)

        def packet_fate(self, src_node, dst_node):
            fate = super().packet_fate(src_node, dst_node)
            if self.attempts in chosen:
                fate.extra_delay_ns += DELAY_NS
                self.stats.delays += 1
            self.attempts += 1
            return fate

    faults_module.FaultInjector = Delaying
    try:
        yield injectors
    finally:
        faults_module.FaultInjector = plain


def run_delayed(name: str, nranks: int, delays: Iterable[int], *,
                seed: int = 11, check: bool = True) -> tuple[RunResult, int]:
    """One run of registry entry ``name`` with ``delays`` late: the
    result and the number of transmission attempts it made."""
    with delayed(delays) as injectors:
        res = run_workload(name, nranks, seed=seed, faults=FaultPlan(),
                           check=check)
    (inj,) = injectors
    return res, inj.attempts


def delay_sets(name: str, nranks: int, k: int, *, seed: int = 11
               ) -> Iterator[tuple[tuple[int, ...], RunResult]]:
    """Every run with at most ``k`` delays, the empty set first: yields
    ``(delays, result)`` pairs.  A run that raises fails with its
    reproducer."""
    todo: list[tuple[int, ...]] = [()]
    while todo:
        delays = todo.pop()
        try:
            res, attempts = run_delayed(name, nranks, delays, seed=seed)
        except Exception as exc:
            raise AssertionError(
                f"{reproducer(name, nranks, delays, seed)} raised "
                f"{type(exc).__name__}: " + str(exc).replace("\n", " ")
            ) from exc
        yield delays, res
        if len(delays) < k:
            start = delays[-1] + 1 if delays else 0
            todo.extend(delays + (i,) for i in reversed(range(start,
                                                              attempts)))


def reproducer(name: str, nranks: int, delays: tuple[int, ...],
               seed: int = 11) -> str:
    """The one line that replays a run: paste it after
    ``from tests.check.explore import run_delayed``."""
    return f"run_delayed({name!r}, {nranks}, {list(delays)}, seed={seed})"
