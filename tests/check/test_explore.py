"""Every schedule of at most k late packets, for every registry entry.

A registry entry states the checker's verdict (``expect``); a verdict that
holds on the default schedule only is a latent race.  Here every entry
that is neither FT nor latent runs under every set of one delayed
transmission attempt at 2, 3 and 4 ranks (the transport programs,
application studies and extensions at 2 and 3), and the race demos,
their clean twins, the ring programs, fence and PSCW under every set of
two at 2 ranks (``tests/check/explore.py``).  Each run must end without
an exception and report exactly its entry's verdict.  A latent entry is
clean on the default schedule, reports nothing but its latent classes
under single delays, and shows every one of them, at every size.

A failure message is the run's reproducer, one line.
"""

import pytest

from repro.config import FaultPlan
from repro.workloads import WORKLOADS, run_workload
from tests.check.explore import delay_sets, reproducer, run_delayed
from tests.test_workloads import _fingerprint

SIZES = (2, 3, 4)

#: Explored at 2 and 3 ranks: the transport programs, application
#: studies and extensions of ``repro.workloads``, so they add under a
#: quarter to this file's wall time (``tests/test_workloads.py`` runs
#: each at 4 under the checker).  3 ranks leaves a rank unpaired or a
#: process grid uneven.
SMALL = ("put_flush", "get_flush", "rendezvous", "lock_contention",
         "accumulate", "hashtable_", "milc_", "dsde_", "fft", "caf_",
         "mcs_", "dynamic_")


def _bound(name: str, nranks: int) -> int:
    """k: two delays at 2 ranks for the race demos, their twins, the
    rings, fence and PSCW; one everywhere else."""
    deep = (name.startswith(("racy_", "clean_")) or name.endswith("_ring")
            or name in ("fence", "pscw"))
    return 2 if deep and nranks == 2 else 1


def explore(name: str, nranks: int):
    """``(delays, violation kinds)`` of every run within the bound."""
    for delays, res in delay_sets(name, nranks, _bound(name, nranks)):
        yield delays, {v.kind for v in res.check.violations}


EXPLORED = [(name, n) for n in SIZES for name, wl in WORKLOADS.items()
            if not wl.ft and not wl.latent
            and not (name.startswith(SMALL) and n == 4)]


@pytest.mark.parametrize("name,nranks", EXPLORED)
def test_every_delayed_run_keeps_the_stated_verdict(name, nranks):
    expect = WORKLOADS[name].expect
    want = {expect} if expect else set()
    for delays, kinds in explore(name, nranks):
        assert kinds == want, (f"{reproducer(name, nranks, delays)} reports "
                               f"{sorted(kinds)}, expected {sorted(want)}")


@pytest.mark.parametrize("nranks", SIZES)
def test_latent_race_shows_under_one_delay(nranks):
    # racy_latent: a slow rank's put into the shared slot races the
    # others' reads of it, and two slow ranks' puts race each other.
    # kv_serve: an owner's CPU preload stores and its own later atomics
    # on those keys; one late packet orders such an atomic before the
    # rank's first flush.
    for name, wl in WORKLOADS.items():
        if not wl.latent:
            continue
        found = set()
        for delays, kinds in explore(name, nranks):
            assert kinds <= wl.latent, \
                f"{reproducer(name, nranks, delays)} reports {kinds}"
            if not delays:
                assert not kinds, reproducer(name, nranks, delays)
            if len(delays) == 1:
                found |= kinds
        assert found == wl.latent, name


@pytest.mark.parametrize("name", [n for n, wl in WORKLOADS.items()
                                  if not wl.ft])
def test_explorer_replays_the_default_schedule(name):
    """No delay is the plain empty-plan run; n delays are n counted
    delays."""
    plain = run_workload(name, 4, seed=11, faults=FaultPlan())
    res, attempts = run_delayed(name, 4, (), check=False)
    assert _fingerprint(res) == _fingerprint(plain)
    assert res.stats["faults"]["delays"] == 0
    for n in (1, 2, 3):
        delays = tuple(range(0, attempts, attempts // n))[:n]
        res, _ = run_delayed(name, 4, delays, check=False)
        assert res.stats["faults"]["delays"] == n, reproducer(name, 4, delays)
