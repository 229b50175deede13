"""Every oracle over every registry entry.

One name -> one program -> one stated expectation: each entry of
``repro.workloads.WORKLOADS`` is run plain, with observability on, with
the memory-model checker on and under an installed-but-empty fault plan,
at one and at four ranks per node.  The four schedules must be the same
schedule, no entry the plain or the empty-plan run pops may be idle (an
event made for a waiter that never came), and the checker's verdict must
be the entry's ``expect``.
"""

import inspect

import numpy as np
import pytest

from repro.check.perturb import perturb_sweep
from repro.config import FaultPlan
from repro.ft.workloads import run_crash_to_completion
from repro.workloads import WORKLOADS, lookup, names, run_workload
from tests.conftest import idle_tracers
from tests.sim.test_kernel_gen2 import GOLDEN, GOLDEN_RETURNS, current

NRANKS, SEED = 4, 11


def _comparable(value):
    # ft_kvstore returns (latency rows, bytes); arrays compare element-wise.
    if isinstance(value, tuple):
        return tuple(_comparable(v) for v in value)
    return value.tolist() if isinstance(value, np.ndarray) else value


def _fingerprint(res):
    return (res.sim_time_ns, res.events_processed,
            [_comparable(v) for v in res.returns])


@pytest.mark.parametrize("rpn", [1, 4])
@pytest.mark.parametrize("name", WORKLOADS)
def test_instruments_do_not_perturb_and_verdict_is_as_stated(name, rpn):
    """Zero perturbation (obs, checker), empty plan == clean fabric, no
    idle entry on either fabric, and the checker reports exactly the
    entry's ``expect``.  The plain and empty-plan runs take the step loop
    under the idle tracer; the instrumented ones take the fast loop."""
    kw = dict(nranks=NRANKS, seed=SEED, ranks_per_node=rpn)
    with idle_tracers() as tracers:
        plain = run_workload(name, **kw)
        hardened = run_workload(name, faults=FaultPlan(), **kw)
    observed = run_workload(name, obs=True, **kw)
    checked = run_workload(name, check=True, **kw)
    assert [t.idle for t in tracers] == [{}, {}]

    assert plain.obs is None and plain.check is None
    assert len(observed.obs.spans) > 0
    assert hardened.stats["retransmits"] == 0
    for other in (observed, checked, hardened):
        assert _fingerprint(other) == _fingerprint(plain)

    expect = WORKLOADS[name].expect
    kinds = {v.kind for v in checked.check.violations}
    assert kinds == ({expect} if expect else set()), \
        [v.describe() for v in checked.check.violations]
    assert not checked.check.truncated

    if name in GOLDEN and rpn == 4:
        # The pre-checker, pre-obs schedules (tests/sim/test_kernel_gen2.py
        # pins the plain run; here every instrumented run lands on it too).
        assert _fingerprint(observed)[:2] == current(GOLDEN[name]), \
            f"{name}: schedule drifted from pre-checker golden trace"


def test_names_programs_and_goldens_line_up():
    """One name -> one program, and every pinned schedule is a registry
    entry under the same key."""
    assert [wl.program.__name__ for wl in WORKLOADS.values()] == \
        list(WORKLOADS)
    assert set(GOLDEN) == set(GOLDEN_RETURNS) <= set(WORKLOADS)


def test_latent_entry_is_clean_until_perturbed():
    latent = {n: wl.latent for n, wl in WORKLOADS.items() if wl.latent}
    assert latent == {"racy_latent": "put-get"}
    assert WORKLOADS["racy_latent"].expect is None   # swept clean above
    sweep = perturb_sweep("racy_latent", 6, nranks=NRANKS, base_seed=SEED)
    assert "put-get" in {v.kind for v in sweep.findings}


def test_jitter_refuses_a_fault_plan_of_its_own():
    """``jitter=True`` is a fault plan; it may not silently replace the
    caller's."""
    with pytest.raises(ValueError, match="jitter"):
        run_workload("putget", faults=FaultPlan(drop_prob=0.1), jitter=True)


@pytest.mark.parametrize("name", names(scale=True))
def test_scale_entry_defaults_equal_its_spec(name):
    """A ring program run bare is the program its hybrid twin models."""
    wl = WORKLOADS[name]
    params = inspect.signature(wl.program).parameters
    assert (params["epochs"].default, params["nbytes"].default) == \
        (wl.scale.epochs, wl.scale.nbytes)
    assert name == f"{wl.scale.name}_ring"


@pytest.mark.parametrize("mode", ["spare", "shrink"])
def test_ft_entries_recover_bit_identically(mode):
    ft_entries = [n for n, wl in WORKLOADS.items() if wl.ft]
    assert ft_entries == ["ft_hashtable", "ft_kvstore"]
    for name in ft_entries:
        assert run_crash_to_completion(name, NRANKS, seed=SEED,
                                       mode=mode).match, name
    with pytest.raises(ValueError, match="not crash-recoverable"):
        run_crash_to_completion("putget", NRANKS)


def test_lookup_errors_list_the_keys():
    with pytest.raises(ValueError, match="racy_put_put.*ft_hashtable ft_kvstore"):
        lookup("nope")
    # Scale consumers hear about scale keys only, and a known program
    # without a hybrid twin is a different message from a typo.
    with pytest.raises(ValueError, match=r"unknown.*\(have fence_ring "):
        lookup("nope", scale=True)
    with pytest.raises(ValueError, match="'fence' has no hybrid twin"):
        lookup("fence", scale=True)
    assert lookup("fence_ring", scale=True).scale.name == "fence"
