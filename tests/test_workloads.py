"""Every oracle over every registry entry.

One name -> one program -> one stated expectation: each entry of
``repro.workloads.WORKLOADS`` is run plain, with observability on, with
the memory-model checker on and under an installed-but-empty fault plan,
at one and at four ranks per node.  The four schedules must be the same
schedule, no entry the plain or the empty-plan run pops may be idle (an
event made for a waiter that never came), every run's ``verify`` must
count no wrong output, and the checker's verdict must be the entry's
``expect``.
"""

import hashlib
import inspect
import json

import numpy as np
import pytest

from repro.check import render_check_report
from repro.config import FaultPlan
from repro.ft.workloads import run_crash_to_completion
from repro.obs import chrome_trace_json
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


def _digest(*parts: str) -> str:
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:16]


def _obs_digest(obs) -> str:
    """What observability recorded: the trace and every metric."""
    return _digest(chrome_trace_json(obs),
                   json.dumps(obs.metrics.snapshot(), sort_keys=True))


def _check_digest(ck, name: str) -> str:
    """What the checker recorded: its report and its counters."""
    return _digest(render_check_report(ck, name),
                   json.dumps(ck.stats_snapshot(), sort_keys=True))


#: (entry, ranks per node) -> (obs digest, checker digest) of the
#: instrumented runs below: a change that moves what an instrument
#: records, not only when the schedule runs, shows here.
INSTRUMENT_DIGESTS = {
    ("putget", 1): ("b2c1a6ec7fc446d0", "37dfb2e6e4466482"),
    ("putget", 4): ("1c1d97f6641337a3", "37dfb2e6e4466482"),
    ("locks", 1): ("106f071ba3a2e40c", "c7518cfbf2161d13"),
    ("locks", 4): ("0acbc709862c31c4", "c7518cfbf2161d13"),
    ("fence", 1): ("d1ff0c9a776f6316", "ab47402a00a1c2d3"),
    ("fence", 4): ("e096a1d454d82731", "ab47402a00a1c2d3"),
    ("pscw", 1): ("8673c60e4702e6e3", "f9f75eb2e824ab51"),
    ("pscw", 4): ("801026128d4691af", "f9f75eb2e824ab51"),
    ("racy_put_put", 1): ("27887dfb6f2130ac", "2e97bfdc0a6281b1"),
    ("racy_put_put", 4): ("41276e430e2ac069", "b7d031bd62e3bfeb"),
    ("racy_acc_mix", 1): ("456a718279427e9f", "d031f71bb79d0411"),
    ("racy_acc_mix", 4): ("72c1a8f9c8bf6a79", "5ae7c4deeda6dda0"),
    ("racy_atomic_nonatomic", 1): ("c9a1c34f7a25e37e", "8ae11fea82c1ed6b"),
    ("racy_atomic_nonatomic", 4): ("dc9bf2e4327e5f56", "8a7b0093757c2137"),
    ("racy_local", 1): ("89d349831265d2d5", "a940a549ecc87729"),
    ("racy_local", 4): ("2a2d35fde9e70bdb", "1620cc6d6206fb53"),
    ("racy_same_origin", 1): ("2cdf30453fbbc1b2", "ce1afee6ad071fd2"),
    ("racy_same_origin", 4): ("14826f7851cc493d", "7bb31553e5f30542"),
    ("racy_msg_nosync", 1): ("90a28ed1492f7194", "d37a46f220fc7f25"),
    ("racy_msg_nosync", 4): ("d8c574a37cafde17", "daf8abb30e513894"),
    ("racy_latent", 1): ("c0c5430fa8ead071", "1c45f8709d3e94ba"),
    ("racy_latent", 4): ("648b66055f70d8ab", "1c45f8709d3e94ba"),
    ("clean_put_put", 1): ("27887dfb6f2130ac", "5960033604e57dc1"),
    ("clean_put_put", 4): ("41276e430e2ac069", "5960033604e57dc1"),
    ("clean_msg_sync", 1): ("82e155f2da39fca8", "b7dfecff56ffa80f"),
    ("clean_msg_sync", 4): ("f21bb14442d191cf", "b7dfecff56ffa80f"),
    ("clean_acc_sum", 1): ("456a718279427e9f", "c57ddcef01703a7b"),
    ("clean_acc_sum", 4): ("72c1a8f9c8bf6a79", "c57ddcef01703a7b"),
    ("clean_local", 1): ("35053db093722af5", "93832e9d4a5ee705"),
    ("clean_local", 4): ("92d42906e06982d4", "93832e9d4a5ee705"),
    ("clean_same_origin", 1): ("9a884dd291a413f6", "a0d5c805289f2f95"),
    ("clean_same_origin", 4): ("1f22c6283cb4da4a", "a0d5c805289f2f95"),
    ("clean_strided", 1): ("55da11fd646d5ddb", "5e2e9e6db15f92a7"),
    ("clean_strided", 4): ("680d5ff04a72fbd5", "5e2e9e6db15f92a7"),
    ("fence_ring", 1): ("d2388fb7679490c3", "cccdbfabcf95fadd"),
    ("fence_ring", 4): ("87a28c6030154076", "cccdbfabcf95fadd"),
    ("pscw_ring", 1): ("a0a9c74ef90a9c47", "747355eff6832770"),
    ("pscw_ring", 4): ("ff4ed9325781e8b0", "747355eff6832770"),
    ("lock_ring", 1): ("f141495b40414c19", "ba6b3ed222e62f50"),
    ("lock_ring", 4): ("8286a2bd6bdb5976", "ba6b3ed222e62f50"),
    ("flush_ring", 1): ("6a21f60c966ac37d", "28ba5bd8f45d1d8c"),
    ("flush_ring", 4): ("9ef4614bc274b957", "28ba5bd8f45d1d8c"),
    ("ft_hashtable", 1): ("9922193e0eba4328", "58e0f511eef2fe4e"),
    ("ft_hashtable", 4): ("d517fb9e12cb3c29", "3838c66e0ebab0be"),
    ("ft_kvstore", 1): ("20f9914b5e1414b2", "4c91a350c9ca943f"),
    ("ft_kvstore", 4): ("dcc11e93a0746214", "2ff1fdda3893a174"),
    ("put_flush", 1): ("3d264967a1b7af46", "ca17473090d3c3bd"),
    ("put_flush", 4): ("42fa64d9e261085b", "ca17473090d3c3bd"),
    ("get_flush", 1): ("2d4a5d72cd44e73c", "ae4a9e827c1803c0"),
    ("get_flush", 4): ("4a90779bc07481b1", "ae4a9e827c1803c0"),
    ("rendezvous", 1): ("f47b92e230442019", "09a9edcf506acce4"),
    ("rendezvous", 4): ("c6098a908187289f", "09a9edcf506acce4"),
    ("lock_contention", 1): ("db8ebd4fdea6f618", "4677090f2571fa48"),
    ("lock_contention", 4): ("89a3c59a692e3727", "4677090f2571fa48"),
    ("accumulate", 1): ("1ea9ed61df0dee5f", "f3d1d4e30c5b3405"),
    ("accumulate", 4): ("51dca8fd53c3fcd6", "f3d1d4e30c5b3405"),
    ("hashtable_rma", 1): ("b434a55d7cfcc515", "8518075c70126e0b"),
    ("hashtable_rma", 4): ("47c81f3e83c04f75", "8518075c70126e0b"),
    ("hashtable_upc", 1): ("b43dfe666cacb6ef", "cfd689c3e7cb0c28"),
    ("hashtable_upc", 4): ("7fe1c84af168fa3c", "cfd689c3e7cb0c28"),
    ("hashtable_mpi1", 1): ("37eba17146c10699", "504f8d1150874730"),
    ("hashtable_mpi1", 4): ("a0dcdc7fc14b8697", "504f8d1150874730"),
    ("kv_serve", 1): ("0b76ec4565bc0509", "ded7f0db063f8409"),
    ("kv_serve", 4): ("d4b3037218fb346e", "ded7f0db063f8409"),
    ("milc_rma", 1): ("ded8febef569e147", "24211a0923b7acd1"),
    ("milc_rma", 4): ("f42f485d418297c4", "24211a0923b7acd1"),
    ("milc_mpi1", 1): ("7173e505eb00736f", "f1e21ddfb6527c05"),
    ("milc_mpi1", 4): ("68b5444b03507de5", "f1e21ddfb6527c05"),
    ("milc_upc", 1): ("9180b1b3ae7be147", "66fed695a089cb8d"),
    ("milc_upc", 4): ("0a9fa96b8717c9da", "66fed695a089cb8d"),
    ("dsde_nbx", 1): ("0b9040547487abd3", "27540963dd00db23"),
    ("dsde_nbx", 4): ("11d072e7774e9e5d", "27540963dd00db23"),
    ("fft", 1): ("bd4aa13221312e14", "597cbb58210d046c"),
    ("fft", 4): ("a76b4d301423567c", "597cbb58210d046c"),
    ("caf_coarray", 1): ("5ae407d39aa5abbb", "46047dcbf1050ab0"),
    ("caf_coarray", 4): ("ee970b7015022f79", "46047dcbf1050ab0"),
    ("mcs_lock", 1): ("8cb45e57b2e0f673", "af1e2e66a1fb874a"),
    ("mcs_lock", 4): ("8e39ebbdec720705", "af1e2e66a1fb874a"),
    ("dynamic_window", 1): ("3778ae49c275a3e6", "fe9b6aa2a4d91a2d"),
    ("dynamic_window", 4): ("59c4da8b3628b83e", "fe9b6aa2a4d91a2d"),
}


@pytest.mark.parametrize("rpn", [1, 4])
@pytest.mark.parametrize("name", WORKLOADS)
def test_instruments_do_not_perturb_and_verdict_is_as_stated(name, rpn):
    """Zero perturbation (obs, checker), empty plan == clean fabric, no
    idle entry on either fabric, every run's output correct (``verify``),
    and the checker reports exactly the entry's ``expect``.  The plain
    and empty-plan runs take the step loop under the idle tracer; the
    instrumented ones take the fast loop."""
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
    verify = WORKLOADS[name].verify
    assert [verify(r) for r in (plain, observed, checked, hardened)] == \
        [0, 0, 0, 0]

    expect = WORKLOADS[name].expect
    kinds = {v.kind for v in checked.check.violations}
    assert kinds == ({expect} if expect else set()), \
        [v.describe() for v in checked.check.violations]

    assert (_obs_digest(observed.obs), _check_digest(checked.check, name)) \
        == INSTRUMENT_DIGESTS[name, rpn]

    if name in GOLDEN and rpn == 4:
        # The pre-checker, pre-obs schedules (tests/sim/test_kernel_gen2.py
        # pins the plain run; here every instrumented run lands on it too).
        assert _fingerprint(observed)[:2] == current(GOLDEN[name]), \
            f"{name}: schedule drifted from pre-checker golden trace"


def test_obs_and_checker_together_record_as_pinned():
    """Both instruments on one racy run: the checker's race instants land
    in the obs trace beside the sync spans."""
    res = run_workload("racy_put_put", nranks=NRANKS, seed=SEED, obs=True,
                       check=True)
    assert sum(s.cat == "check" for s in res.obs.spans.spans) == 6
    assert (_obs_digest(res.obs), _check_digest(res.check, "racy_put_put")) \
        == ("e1c05638a8105079", "2e97bfdc0a6281b1")


def test_obs_across_a_restore_records_as_pinned():
    """The restarted rank adopts its windows, so a lock epoch it reopens
    from the checkpoint closes with the dead incarnation's hold span."""
    out = run_crash_to_completion("ft_hashtable", NRANKS, crash_rank=1,
                                  crash_frac=0.5, obs=True)
    assert out.match
    assert _obs_digest(out.recovered.obs) == "1723ca38af2a2656"


def test_names_programs_and_goldens_line_up():
    """One name -> one program, and every pinned schedule is a registry
    entry under the same key."""
    assert [wl.program.__name__ for wl in WORKLOADS.values()] == \
        list(WORKLOADS)
    assert set(GOLDEN) == set(GOLDEN_RETURNS) <= set(WORKLOADS)


def test_latent_entry_is_clean_until_perturbed():
    """Clean on the default schedule (swept above, no verdict stated);
    tests/check/test_explore.py runs every single-delay schedule of each
    at 2, 3 and 4 ranks and finds every latent class.  ``kv_serve``'s
    owner preloads its volume with CPU stores and later reaches its own
    keys with RMA atomics, with no synchronization between the two on
    that rank; one late packet can move such an atomic before that
    rank's first flush."""
    latent = {n: wl.latent for n, wl in WORKLOADS.items() if wl.latent}
    assert latent == {"racy_latent": {"put-get", "put-put"},
                      "kv_serve": {"local-remote"}}
    assert all(WORKLOADS[n].expect is None for n in latent)


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
