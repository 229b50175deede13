"""Workload-generator properties: determinism, skew, arrivals, fan-out.

The serving layer's whole determinism story rests on the generator:
for a fixed spec the per-client schedule must be a pure function of
``(seed, client, nclients)`` -- bit-identical across calls, processes
and the benchmark pool -- and its statistics must actually be Zipfian
with the requested op mix.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.zipf import (OP_GET, OP_PUT, OP_UPDATE, ServeSpec,
                              client_schedule, mutator_of, requests_for,
                              zipf_cdf)

SPEC = ServeSpec(nkeys=64, theta=0.99, total_requests=800, seed=11)


def test_schedule_bit_identical_across_calls():
    a = client_schedule(SPEC, 2, 4)
    b = client_schedule(SPEC, 2, 4)
    assert a.dtype == np.int64 and a.shape[1] == 4
    assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), client=st.integers(0, 3),
       theta=st.floats(0.0, 1.2))
def test_schedule_deterministic_property(seed, client, theta):
    spec = ServeSpec(nkeys=32, theta=theta, total_requests=64, seed=seed)
    a = client_schedule(spec, client, 4)
    assert np.array_equal(a, client_schedule(spec, client, 4))
    # arrivals strictly increase (min 1 ns gap), keys/ops/values in range
    assert np.all(np.diff(a[:, 0]) >= 1)
    assert np.all((a[:, 2] >= 0) & (a[:, 2] < spec.nkeys))
    assert set(np.unique(a[:, 1])) <= {OP_GET, OP_PUT, OP_UPDATE}
    assert np.all((a[:, 3] >= 1) & (a[:, 3] < 1 << 40))


@pytest.mark.parametrize("seed", range(1, 9))
def test_arrivals_fill_the_fixed_window(seed):
    """A client's n arrivals land inside n / rate_hz whatever the seed (a
    Poisson process given its count), so a store that keeps up finishes
    when the spec says, not when the slowest client's draw does; the gaps
    still look exponential (coefficient of variation ~ 1)."""
    spec = ServeSpec(nkeys=64, total_requests=800, rate_hz=50_000.0,
                     seed=seed)
    window = 200 * 1e9 / spec.rate_hz
    last = []
    for client in range(4):
        t = client_schedule(spec, client, 4)[:, 0]
        assert t[-1] <= window + len(t)         # + the 1 ns rounding floor
        gaps = np.diff(t, prepend=0)
        assert 0.8 < gaps.std() / gaps.mean() < 1.2
        last.append(t[-1])
    assert max(last) > 0.97 * window


def test_clients_draw_distinct_streams():
    a = client_schedule(SPEC, 0, 4)
    b = client_schedule(SPEC, 1, 4)
    assert not np.array_equal(a[:, 2], b[:, 2])


def test_requests_split_covers_total():
    counts = [requests_for(SPEC, c, 3) for c in range(3)]
    assert sum(counts) == SPEC.total_requests
    assert max(counts) - min(counts) <= 1


def test_empirical_skew_matches_zipf_cdf():
    """Key frequencies track the analytic Zipf weights within a loose
    multinomial tolerance (the generator inverts the exact CDF)."""
    spec = ServeSpec(nkeys=32, theta=0.99, total_requests=20000, seed=5)
    keys = np.concatenate([client_schedule(spec, c, 4)[:, 2]
                           for c in range(4)])
    cdf = zipf_cdf(spec.nkeys, spec.theta)
    weights = np.diff(cdf, prepend=0.0)
    freq = np.bincount(keys, minlength=spec.nkeys) / keys.size
    # hot head within 10% relative; aggregate L1 distance small
    assert abs(freq[0] - weights[0]) / weights[0] < 0.10
    assert np.abs(freq - weights).sum() < 0.05
    # and the head really dominates the tail
    assert freq[0] > 5 * freq[-1]


def test_theta_zero_is_uniform():
    spec = ServeSpec(nkeys=16, theta=0.0, total_requests=16000, seed=5)
    keys = np.concatenate([client_schedule(spec, c, 2)[:, 2]
                           for c in range(2)])
    freq = np.bincount(keys, minlength=spec.nkeys) / keys.size
    assert freq.max() / freq.min() < 1.3


def test_op_mix_matches_fractions():
    spec = ServeSpec(nkeys=32, get_frac=0.6, update_frac=0.2,
                     total_requests=20000, seed=9)
    ops = np.concatenate([client_schedule(spec, c, 4)[:, 1]
                          for c in range(4)])
    get = np.count_nonzero(ops == OP_GET) / ops.size
    upd = np.count_nonzero(ops == OP_UPDATE) / ops.size
    assert abs(get - 0.6) < 0.03
    assert abs(upd - 0.2) < 0.03


def test_ft_mode_remaps_mutations_to_single_writer():
    spec = ServeSpec(nkeys=64, total_requests=2000, seed=3, ft_mode=True)
    for client in range(4):
        sched = client_schedule(spec, client, 4)
        mut = sched[np.isin(sched[:, 1], (OP_PUT, OP_UPDATE))]
        assert mut.size, "spec must generate some mutations"
        for key in np.unique(mut[:, 2]):
            assert mutator_of(int(key), 4) == client
    # GET keys keep the Zipf draw (reads may target any key)
    sched = client_schedule(spec, 0, 4)
    gets = sched[sched[:, 1] == OP_GET]
    assert len(np.unique(gets[:, 2])) > 8


def test_spec_validation():
    with pytest.raises(ValueError):
        ServeSpec(nkeys=0)
    with pytest.raises(ValueError):
        ServeSpec(get_frac=0.9, update_frac=0.2)
    with pytest.raises(ValueError):
        ServeSpec(rate_hz=0.0)


def test_schedules_bit_identical_under_pool_fanout():
    """Satellite gate: the benchmark pool fan-out returns the same bytes
    as the serial loop (schedules are pure functions of their args, and
    run_points merges in input order)."""
    from repro.bench.pool import BenchPoint, run_points

    points = [BenchPoint(client_schedule, (SPEC, c, 4)) for c in range(4)]
    serial = [client_schedule(SPEC, c, 4) for c in range(4)]
    pooled = run_points(points, workers=2)
    for s, p in zip(serial, pooled):
        assert np.array_equal(s, p)


#: sha256 (first 16 hex digits) of the schedule bytes of clients 0, 17 and
#: 63 of 64: the kv_zipf benchmark's spec, and a uniform-ish ft_mode spec
#: with no updates (an empty middle interval of the op draw).
SCHEDULE_PINS = {
    "zipf": (ServeSpec(total_requests=6400, rate_hz=50_000.0, seed=1),
             {0: "2db21518de985a82", 17: "9dc03350497003e6",
              63: "fa7f7c839def0c7a"}),
    "ft": (ServeSpec(nkeys=64, theta=0.5, get_frac=0.5, update_frac=0.0,
                     total_requests=640, seed=5, ft_mode=True),
           {0: "fc6e9a5ae505b81d", 17: "e958e547490b2273",
            63: "e1bbbc1112adb75a"}),
}


@pytest.mark.parametrize("name", sorted(SCHEDULE_PINS))
def test_schedules_pinned(name):
    spec, pins = SCHEDULE_PINS[name]
    for client, want in pins.items():
        got = hashlib.sha256(
            client_schedule(spec, client, 64).tobytes()).hexdigest()[:16]
        assert got == want, (name, client)


def test_zipf_cdf_shared_and_read_only():
    cdf = zipf_cdf(512, 0.99)
    assert cdf is zipf_cdf(512, 0.99)
    assert not cdf.flags.writeable
