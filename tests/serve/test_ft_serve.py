"""Crash-through serving: availability gap, state bit-identity,
post-recovery tail, and the single-writer determinism that makes the
FT workload's final bytes a pure function of the seed."""

import numpy as np
import pytest

from repro.apps.kvstore.ft_kv import (run_kv_crash_to_completion,
                                      run_kv_ft, state_bytes)
from repro.serve.zipf import ServeSpec

SPEC = ServeSpec(nkeys=64, total_requests=600, seed=7, ft_mode=True)
NRANKS = 4


@pytest.fixture(scope="module")
def outcome():
    return run_kv_crash_to_completion(NRANKS, SPEC, crash_rank=1,
                                      crash_frac=0.5, interval=16)


def test_crash_through_recovers_exact_state(outcome):
    assert outcome.match
    assert outcome.crash_rank == 1
    assert outcome.crash_time_ns > 0


@pytest.mark.parametrize("seed,frac", [
    # the crashed rank re-executes a PUT and then an UPDATE of one key:
    # a re-applied plain put wiped the (deduplicated) UPDATE
    (3, 0.5),
    # crash before the first interval checkpoint commits: the restart
    # from v0 re-ran the preload over the restored + replayed window
    (4, 0.2), (5, 0.2), (6, 0.2),
])
def test_recovered_state_matches_at_awkward_crash_points(seed, frac):
    spec = ServeSpec(nkeys=64, total_requests=400, seed=seed, ft_mode=True)
    out = run_kv_crash_to_completion(NRANKS, spec, crash_rank=1,
                                     crash_frac=frac, interval=16)
    assert out.match


def test_availability_gap_reported(outcome):
    """The gap is the served-traffic outage: crash instant to the end
    of the restore span, strictly positive and small relative to the
    run."""
    assert outcome.availability_gap_ns > 0
    assert outcome.availability_gap_ns < outcome.recovered.sim_time_ns


def test_post_recovery_tail_reported(outcome):
    assert outcome.post_recovery_p99_ns > 0
    sec = outcome.report_section()
    for key in ("crash_rank", "crash_time_ns", "availability_gap_ns",
                "post_recovery_p99_ns", "state_match", "ranks_restored"):
        assert key in sec
    assert sec["state_match"] is True
    assert sec["ranks_restored"] >= 1


def test_ft_mode_final_bytes_pure_function_of_seed():
    """Single-writer key remap makes even the fault-free FT run's final
    window bytes bit-deterministic -- the property the crash run is
    diffed against."""
    a = run_kv_ft(NRANKS, SPEC, faults=None)
    b = run_kv_ft(NRANKS, SPEC, faults=None)
    assert state_bytes(a) == state_bytes(b)


def test_crash_rank_requests_resume_after_restore(outcome):
    """The restarted rank re-bases its schedule and finishes serving:
    every client's latency rows from the recovered run are complete and
    positive past the restore point."""
    rows = [r[0] for r in outcome.recovered.returns
            if not isinstance(r, BaseException)]
    assert len(rows) == NRANKS
    lat = np.concatenate(rows)
    done = lat[:, 1] - lat[:, 0]
    assert np.all(done > 0)
    # some requests completed after the outage ended
    end = outcome.crash_time_ns + outcome.availability_gap_ns
    assert np.count_nonzero(lat[:, 1] >= end) > 0


def test_cli_ft_gate(capsys):
    from repro.__main__ import main

    rc = main(["serve", "kvstore", "--ranks", "4", "--requests", "400",
               "--nkeys", "64", "--seed", "3", "--ft", "--crash", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "availability gap" in out and "state MATCH" in out
    # an impossible gap SLO fails the gate
    rc = main(["serve", "kvstore", "--ranks", "4", "--requests", "400",
               "--nkeys", "64", "--seed", "3", "--ft", "--crash", "1",
               "--slo-gap-us", "0.001"])
    assert rc == 1
