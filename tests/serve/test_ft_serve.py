"""Crash-through serving on the store users run (``rma_kv.KvStore``):
availability gap, state bit-identity against the fault-free run *and*
against the schedule model, post-recovery tail, and the single-writer
determinism that makes the final bytes a pure function of the seed."""

import numpy as np
import pytest

from repro import run_spmd
from repro.apps.kvstore import KvLayout
from repro.ft.workloads import (final_bytes, ft_machine,
                                run_crash_to_completion, run_reference)
from repro.serve.driver import (expected_contents, kv_serve_program,
                                merged_contents)
from repro.serve.slo import build_report, ft_section
from repro.serve.zipf import ServeSpec
from repro.workloads import run_workload

SPEC = ServeSpec(nkeys=64, total_requests=600, seed=7, ft_mode=True)
NRANKS = 4


def _spec(seed):
    return ServeSpec(nkeys=64, total_requests=400, seed=seed, ft_mode=True)


def _crash(spec, **kw):
    kw.setdefault("crash_rank", 1)
    return run_crash_to_completion("ft_kvstore", NRANKS, seed=spec.seed,
                                   interval=16, spec=spec, **kw)


def _decode(result, spec) -> dict[int, int]:
    """Final (key, value) contents read back out of the window bytes."""
    layout = KvLayout.default(max(1, spec.nkeys // NRANKS + 1))
    merged: dict[int, int] = {}
    for _lat, state in result.returns:
        assert len(state) == layout.nbytes
        merged.update(layout.scan(np.frombuffer(state, dtype=np.int64)))
    return merged


@pytest.fixture(scope="module")
def outcome():
    return _crash(SPEC, crash_frac=0.5, obs=True)


@pytest.fixture(scope="module")
def section(outcome):
    return ft_section(outcome)


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
    assert _crash(_spec(seed), crash_frac=frac).match


@pytest.mark.parametrize("mode", ["spare", "shrink"])
@pytest.mark.parametrize("crash_rank", [0, 1])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_crash_grid_matches_reference_and_model(seed, crash_rank, mode):
    """Early, mid-run, late and inside-the-completion-wait crashes of
    the counter's owner and of an ordinary rank, both recovery modes:
    the recovered store equals the fault-free one bit for bit, and --
    decoded with ``KvLayout.scan`` -- equals the schedule model: every
    preloaded key present, every never-PUT key at ``initial + sum of its
    UPDATE deltas``.  Exactly-once, not merely same-as-reference."""
    spec = _spec(seed)
    keys, determined = expected_contents(spec, NRANKS)
    for frac in (0.2, 0.5, 0.9, 0.98):
        out = _crash(spec, crash_rank=crash_rank, crash_frac=frac,
                     mode=mode)
        assert out.match, (frac, "recovered bytes diverged")
        got = _decode(out.recovered, spec)
        assert set(got) == keys, frac
        assert {k: got[k] for k in determined} == determined, frac


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_ft_off_equals_the_user_path(seed):
    """With no fault machinery the FT serving program is the user's
    store under another driver: same final contents as
    ``kv_serve_program`` on the same schedule, and as the model."""
    spec = _spec(seed)
    ft_off = run_reference("ft_kvstore", NRANKS, seed=seed, ft_on=False,
                           spec=spec)
    user = run_spmd(kv_serve_program, NRANKS, spec, machine=ft_machine())
    assert _decode(ft_off, spec) == merged_contents(user)
    rec = _crash(spec, crash_frac=0.5).recovered
    assert _decode(rec, spec) == merged_contents(user)


def test_availability_gap_reported(outcome, section):
    """The gap is the served-traffic outage: crash instant to the end
    of the restore span, strictly positive and small relative to the
    run."""
    assert section["availability_gap_ns"] > 0
    assert section["availability_gap_ns"] < outcome.recovered.sim_time_ns


def test_post_recovery_tail_reported(section):
    assert section["post_recovery_p99_ns"] > 0
    for key in ("crash_rank", "crash_time_ns", "availability_gap_ns",
                "post_recovery_p99_ns", "state_match", "ranks_restored"):
        assert key in section
    assert section["state_match"] is True
    assert section["ranks_restored"] >= 1


def test_report_carries_the_stores_own_metrics(outcome):
    """The served store is KvStore, so its hotspot accounting shows up
    in the --ft report (the flat FT store had none)."""
    report = build_report(outcome.recovered, SPEC, NRANKS,
                          variant="rma-ft")
    metrics = outcome.recovered.obs.metrics
    for name in ("kv.get", "kv.put", "kv.update", "kv.owner_requests"):
        assert metrics.counter_total(name) > 0, name
    assert report["hotspots"]["hottest_owners"]
    assert sum(report["hotspots"]["owner_requests"].values()) >= \
        report["latency_ns"]["count"]


def test_ft_mode_final_bytes_pure_function_of_seed():
    """Single-writer key remap makes even the fault-free FT run's final
    window bytes bit-deterministic -- the property the crash run is
    diffed against."""
    a = run_workload("ft_kvstore", NRANKS, seed=SPEC.seed, spec=SPEC)
    b = run_workload("ft_kvstore", NRANKS, seed=SPEC.seed, spec=SPEC)
    assert final_bytes(a) == final_bytes(b)


def test_crash_rank_requests_resume_after_restore(outcome, section):
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
    end = outcome.crash_time_ns + section["availability_gap_ns"]
    assert np.count_nonzero(lat[:, 1] >= end) > 0


def test_multi_writer_schedule_is_refused():
    """The put-log does not see a rank's accesses to its own partition
    (XPMEM path), so two writers of one word do not replay; the program
    says so instead of recovering to a wrong state."""
    spec = ServeSpec(nkeys=64, total_requests=40, ft_mode=False)
    with pytest.raises(ValueError, match="single-writer"):
        run_workload("ft_kvstore", NRANKS, spec=spec)


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
