"""Rollback recovery (repro.ft): checkpointing, put-logging, restart.

The contract under test is *crash to completion*: a run that loses a
rank mid-flight finishes anyway, and its final application state is
bit-identical to the fault-free run of the same seed -- under both
``spare`` (adopt an idle node) and ``shrink`` (re-home onto the buddy)
recovery, for any crash rank, deterministically.
"""

import numpy as np
import pytest

import zlib

from repro import run_spmd
from repro.config import FaultPlan, FTConfig, NodeCrash, SimConfig
from repro.errors import FaultError, FTError
from repro.ft import run_steps
from repro.ft.core import FTRuntime
from repro.ft.workloads import (
    final_bytes,
    ft_machine,
    run_crash_to_completion,
    run_reference,
    soak,
)
from repro.rma.enums import Op
from repro.workloads import ft_hashtable, run_workload

NRANKS, INSERTS = 4, 4
HT = "ft_hashtable"


def _ft(*crashes, mode="spare"):
    """``faults=`` / ``ft=`` keywords of an FT run that checkpoints every
    2 steps; no crashes gives the fault-free reference."""
    return dict(faults=FaultPlan(crashes=crashes) if crashes else None,
                ft=FTConfig(interval=2, mode=mode))


# ---------------------------------------------------------------------------
# crash to completion
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["spare", "shrink"])
@pytest.mark.parametrize("crash_rank", range(NRANKS))
def test_crash_to_completion_bit_identical(crash_rank, mode):
    """A crash of any rank -- including rank 0, who owns the master lock
    word and the completion counter -- anywhere after every rank's v0
    checkpoint recovers to the exact fault-free final table, overflow
    chains included."""
    for crash_frac in (0.35, 0.5, 0.65, 0.8, 0.95):
        out = run_crash_to_completion(HT, NRANKS, inserts=INSERTS,
                                      crash_rank=crash_rank,
                                      crash_frac=crash_frac, mode=mode)
        assert out.match, f"recovered table diverged at {crash_frac}"
        row = out.stats_row()
        assert row["ranks_restored"] == 1
        ft = row["ft"]
        assert ft["restores"] == 1
        assert ft["unrecoverable"] == 0
        if mode == "spare":
            assert ft["spares_used"] == 1


def test_hashtable_inserts_through_the_nic_and_the_overflow_path():
    """Every insert targets the next rank, so the put-log sees each CAS,
    and every second one collides into the overflow heap."""
    by_kind = run_workload(HT, NRANKS, inserts=INSERTS).stats["by_kind"]
    assert by_kind["amo:replace"] > 0 and by_kind["put"] > 0
    assert "cpu-amo:cas" not in by_kind


def test_same_seed_rerun_bit_identical():
    """The recovered schedule itself is deterministic: same seed, same
    crash, bit-identical returns / clock / event count."""
    runs = [run_crash_to_completion(HT, NRANKS, inserts=INSERTS, seed=77,
                                    crash_rank=1, mode="spare")
            for _ in range(2)]
    a, b = (r.recovered for r in runs)
    assert final_bytes(a) == final_bytes(b)
    assert a.sim_time_ns == b.sim_time_ns
    assert a.events_processed == b.events_processed


def test_checkpointing_does_not_change_the_answer():
    """FT-on fault-free runs pay overhead in time only: the final table
    matches the FT-off baseline bit for bit."""
    base = run_reference(HT, NRANKS, inserts=INSERTS, ft_on=False)
    ft = run_reference(HT, NRANKS, inserts=INSERTS, ft_on=True)
    assert final_bytes(base) == final_bytes(ft)
    assert ft.stats["ft"]["checkpoints_taken"] > 0
    assert "ft" not in base.stats
    # One rank on one node: the buddy is the rank's own node, so every
    # checkpoint commits where it is taken.
    solo = run_reference(HT, 1, inserts=INSERTS).stats["ft"]
    assert solo["replicas_arrived"] == solo["checkpoints_taken"] > 0
    assert solo["buddy_bytes"] > 0


def _uncheckpointed_victim_program(ctx):
    import numpy as np
    win = yield from ctx.rma.win_allocate(256)
    ctx.ft.protect(ctx.rank, win)
    yield from win.lock_all()
    if ctx.rank != 2:
        yield from ctx.ft.checkpoint(ctx, win, {"win_id": win.win_id})
    data = np.ones(8, np.uint8)
    for i in range(50):
        yield from win.put(data, 2, 8 * ((i + ctx.rank) % 16))
        yield from win.flush(2)
    yield from win.unlock_all()
    return "ok"


def test_crash_without_checkpoint_is_unrecoverable_but_terminates():
    """Rank 2 dies having never checkpointed: no restart is possible,
    but survivors must terminate with structured errors -- paused origins
    re-raise instead of waiting for a restore that can never happen."""
    res = run_spmd(_uncheckpointed_victim_program, NRANKS,
                   machine=ft_machine(), sim=SimConfig(seed=SimConfig.seed),
                   **_ft(NodeCrash(2, 30_000)))
    assert all(isinstance(r, FaultError) for r in res.returns)
    assert res.stats["ft"]["restores"] == 0


def test_crash_recovery_is_checker_clean():
    """The restore path (snapshot rollback + log replay + respawn) must
    not fabricate RMA memory-model violations: the happens-before edges
    installed at restore keep the checker clean."""
    res = run_workload("ft_hashtable", NRANKS, check=True,
                       **_ft(NodeCrash(2, 13_000)))
    assert res.stats["ft"]["restores"] == 1
    assert res.check is not None and res.check.clean, \
        [v.describe() for v in res.check.violations]


def test_soak_smoke():
    """Two seeded randomized schedules recover to the fault-free state
    (the CI job runs more)."""
    rows = soak(2)
    assert all(r["match"] for r in rows)
    # Derived schedules are themselves deterministic.
    assert soak(2) == rows


# ---------------------------------------------------------------------------
# run_steps: the restart line, written once
# ---------------------------------------------------------------------------
def _pin(res):
    return res.sim_time_ns, res.events_processed, zlib.crc32(final_bytes(res))


#: ``(sim_time_ns, events_processed, crc32 of the table bytes)`` of
#: ``ft_hashtable`` FT-off / FT-on fault-free / rank 1 crashed at half the
#: FT-on run, keyed by (nranks, inserts, seed).  The harness moves the
#: clock and the event count only; the table bytes are the same in all
#: three.
HT_PINS = {
    (4, 4, SimConfig.seed): ((38160, 375, 680823295),
                             (38431, 415, 680823295),
                             (64362, 532, 680823295)),
    (8, 16, 5): ((108906, 2044, 887274588),
                 (110215, 2316, 887274588),
                 (134331, 2568, 887274588)),
}


@pytest.mark.parametrize("cell", HT_PINS, ids=lambda c: f"{c[0]}x{c[1]}")
def test_hashtable_schedule_unmoved_by_the_harness(cell):
    nranks, inserts, seed = cell
    kw = dict(seed=seed, inserts=inserts)
    off = run_workload(HT, nranks, **kw)
    on = run_workload(HT, nranks, **_ft(), **kw)
    crashed = run_workload(HT, nranks,
                           **_ft(NodeCrash(1, on.sim_time_ns // 2)), **kw)
    assert (_pin(off), _pin(on), _pin(crashed)) == HT_PINS[cell]


@pytest.mark.parametrize("t_crash", [7_500, 8_000, 8_500, 9_000])
def test_crash_heard_of_before_it_happens_still_recovers(t_crash):
    """Packet fates are computed at issue time: ranks 1 and 2 learn at
    7.26 us that rank 0 will be dead when their ``lock_all`` AMO lands --
    before rank 0 takes, at 7.32 us, the v0 checkpoint that makes it
    recoverable.  Recoverability is decided at the crash instant."""
    kw = dict(inserts=INSERTS, machine=ft_machine(),
              sim=SimConfig(seed=3))
    ref = run_spmd(ft_hashtable, NRANKS, **_ft(), **kw)
    rec = run_spmd(ft_hashtable, NRANKS, **_ft(NodeCrash(0, t_crash)), **kw)
    assert rec.stats["ft"]["restores"] == 1
    assert final_bytes(rec) == final_bytes(ref)


def _one_step_raises_program(ctx):
    def create():
        win = yield from ctx.rma.win_allocate(8, disp_unit=8)
        return (win,), win, 0

    def step(windows, i):
        if ctx.rank == 2:
            raise RuntimeError("step failed")
        yield from ctx.compute(100)

    yield from run_steps(ctx, create, 1, step)
    return "done"


def test_completion_wait_gives_up_when_a_peer_program_failed():
    """Every poll of the completion counter is a completed fetch-and-op,
    so the watchdog sees progress forever; the wait itself must notice
    that a peer's program ended in an exception."""
    # Any planned crash makes the kernel non-strict (a rank's exception
    # ends that rank, not the simulation); this one takes the idle spare
    # node, so no rank is killed and nothing is restored.
    res = run_spmd(_one_step_raises_program, NRANKS, machine=ft_machine(),
                   **_ft(NodeCrash(NRANKS, 1)))
    assert isinstance(res.returns[2], RuntimeError)
    for rank in (0, 1, 3):
        assert isinstance(res.returns[rank], FTError), res.returns[rank]
        assert "rank 2 ended in RuntimeError" in str(res.returns[rank])


ACC_STEPS, ACC_WORDS = 8, 8


def _acc_stream_program(ctx):
    """Every step SUM-accumulates one 8-element stream into the next
    rank's window.  Zeros leave their words unchanged, negatives and
    2**62 wrap them; sums commute, so the final bytes are timing-free."""
    def create():
        win = yield from ctx.rma.win_allocate(8 * ACC_WORDS + 8,
                                              disp_unit=8)
        return (win,), win, ACC_WORDS

    def step(windows, i):
        (win,) = windows
        vals = np.array([ctx.rank + 1, 0, -i, 1 << 62, 0, 7, i - 3, 1],
                        np.int64)
        yield from win.accumulate(vals, (ctx.rank + 1) % ctx.nranks, 0,
                                  Op.SUM)

    (win,) = yield from run_steps(ctx, create, ACC_STEPS, step)
    return win.seg.snapshot_bytes()[:8 * ACC_WORDS]


def test_accumulate_streams_recover_through_a_crash(monkeypatch):
    """The AMO-stream logger is the only record of an accumulate's delta:
    a rank crashed halfway through recovers to the fault-free bytes, and
    only the words a stream changed were logged."""
    logged = []
    log_amo = FTRuntime.log_amo
    monkeypatch.setattr(FTRuntime, "log_amo", lambda self, *a: (
        logged.append(a), log_amo(self, *a)))
    kw = dict(machine=ft_machine())
    ref = run_spmd(_acc_stream_program, NRANKS, **_ft(), **kw)
    # Per rank and step, the nonzero addends change their words (i - 3 and
    # -i are zero once each), plus the completion fetch-adds of the ranks
    # that are not rank 0 (rank 0's own goes through XPMEM, unlogged).
    changed = sum(8 - 2 - (i == 0) - (i == 3) for i in range(ACC_STEPS))
    assert len(logged) == NRANKS * changed + NRANKS - 1
    crash = NodeCrash(1, ref.sim_time_ns // 2)
    rec = run_spmd(_acc_stream_program, NRANKS, **_ft(crash), **kw)
    assert rec.stats["ft"]["restores"] == 1
    assert final_bytes(rec) == final_bytes(ref)
    assert final_bytes(ref) != bytes(8 * ACC_WORDS * NRANKS)


# ---------------------------------------------------------------------------
# win_free vs in-flight checkpoints (satellite 6)
# ---------------------------------------------------------------------------
def _free_mid_deposit_program(ctx):
    win = yield from ctx.rma.win_allocate(512)
    ctx.ft.protect(ctx.rank, win)
    yield from ctx.ft.checkpoint(ctx, win, {"win_id": win.win_id})
    # Free immediately: the buddy replica packet is still on the wire.
    yield from win.free()
    return "ok"


def test_win_free_cancels_inflight_replica():
    """Freeing a window while its checkpoint replica is still in flight
    cancels the deposit (the late packet commits nothing) and releases
    every buddy-side byte."""
    res = run_spmd(_free_mid_deposit_program, NRANKS,
                   machine=ft_machine(), **_ft())
    assert list(res.returns) == ["ok"] * NRANKS
    ft = res.stats["ft"]
    assert ft["checkpoints_taken"] == NRANKS
    assert ft["checkpoints_cancelled"] == NRANKS
    assert ft["replicas_arrived"] == 0
    assert ft["buddy_bytes"] == 0
    assert ft["log_entries"] == 0


def _free_after_commit_program(ctx):
    win = yield from ctx.rma.win_allocate(512)
    ctx.ft.protect(ctx.rank, win)
    yield from ctx.ft.checkpoint(ctx, win, {"win_id": win.win_id})
    yield from ctx.compute(50_000)  # let the replica arrive and commit
    yield from win.free()
    return "ok"


def test_win_free_releases_committed_buddy_memory():
    res = run_spmd(_free_after_commit_program, NRANKS,
                   machine=ft_machine(), **_ft())
    assert list(res.returns) == ["ok"] * NRANKS
    ft = res.stats["ft"]
    assert ft["replicas_arrived"] == NRANKS
    assert ft["checkpoints_cancelled"] == 0
    assert ft["buddy_bytes"] == 0


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------
def _adopt_unknown_program(ctx):
    yield from ctx.coll.barrier()
    try:
        ctx.ft.adopt(ctx.rank, 99)
    except FTError:
        return "guarded"
    return "missed"


def test_adopt_unknown_window_raises():
    res = run_spmd(_adopt_unknown_program, 2, machine=ft_machine(), **_ft())
    assert list(res.returns) == ["guarded", "guarded"]


def _restored_state_first_start_program(ctx):
    yield from ctx.coll.barrier()
    try:
        ctx.ft.restored_state(ctx.rank)
    except FTError:
        return ctx.ft.restarting(ctx.rank)
    return "missed"


def test_restored_state_outside_a_restart_raises():
    res = run_spmd(_restored_state_first_start_program, 2,
                   machine=ft_machine(), **_ft())
    assert list(res.returns) == [False, False]


@pytest.mark.parametrize("kw, match", [
    (dict(crash_rank=NRANKS), "not a rank"),
    (dict(crash_rank=-1), "not a rank"),
    (dict(crash_frac=0.0), "outside"),
    (dict(crash_frac=1.5), "outside"),
], ids=["rank-past-end", "rank-negative", "frac-0", "frac-1.5"])
def test_crash_that_hits_no_rank_is_refused(kw, match, monkeypatch):
    """A crash outside the run's ranks or its length would recover
    nothing and report success; it is refused before the reference run."""
    import repro.ft.workloads as ftw

    monkeypatch.setattr(ftw, "run_reference",
                        lambda *a, **k: pytest.fail("reference run started"))
    with pytest.raises(ValueError, match=match):
        run_crash_to_completion(HT, NRANKS, inserts=INSERTS, **kw)


def test_ftconfig_validation():
    with pytest.raises(ValueError, match="interval"):
        FTConfig(interval=0)
    with pytest.raises(ValueError, match="mode"):
        FTConfig(mode="migrate")
    # The spare-node count is derived from the mode, not set.
    assert FTConfig(mode="spare").spares == 1
    assert FTConfig(mode="shrink").spares == 0

