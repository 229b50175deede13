"""Survivor-side fault recovery (repro.runtime.notify + repro.rma.recovery).

Every scenario crashes a rank in a specific protocol role -- lock holder,
MCS queue head/middle/tail waiter, fence participant, PSCW origin/target,
hashtable owner -- and asserts that the survivors *terminate* with
structured errors (RankFailedError / EpochError / NodeCrashedError):
never a LivelockError, never the max_events backstop, never a hang.

Recovery is fully deterministic under the run seed, so a recovered run
replays bit-identically; and every recovery hook is behind a single
``notifier is None`` gate, so fault-free runs stay byte-identical to the
unhardened code (checked by the tier-1 determinism suite).
"""

import json
import os

import numpy as np
import pytest

import repro.runtime.world as world_module
from repro import run_spmd
from repro.config import (
    FaultPlan,
    MachineConfig,
    NicStall,
    NodeCrash,
)
from repro.errors import (
    EpochError,
    FaultError,
    LivelockError,
    NodeCrashedError,
    RankFailedError,
)
from repro.rma.enums import LockType, Op
from repro.rma.mcs import McsLock
from tests.sim.test_kernel_gen2 import current

INTER = MachineConfig(ranks_per_node=1)


def crash_plan(*nodes_times):
    return FaultPlan(crashes=tuple(NodeCrash(node=n, time_ns=t)
                                   for n, t in nodes_times))


def _fingerprint(res):
    return (res.sim_time_ns, res.events_processed, repr(res.returns),
            json.dumps(res.stats, sort_keys=True, default=str))


# ---------------------------------------------------------------------------
# two-level lock revocation
# ---------------------------------------------------------------------------
def _exclusive_holder_program(ctx):
    win = yield from ctx.rma.win_allocate(256)
    if ctx.rank == 1:
        yield from win.lock(0, LockType.EXCLUSIVE)
        yield ctx.env.timeout(10_000_000)  # crashes while holding
        yield from win.unlock(0)
    else:
        yield ctx.env.timeout(20_000)
        yield from win.lock(0, LockType.EXCLUSIVE)
        yield from win.unlock(0)
    return ("ok", ctx.rank)


def test_exclusive_holder_crash_revoked():
    """Rank 1 dies holding an exclusive lock: both its WRITER bit and its
    global-word registration are rolled back, so survivors acquire."""
    res = run_spmd(_exclusive_holder_program, 3, machine=INTER,
                   faults=crash_plan((1, 50_000)))
    assert res.returns[0] == ("ok", 0)
    assert res.returns[2] == ("ok", 2)
    assert isinstance(res.returns[1], NodeCrashedError)
    rec = res.stats["recovery"]
    assert rec["failures_detected"] == 1
    assert rec["locks_revoked"] >= 2  # local WRITER bit + global word
    assert rec["notifications_delivered"] == 2


def test_lock_all_holder_crash_revoked():
    """Rank 2 dies inside a lock_all epoch: its global shared count is
    rolled back and a survivor's exclusive lock proceeds."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        if ctx.rank == 2:
            yield from win.lock_all()
            yield ctx.env.timeout(10_000_000)
            yield from win.unlock_all()
        else:
            yield ctx.env.timeout(20_000)
            yield from win.lock(0, LockType.EXCLUSIVE)
            yield from win.unlock(0)
        return ("ok", ctx.rank)

    res = run_spmd(program, 3, machine=INTER,
                   faults=crash_plan((2, 50_000)))
    assert res.returns[0] == ("ok", 0)
    assert res.returns[1] == ("ok", 1)
    assert res.stats["recovery"]["locks_revoked"] >= 1


def test_lock_dead_target_fails_structured():
    """A new lock() addressed to a known-dead rank fails immediately with
    RankFailedError (not a retry loop into the watchdog)."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        if ctx.rank == 0:
            yield ctx.env.timeout(100_000)  # past crash + notification
            with pytest.raises(RankFailedError) as exc:
                yield from win.lock(1, LockType.EXCLUSIVE)
            assert exc.value.failed_ranks == (1,)
            return "refused"
        yield ctx.env.timeout(10_000_000)

    res = run_spmd(program, 2, machine=INTER,
                   faults=crash_plan((1, 30_000)))
    assert res.returns[0] == "refused"
    assert res.stats["recovery"]["acquisitions_failed"] == 1


def _lock_mix_program(ctx):
    win = yield from ctx.rma.win_allocate(256)
    if ctx.rank == 3:
        yield from win.lock(0, LockType.EXCLUSIVE)
        yield ctx.env.timeout(10_000_000)  # crashes while holding
    else:
        yield ctx.env.timeout(10_000 + 2_000 * ctx.rank)
        yield from win.lock(0, LockType.EXCLUSIVE if ctx.rank % 2
                            else LockType.SHARED)
        yield ctx.env.timeout(500)
    yield from win.unlock(0)
    return ("ok", ctx.rank)


@pytest.mark.parametrize("rpn,pin", [
    (1, (10_015_502, 436, 45, 100, 2)),
    (2, (10_014_108, 405, 45, 101, 2)),
])
def test_lock_holder_crash_schedule_pinned(rpn, pin):
    """Rank 3 dies holding rank 0's exclusive lock while shared and
    exclusive waiters (CPU and NIC atomics at two ranks per node, where
    rank 2 dies too, mid-spin) retry against it: every lock-word AMO is a
    ledger record, so ``(sim_time_ns, events_processed, callback-free,
    messages, locks_revoked)`` pins that recording changes no schedule.
    Captured while the ledger reissued each AMO as a chained
    ``amo:custom``; the callback-free events are no longer made."""
    res = run_spmd(_lock_mix_program, 6,
                   machine=MachineConfig(ranks_per_node=rpn),
                   faults=crash_plan((3 // rpn, 50_000)))
    assert [r for r in range(6) if res.returns[r] == ("ok", r)] == \
        [r for r in range(6) if r // rpn != 3 // rpn]
    assert (res.sim_time_ns, res.events_processed, res.stats["messages"],
            res.stats["recovery"]["locks_revoked"]) == current(pin)


# ---------------------------------------------------------------------------
# MCS queue splicing (zombie forwarders)
# ---------------------------------------------------------------------------
def _mcs_program(ctx, victim):
    win = yield from ctx.rma.win_allocate(256)
    lock = McsLock(win)
    # Stagger the enqueue so the queue order equals rank order: rank 0
    # holds; ranks 1..p-1 are head/middle/tail waiters.
    yield ctx.env.timeout(1_000 * ctx.rank)
    yield from lock.acquire()
    if ctx.rank == victim:
        yield ctx.env.timeout(10_000_000)  # crashes holding / in queue
    yield ctx.env.timeout(500)
    yield from lock.release()
    return ("ok", ctx.rank)


def _mcs_victim_program(ctx, victim):
    # Same as _mcs_program, but the victim dies while *waiting* (it never
    # reaches acquire's return when it is not the holder).
    win = yield from ctx.rma.win_allocate(256)
    lock = McsLock(win)
    yield ctx.env.timeout(1_000 * ctx.rank)
    if ctx.rank == 0 and victim != 0:
        # The holder keeps the lock until well past the crash so the
        # victim dies inside the waiter queue.
        yield from lock.acquire()
        yield ctx.env.timeout(120_000)
        yield from lock.release()
        return ("ok", ctx.rank)
    yield from lock.acquire()
    if ctx.rank == victim:
        yield ctx.env.timeout(10_000_000)
    yield ctx.env.timeout(500)
    yield from lock.release()
    return ("ok", ctx.rank)


#: End of each ``test_mcs_crash_roles`` run by victim, captured while
#: McsLock had a separate guarded body (chained AMOs, blocking peer
#: writes); the one-body lock keeps it, and the 28 messages.
MCS_CRASH_SIM_TIME_NS = {0: 10_007_269, 1: 133_367, 2: 133_367, 3: 133_025}


@pytest.mark.parametrize("victim,role", [
    (0, "holder"),
    (1, "head waiter"),
    (2, "middle waiter"),
    (3, "tail waiter"),
])
def test_mcs_crash_roles(victim, role):
    """Kill the MCS participant in each queue position: the zombie
    forwarder passes (or retires) the token and every survivor completes
    an acquire/release cycle."""
    prog = _mcs_program if victim == 0 else _mcs_victim_program
    res = run_spmd(prog, 4, victim, machine=INTER,
                   faults=crash_plan((victim, 50_000)))
    for r in range(4):
        if r == victim:
            assert isinstance(res.returns[r], NodeCrashedError)
        else:
            assert res.returns[r] == ("ok", r), f"{role}: rank {r} stuck"
    assert res.stats["recovery"]["queue_splices"] == 1
    assert (res.sim_time_ns, res.stats["messages"]) == \
        (MCS_CRASH_SIM_TIME_NS[victim], 28)


def test_mcs_adjacent_dead_waiters_chain():
    """Two adjacent dead waiters: each zombie hands the token to the next
    (the chained-forwarder case)."""
    res = run_spmd(_mcs_victim_program, 5, 2, machine=INTER,
                   faults=crash_plan((2, 50_000), (3, 50_000)))
    for r in (0, 1, 4):
        assert res.returns[r] == ("ok", r)
    assert res.stats["recovery"]["queue_splices"] == 2
    assert (res.sim_time_ns, res.stats["messages"]) == (137_343, 40)


def test_mcs_hand_off_in_flight_spares_next_turn_notes():
    """The hand-off AMO is not waited for.  Rank 0 releases to rank 1 and
    re-enqueues at once (its tail is node-local, so the swap lands before
    the hand-off does): the late hand-off note must not mark rank 0's new
    queue node as left, or a crash now would spawn no zombie for it."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        lock = McsLock(win)
        if ctx.rank == 0:
            yield from lock.acquire()
            yield ctx.env.timeout(5_000)   # rank 1 queues up meanwhile
            yield from lock.release()
            yield from lock.acquire()
            yield from lock.release()
        elif ctx.rank == 1:
            yield ctx.env.timeout(1_000)
            yield from lock.acquire()      # resumes at hand-off delivery
            peer = ctx.world.blackboard[("mcs", win.win_id, lock.base)][0]
            notes = (peer._queued, peer._pred, peer._handed)
            yield from lock.release()
            return notes

    res = run_spmd(program, 3, machine=INTER,
                   faults=crash_plan((2, 5_000_000)))
    assert res.returns[1] == (True, 2, False)


def test_accumulate_lock_holder_crash_revoked():
    """Rank 1 dies inside a software-fallback accumulate, holding the
    internal accumulate lock word: the ledger records that word's CAS
    and release like any lock word's, so revocation clears the dead
    holder's bit and rank 2's accumulate completes instead of spinning
    into the watchdog."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(1 << 20)
        yield from win.lock_all()
        if ctx.rank == 1:   # 1 MiB MIN: the locked get-modify-put path
            yield from win.accumulate(np.ones(1 << 17), 0, 0, Op.MIN)
            yield from win.flush(0)
        elif ctx.rank == 2:
            yield ctx.env.timeout(20_000)
            yield from win.accumulate(np.ones(1), 0, 0, Op.MIN)
            yield from win.flush(0)
            return ("ok", ctx.now)
        yield ctx.env.timeout(200_000)
        return ("ok", ctx.rank)

    res = run_spmd(program, 3, machine=INTER,
                   faults=crash_plan((1, 30_000)))
    assert isinstance(res.returns[1], NodeCrashedError)
    assert res.returns[0] == ("ok", 0)
    assert res.returns[2] == ("ok", 43_789)
    # the accumulate lock word and rank 1's lock_all registration
    assert res.stats["recovery"]["locks_revoked"] == 2


# ---------------------------------------------------------------------------
# epoch fault containment
# ---------------------------------------------------------------------------
def test_fence_participant_crash_contained():
    """A fence with a dead participant completes on every survivor with
    EpochError(failed_ranks=...) -- not a barrier that never returns."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        yield from win.fence()
        if ctx.rank == 2:
            yield ctx.env.timeout(10_000_000)
        with pytest.raises(EpochError) as exc:
            yield from win.fence()
        assert exc.value.failed_ranks == (2,)
        assert win.epoch_access is None  # the epoch was closed
        return "contained"

    res = run_spmd(program, 4, machine=INTER,
                   faults=crash_plan((2, 60_000)))
    for r in (0, 1, 3):
        assert res.returns[r] == "contained"
    assert res.stats["recovery"]["epochs_failed"] == 3


def test_pscw_origin_crash_fails_wait():
    """The exposing rank's wait() fails structurally when an access-group
    rank dies before calling complete()."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        if ctx.rank == 0:
            yield from win.post([1])
            with pytest.raises(EpochError) as exc:
                yield from win.wait()
            assert exc.value.failed_ranks == (1,)
            return "contained"
        yield from win.start([0])
        yield ctx.env.timeout(10_000_000)  # dies before complete()

    res = run_spmd(program, 2, machine=INTER,
                   faults=crash_plan((1, 50_000)))
    assert res.returns[0] == "contained"
    assert res.stats["recovery"]["epochs_failed"] == 1


def test_pscw_target_crash_fails_start_and_complete():
    """A dead exposing rank fails the origin's start() (its post can
    never arrive); a target dying mid-epoch fails complete()."""
    def never_posts(ctx):
        win = yield from ctx.rma.win_allocate(256)
        if ctx.rank == 0:
            with pytest.raises(EpochError) as exc:
                yield from win.start([1])
            assert exc.value.failed_ranks == (1,)
            return "contained"
        yield ctx.env.timeout(10_000_000)  # never posts

    res = run_spmd(never_posts, 2, machine=INTER,
                   faults=crash_plan((1, 30_000)))
    assert res.returns[0] == "contained"

    def dies_mid_epoch(ctx):
        win = yield from ctx.rma.win_allocate(256)
        if ctx.rank == 0:
            yield from win.post([1])
            yield ctx.env.timeout(10_000_000)  # dies before wait()
            yield from win.wait()
        else:
            yield from win.start([0])
            yield ctx.env.timeout(200_000)  # outlive the crash
            with pytest.raises(EpochError) as exc:
                yield from win.complete()
            assert exc.value.failed_ranks == (0,)
            assert win.epoch_access is None
            return "contained"

    res = run_spmd(dies_mid_epoch, 2, machine=INTER,
                   faults=crash_plan((0, 50_000)))
    assert res.returns[1] == "contained"


def test_win_free_degrades_with_dead_participant():
    """Collective win_free with a dead rank: survivors free locally
    (degraded) instead of hanging on the closing barrier."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(256)
        if ctx.rank == 1:
            yield ctx.env.timeout(10_000_000)
        yield ctx.env.timeout(100_000)
        yield from win.free()
        assert win.freed
        return "freed"

    res = run_spmd(program, 3, machine=INTER,
                   faults=crash_plan((1, 30_000)))
    assert res.returns[0] == "freed"
    assert res.returns[2] == "freed"
    assert res.stats["recovery"]["degraded_frees"] == 2
    # The dead rank's window heap segment was reclaimed too.
    assert res.stats["recovery"]["regions_reclaimed"] >= 1


def test_dynamic_regions_of_dead_rank_reclaimed():
    """A dead rank's dynamic attach list is deregistered by recovery."""
    import numpy as np

    def program(ctx):
        win = yield from ctx.rma.win_create_dynamic()
        if ctx.rank == 1:
            seg = ctx.space.alloc(512, label="dyn")
            yield from win.attach(seg)
            yield ctx.env.timeout(10_000_000)
        else:
            yield ctx.env.timeout(200_000)
        return "ok"

    res = run_spmd(program, 2, machine=INTER,
                   faults=crash_plan((1, 50_000)))
    assert res.returns[0] == "ok"
    assert res.stats["recovery"]["regions_reclaimed"] >= 1


# ---------------------------------------------------------------------------
# application-level containment: hashtable owner crash
# ---------------------------------------------------------------------------
def test_hashtable_owner_crash_contained():
    """Crash a hashtable owner mid-insert volley: survivors either finish
    or abort with a structured FaultError -- the run always terminates."""
    from repro.apps.hashtable.common import HashTableLayout, random_keys
    from repro.apps.hashtable.rma_ht import rma_insert

    layout = HashTableLayout(table_slots=64, heap_cells=128)

    def program(ctx):
        win = yield from ctx.rma.win_allocate(layout.nbytes, disp_unit=8)
        keys = random_keys(ctx.rng("ht-keys"), 32)
        yield from win.lock_all()
        inserted = 0
        try:
            for k in keys:
                yield from rma_insert(win, layout, int(k))
                inserted += 1
        except FaultError as exc:
            return ("aborted", inserted, type(exc).__name__)
        yield from win.unlock_all()
        return ("done", inserted)

    res = run_spmd(program, 4, machine=INTER,
                   faults=crash_plan((2, 80_000)))
    assert isinstance(res.returns[2], NodeCrashedError)
    outcomes = [res.returns[r] for r in (0, 1, 3)]
    # Any survivor that addressed the dead owner aborted structurally.
    assert all(o[0] in ("done", "aborted") for o in outcomes)
    assert any(o[0] == "aborted" for o in outcomes)


# ---------------------------------------------------------------------------
# determinism: recovered runs replay bit-identically
# ---------------------------------------------------------------------------
def test_recovered_run_replays_bit_identically():
    a = run_spmd(_mcs_victim_program, 4, 2, machine=INTER,
                 faults=crash_plan((2, 50_000)))
    b = run_spmd(_mcs_victim_program, 4, 2, machine=INTER,
                 faults=crash_plan((2, 50_000)))
    assert _fingerprint(a) == _fingerprint(b)

    c = run_spmd(_exclusive_holder_program, 3, machine=INTER,
                 faults=crash_plan((1, 50_000)))
    d = run_spmd(_exclusive_holder_program, 3, machine=INTER,
                 faults=crash_plan((1, 50_000)))
    assert _fingerprint(c) == _fingerprint(d)


def test_recovery_terminates_under_strict_watchdog(monkeypatch):
    """The whole point: with the watchdog armed aggressively, recovery
    finishes without tripping LivelockError or the event backstop."""
    monkeypatch.setattr(world_module, "WATCHDOG_INTERVAL", 256)
    monkeypatch.setattr(world_module, "WATCHDOG_STALLS", 8)
    try:
        res = run_spmd(_exclusive_holder_program, 3, machine=INTER,
                       faults=crash_plan((1, 50_000)))
    except LivelockError as exc:  # pragma: no cover - the failure mode
        pytest.fail(f"recovery livelocked: {exc}")
    assert res.returns[0] == ("ok", 0)


# ---------------------------------------------------------------------------
# satellite: collective fault annotation
# ---------------------------------------------------------------------------
def test_collective_error_names_collective_and_ranks():
    def program(ctx):
        if ctx.rank == 1:
            yield ctx.env.timeout(10_000_000)
        yield ctx.env.timeout(100_000)
        with pytest.raises(NodeCrashedError) as exc:
            yield from ctx.coll.allreduce(ctx.rank)
        assert exc.value.collective == "allreduce"
        assert exc.value.collective_ranks == (0, 1)
        assert "in collective 'allreduce'" in str(exc.value)
        return "annotated"

    res = run_spmd(program, 2, machine=INTER,
                   faults=crash_plan((1, 30_000)))
    assert res.returns[0] == "annotated"


def test_collective_annotation_innermost_wins():
    """Nested collectives: the first (innermost) annotation sticks."""
    def program(ctx):
        if ctx.rank == 1:
            yield ctx.env.timeout(10_000_000)
        yield ctx.env.timeout(100_000)
        with pytest.raises(NodeCrashedError) as exc:
            # reduce_scatter_block falls back to allreduce for p=2 via
            # the non-power-of-two path only for p not power of two; for
            # p=2 it uses recursive halving -- still annotated.
            yield from ctx.coll.barrier()
        assert exc.value.collective == "barrier"
        return "ok"

    res = run_spmd(program, 2, machine=INTER,
                   faults=crash_plan((1, 30_000)))
    assert res.returns[0] == "ok"


# ---------------------------------------------------------------------------
# retransmit chains that straddle a crash
# ---------------------------------------------------------------------------
def _put_stream_program(ctx):
    import numpy as np
    win = yield from ctx.rma.win_allocate(4096)
    yield from win.lock_all()
    if ctx.rank == 0:
        data = np.ones(64, np.uint8)
        for i in range(40):
            yield from win.put(data, 1, 64 * i)
            yield from win.flush(1)
    yield from win.unlock_all()
    return "ok"


def test_crash_straddling_retransmits_convert_to_crash_error():
    """Rank 1 dies while rank 0's put stream is in flight: deliveries
    planned past the crash instant come back lost, and the origin's
    retransmit chain must surface NodeCrashedError at the first attempt
    planned past the crash, NOT a DeadlineError after exhausting all 64
    retries against a dead node (which would also reserve ~3 ms of
    injection-channel slots per op)."""
    faults = crash_plan((1, 30_000))
    res = run_spmd(_put_stream_program, 2, machine=INTER, faults=faults)
    assert isinstance(res.returns[0], NodeCrashedError)
    # Far fewer retransmits than a full 65-attempt exhaustion per put.
    assert res.stats["retransmits"] < 65
    # Deterministic replay of the recovered schedule.
    res2 = run_spmd(_put_stream_program, 2, machine=INTER, faults=faults)
    assert _fingerprint(res) == _fingerprint(res2)


# ---------------------------------------------------------------------------
# satellite: construction-time validation
# ---------------------------------------------------------------------------
def test_fault_plan_validation():
    with pytest.raises(ValueError, match="drop_prob"):
        FaultPlan(drop_prob=1.5)
    with pytest.raises(ValueError, match="delay_ns"):
        FaultPlan(delay_prob=0.1, delay_ns=-5)
    with pytest.raises(ValueError, match="negative"):
        NodeCrash(node=-1, time_ns=0)
    with pytest.raises(ValueError, match="before t=0"):
        NicStall(node=0, start_ns=-1, duration_ns=10)
    with pytest.raises(ValueError, match="not a NodeCrash"):
        FaultPlan(crashes=("node3",))


# ---------------------------------------------------------------------------
# CI fault matrix: {drop, stall, crash} x {locks, fence, pscw, accumulate}
# ---------------------------------------------------------------------------
def _locks_workload(ctx):
    win = yield from ctx.rma.win_allocate(256)
    for _ in range(3):
        yield from win.lock(0, LockType.SHARED)
        yield from win.unlock(0)
    return "ok"


def _fence_workload(ctx):
    win = yield from ctx.rma.win_allocate(256)
    for _ in range(3):
        yield from win.fence()
    return "ok"


def _pscw_workload(ctx):
    win = yield from ctx.rma.win_allocate(256)
    peer = 1 - (ctx.rank % 2) + 2 * (ctx.rank // 2)
    for _ in range(2):
        yield from win.post([peer])
        yield from win.start([peer])
        yield from win.complete()
        yield from win.wait()
    return "ok"


def _accumulate_workload(ctx):
    win = yield from ctx.rma.win_allocate(8192 * 8)
    yield from win.lock_all()
    for _ in range(3):   # MIN on float64: the software-fallback lock
        yield from win.accumulate(np.ones(8192), 0, 0, Op.MIN)
        yield from win.flush(0)
    yield from win.unlock_all()
    return "ok"


_WORKLOADS = {"locks": (_locks_workload, 4), "fence": (_fence_workload, 4),
              "pscw": (_pscw_workload, 4),
              "accumulate": (_accumulate_workload, 4)}

_FAULTS = {
    "drop": FaultPlan(drop_prob=0.05),
    "stall": FaultPlan(
        stalls=(NicStall(node=1, start_ns=10_000, duration_ns=40_000),)),
    "crash": FaultPlan(crashes=(NodeCrash(node=3, time_ns=150_000),)),
    # Crash with every packet also delayed: deliveries straddle the
    # crash instant, so detection and revocation race in-flight traffic.
    "crash+delay": FaultPlan(
        delay_prob=0.3, delay_ns=8_000,
        crashes=(NodeCrash(node=3, time_ns=150_000),)),
    # Crash plus loss: retransmit chains that target the dead node must
    # convert to NodeCrashedError as soon as an attempt lands past the
    # crash instant, instead of burning the whole retry budget and
    # clogging the injection channel (DeadlineError here would mean the
    # early-exit regressed).
    "crash+rexmit": FaultPlan(
        drop_prob=0.10,
        crashes=(NodeCrash(node=3, time_ns=150_000),)),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_fault_matrix_smoke(workload, fault):
    """Every {fault} x {protocol} combination terminates: clean returns
    under recoverable faults, structured errors under crashes.  When
    REPRO_FAULT_STATS is set, appends one JSON line per cell (the CI
    fault-matrix artifact)."""
    program, nranks = _WORKLOADS[workload]
    res = run_spmd(program, nranks, machine=INTER, faults=_FAULTS[fault])
    for r, ret in enumerate(res.returns):
        assert ret == "ok" or isinstance(ret, FaultError), \
            f"{workload}/{fault}: rank {r} returned {ret!r}"
    if fault.startswith("crash"):
        assert res.stats["recovery"]["failures_detected"] == 1

    out = os.environ.get("REPRO_FAULT_STATS")
    if out:
        with open(out, "a") as fh:
            fh.write(json.dumps({
                "workload": workload, "fault": fault,
                "sim_time_ns": res.sim_time_ns,
                "retransmits": res.stats.get("retransmits", 0),
                "faults": res.stats.get("faults", {}),
                "recovery": res.stats.get("recovery", {}),
            }, sort_keys=True) + "\n")


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_fault_matrix_checker_cell(workload, fault):
    """The checker-enabled cell of the fault matrix: every combination
    still terminates with the memory-model checker attached, the demo
    protocols stay race-free under faults, and the cell lands in the
    REPRO_FAULT_STATS artifact like the others."""
    from repro.config import CheckConfig

    program, nranks = _WORKLOADS[workload]
    res = run_spmd(program, nranks, machine=INTER, faults=_FAULTS[fault],
                   check=CheckConfig(enabled=True))
    for r, ret in enumerate(res.returns):
        assert ret == "ok" or isinstance(ret, FaultError), \
            f"{workload}/{fault}+check: rank {r} returned {ret!r}"
    ck = res.check
    assert ck is not None and ck.clean, \
        f"{workload}/{fault}+check: {[v.describe() for v in ck.violations]}"

    out = os.environ.get("REPRO_FAULT_STATS")
    if out:
        with open(out, "a") as fh:
            fh.write(json.dumps({
                "workload": workload, "fault": fault, "checker": True,
                "sim_time_ns": res.sim_time_ns,
                "check": res.stats.get("check", {}),
            }, sort_keys=True) + "\n")
