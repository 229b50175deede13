"""Failure injection: erroneous programs must fail loudly, not hang.

The MPI spec forbids cyclically-waiting configurations (paper Section
2.5); the simulator turns them into immediate
:class:`~repro.errors.DeadlockError` / backstop aborts with diagnostics
rather than silent hangs -- these tests inject such bugs on purpose.
"""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import MachineConfig, SimConfig
from repro.errors import (
    DeadlockError,
    LivelockError,
    Mpi1Error,
    RegistrationError,
    SimulationError,
)

INTER = MachineConfig(ranks_per_node=1)


def test_pscw_cyclic_start_deadlocks():
    """Both ranks start() without anyone posting: the forbidden cyclic
    wait -- detected as a deadlock, not a hang."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from win.start([1 - ctx.rank])
        yield from win.complete()

    with pytest.raises(DeadlockError) as exc:
        run_spmd(program, 2, machine=INTER)
    assert exc.value.blocked == 2
    # Diagnostics name the stuck ranks and their last API call site.
    assert exc.value.blocked_ranks == ("rank0", "rank1")
    assert exc.value.sites["rank0"] == "win.start(group=[1])"
    assert exc.value.sites["rank1"] == "win.start(group=[0])"
    assert "rank0 [win.start(group=[1])]" in str(exc.value)


def test_recv_without_send_deadlocks():
    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.mpi.recv(1, tag=9)

    with pytest.raises(DeadlockError) as exc:
        run_spmd(program, 2, machine=INTER)
    assert exc.value.blocked_ranks == ("rank0",)
    assert exc.value.sites["rank0"] == "mpi.recv(src=1, tag=9)"


def test_unmatched_issend_and_wildcard_recv_name_their_sites():
    """A synchronous send nobody receives and a receive with both
    wildcards: the report formats each rank's last MPI-1 call."""
    def program(ctx):
        if ctx.rank == 0:
            req = yield from ctx.mpi.issend(1, 5, tag=7)
            yield from req.wait()
        elif ctx.rank == 2:
            yield from ctx.mpi.recv()

    with pytest.raises(DeadlockError) as exc:
        run_spmd(program, 3, machine=INTER)
    assert exc.value.blocked_ranks == ("rank0", "rank2")
    assert exc.value.sites == {"rank0": "mpi.isend(dest=1, tag=7, 8B)",
                               "rank2": "mpi.recv(src=ANY, tag=ANY)"}


def test_mismatched_collective_deadlocks():
    """One rank skips a barrier: classic SPMD bug."""
    def program(ctx):
        if ctx.rank != 1:
            yield from ctx.coll.barrier()

    with pytest.raises(DeadlockError):
        run_spmd(program, 3, machine=INTER)


def test_lock_livelock_hits_backstop():
    """A never-released exclusive lock spins the waiter forever.  The
    progress watchdog converts this into a :class:`LivelockError` naming
    the spinning ranks -- in a small fraction of the 40k-event budget the
    ``max_events`` backstop used to need."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from ctx.coll.barrier()
        from repro.rma.enums import LockType

        if ctx.rank == 0:
            yield from win.lock(2, LockType.EXCLUSIVE)
            # bug: never unlocks; rank 1 retries forever
            yield from ctx.compute(1)
        else:
            yield from ctx.compute(5_000)
            yield from win.lock(2, LockType.EXCLUSIVE)
            yield from win.unlock(2)

    with pytest.raises(LivelockError) as exc:
        run_spmd(program, 3, machine=INTER,
                 sim=SimConfig(max_events=40_000))
    # Detected far earlier than the 40k max_events backstop ...
    assert exc.value.events < 4_000
    # ... and the diagnostic names the rank spinning in lock().
    assert "rank1" in exc.value.blocked_ranks
    assert "win.lock" in exc.value.sites["rank1"]


@pytest.mark.parametrize("poll_op", ["NO_OP", "SUM"])
def test_atomics_only_polling_is_not_a_livelock(poll_op):
    """A lock-free program may consist of nothing but fetching atomics:
    here rank 1 polls a flag with atomic reads (or fetch-and-add 0) for
    thousands of events while rank 0 computes, then publishes it with a
    CAS.  Each completed
    Window-level fetching atomic hands its caller a value to act on, so
    it counts as progress -- unlike the lock protocol's internal AMOs in
    the test above, which spin without telling anyone."""
    from repro.rma.enums import Op

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64, disp_unit=8)
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        polls = 0
        if ctx.rank == 0:
            yield from ctx.compute(4_000_000)
            yield from win.compare_and_swap(np.int64(0), np.int64(1), 0, 0)
        else:
            while True:
                got = yield from win.fetch_and_op(np.int64(0), 0, 0,
                                                  Op[poll_op])
                polls += 1
                if got == 1:
                    break
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        return polls

    res = run_spmd(program, 2, machine=INTER)
    # far more events than the 3 x 800 the watchdog tolerates unmarked
    assert res.returns[1] > 1000 and res.events_processed > 4_000


def test_watchdog_can_be_disabled():
    """watchdog_interval=0 restores the old backstop-only behaviour."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from ctx.coll.barrier()
        from repro.rma.enums import LockType

        if ctx.rank == 0:
            yield from win.lock(1, LockType.EXCLUSIVE)
            yield from ctx.compute(1)
        else:
            yield from ctx.compute(5_000)
            yield from win.lock(1, LockType.EXCLUSIVE)

    with pytest.raises(SimulationError, match="max_events"):
        run_spmd(program, 2, machine=INTER,
                 sim=SimConfig(max_events=40_000, watchdog_interval=0))


def test_stale_descriptor_after_deregistration():
    """Using a raw DMAPP descriptor after the owner deregistered is the
    bug the dynamic-window cache protocol exists to prevent."""
    def program(ctx):
        seg = ctx.space.alloc(64)
        desc = ctx.reg.register(seg)
        descs = yield from ctx.coll.allgather(desc)
        yield from ctx.coll.barrier()
        if ctx.rank == 1:
            ctx.reg.deregister(desc)
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            with pytest.raises(RegistrationError):
                yield from ctx.dmapp.put_nbi(descs[1], 0,
                                             np.zeros(8, np.uint8))
        yield from ctx.coll.barrier()

    run_spmd(program, 2, machine=INTER)


def test_send_to_invalid_rank():
    def program(ctx):
        with pytest.raises(Mpi1Error):
            yield from ctx.mpi.send(99, "x")
        yield from ctx.coll.barrier()

    run_spmd(program, 2, machine=INTER)


def test_application_exception_propagates_with_rank_context():
    def program(ctx):
        yield from ctx.coll.barrier()
        if ctx.rank == 2:
            raise ValueError("injected application bug")
        yield from ctx.coll.barrier()

    with pytest.raises(ValueError, match="injected application bug"):
        run_spmd(program, 4, machine=INTER)


def test_full_stack_determinism():
    """Same seed => bit-identical behaviour across the whole stack
    (MILC solve: times, event counts, results)."""
    from repro.apps.milc import MilcSpec, milc_program

    spec = MilcSpec(local=(4, 4, 4, 4), maxiter=10, tol=0.0)

    def once():
        res = run_spmd(milc_program, 4, spec, "rma", machine=INTER)
        return (res.sim_time_ns, res.events_processed,
                [r[:3] for r in res.returns])

    assert once() == once()


def test_seed_changes_application_randomness():
    from repro.apps.dsde.common import make_targets

    t1 = make_targets(1, 0, 32, 6)
    t2 = make_targets(2, 0, 32, 6)
    assert t1 != t2
