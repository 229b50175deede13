"""Resilience under injected faults: recovery, determinism, zero cost.

The contract of :mod:`repro.faults` and the hardened transports:

* with no :class:`FaultPlan`, runs are bit-identical to pre-fault code;
* with faults, workloads complete and produce the *same data* as a
  fault-free run (retransmits recover drops/corruption, stalls only delay);
* same seed + same plan => bit-identical replay including retry counts;
* unrecoverable faults fail fast with structured errors
  (:class:`DeadlineError`, :class:`NodeCrashedError`), never hangs.
"""

import numpy as np
import pytest

from repro import run_spmd
from repro.config import (
    FaultPlan,
    MachineConfig,
    NicStall,
    NodeCrash,
)
from repro.errors import DeadlineError, NodeCrashedError
from repro.rma.enums import Op
from repro.workloads import WORKLOADS, run_workload
from tests.test_workloads import _fingerprint

INTER = MachineConfig(ranks_per_node=1)

DROP = FaultPlan(drop_prob=0.25)
CORRUPT = FaultPlan(corrupt_prob=0.25)
STALL = FaultPlan(stalls=(NicStall(node=1, start_ns=0, duration_ns=40_000),))
DELAY = FaultPlan(delay_prob=0.3, delay_ns=4_000)

LOSSY = {"drop": DROP, "corrupt": CORRUPT}
ALL = {"drop": DROP, "corrupt": CORRUPT, "stall": STALL, "delay": DELAY}


# ---------------------------------------------------------------------------
# workloads (each returns per-rank data that must match the fault-free run)
# ---------------------------------------------------------------------------
def _hashtable_contents(faults, p=3, inserts=12):
    from repro.apps.hashtable import (
        HashTableLayout,
        rma_insert_program,
        verify_contents,
    )

    layout = HashTableLayout(table_slots=8, heap_cells=128)
    box = {}
    res = run_spmd(rma_insert_program, p, layout, inserts, box,
                   machine=INTER, faults=faults)
    volumes = [box["volumes"][r] for r in range(p)]
    keys = [box["keys"][r] for r in range(p)]
    verify_contents(layout, volumes, keys)
    contents = [sorted(layout.all_contents(v)) for v in volumes]
    return contents, res


#: The registry entries every fault class is swept over, at 2 ranks one
#: per node, under their old cell names.  Each returns data that pins
#: every byte it moved, the same on every schedule.
SWEPT = [pytest.param("put_flush", id="fig4-put"),
         pytest.param("get_flush", id="fig4-get"),
         "rendezvous", pytest.param("lock_contention", id="locks")]


def _run(workload, faults=None):
    return run_workload(workload, 2, faults=faults)


# ---------------------------------------------------------------------------
# zero cost when off
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", SWEPT)
def test_inactive_fault_config_is_bit_identical(workload):
    """``faults=None`` constructs no machinery: identical
    (sim_time, events, returns) to a run with no faults argument at all."""
    base = run_workload(workload, 2)
    off = _run(workload)
    assert _fingerprint(base) == _fingerprint(off)
    assert "retransmits" not in off.stats


def _op_mix_program(ctx):
    """Every DMAPP op kind once: a put that splits into three chunks, a
    64-element AMO stream, single AMOs (FADD, CAS) and a get."""
    from repro.rma.enums import Op

    win = yield from ctx.rma.win_allocate(70_000, disp_unit=1)
    yield from win.lock_all()
    yield from ctx.coll.barrier()
    right = (ctx.rank + 1) % ctx.nranks
    yield from win.put(np.full(70_000, ctx.rank + 1, np.uint8), right, 0)
    yield from win.flush(right)
    yield from ctx.coll.barrier()
    yield from win.accumulate(np.arange(64, dtype=np.uint64), right, 1024,
                              Op.SUM)
    old = yield from win.fetch_and_op(np.int64(5), right, 0, Op.SUM)
    swapped = yield from win.compare_and_swap(np.int64(0), np.int64(9),
                                              right, 8)
    yield from win.flush(right)
    got = np.zeros(2048, np.uint8)
    yield from win.get(got, right, 0)
    yield from win.flush(right)
    yield from ctx.coll.barrier()
    yield from win.unlock_all()
    return int(old), int(swapped), int(got.view(np.uint64).sum())


def test_empty_plan_is_bit_identical_to_no_plan():
    """An installed injector that never loses anything: every hardened
    branch of the transport must reduce to the fast path's schedule.
    (The registry programs are swept in tests/test_workloads.py; this is
    the op mix that crosses the chunking and BTE thresholds.)"""
    from repro.machine.params import GeminiParams

    kw = dict(machine=INTER, gemini=GeminiParams(max_chunk=32_768))
    base = run_spmd(_op_mix_program, 4, **kw)
    hard = run_spmd(_op_mix_program, 4, faults=FaultPlan(), **kw)
    assert _fingerprint(base) == _fingerprint(hard)
    assert hard.stats["retransmits"] == 0


# ---------------------------------------------------------------------------
# recovery: same data as the fault-free run
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("fault", sorted(ALL))
@pytest.mark.parametrize("workload", SWEPT)
def test_workloads_recover_under_faults(workload, fault):
    faults = ALL[fault]
    clean = _run(workload)
    faulty = _run(workload, faults)
    # The fault-free run's answers, and correct ones, fully recovered ...
    assert _fingerprint(faulty)[2] == _fingerprint(clean)[2]
    assert WORKLOADS[workload].verify(faulty) == 0
    # ... and the fault machinery really engaged.
    assert "retransmits" in faulty.stats
    if fault in LOSSY:
        assert faulty.stats["retransmits"] > 0
        injected = (faulty.stats["faults"]["drops"]
                    + faulty.stats["faults"]["corruptions"])
        assert injected > 0
    elif fault == "stall":
        assert faulty.stats["faults"]["stall_waits"] > 0
        assert faulty.sim_time_ns > clean.sim_time_ns
    else:  # delay
        assert faulty.stats["faults"]["delays"] > 0


@pytest.mark.parametrize("fault", sorted(LOSSY))
def test_lock_contention_recovers_with_more_ranks(fault):
    clean = run_workload("lock_contention", 4)
    faulty = run_workload("lock_contention", 4, faults=LOSSY[fault])
    assert _fingerprint(faulty)[2] == _fingerprint(clean)[2]
    expected = [b for r in range(4) for b in [r + 1] * 8]
    assert _fingerprint(faulty)[2] == [expected] * 4


@pytest.mark.parametrize("fault", sorted(LOSSY))
def test_hashtable_recovers_under_faults(fault):
    clean_contents, _ = _hashtable_contents(None)
    faulty_contents, res = _hashtable_contents(LOSSY[fault])
    assert faulty_contents == clean_contents
    assert res.stats["retransmits"] > 0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", SWEPT)
def test_faulty_runs_replay_bit_identically(workload):
    """Same seed + same plan => same drops, same retransmit counts, same
    simulated times -- the whole point of seeded fault injection."""
    def once():
        res = _run(workload, DROP)
        return (_fingerprint(res), res.stats["retransmits"],
                res.stats["faults"])

    assert once() == once()


def test_seed_changes_fault_pattern():
    a = run_workload("put_flush", 2, seed=1, faults=DROP)
    b = run_workload("put_flush", 2, seed=2, faults=DROP)
    assert ((a.stats["faults"] != b.stats["faults"])
            or (a.sim_time_ns != b.sim_time_ns))


# ---------------------------------------------------------------------------
# unrecoverable faults fail fast
# ---------------------------------------------------------------------------
def test_total_packet_loss_exhausts_retry_budget():
    """drop_prob=1.0: every (re)transmission is lost; the hardened
    transport gives up with DeadlineError instead of hanging."""
    faults = FaultPlan(drop_prob=1.0)
    descs = {}

    def program(ctx):
        seg = ctx.space.alloc(64)
        descs[ctx.rank] = ctx.reg.register(seg)
        yield from ctx.compute(10)
        if ctx.rank == 0:
            with pytest.raises(DeadlineError) as exc:
                yield from ctx.dmapp.put_nbi(descs[1], 0, np.ones(8, np.uint8))
            assert exc.value.attempts == 65  # 1 try + MAX_RETRIES (64)
            assert exc.value.target == 1
        return "done"

    res = run_spmd(program, 2, machine=INTER, faults=faults)
    assert res.returns == ["done", "done"]
    assert res.stats["faults"]["deadline_failures"] == 1


@pytest.mark.parametrize("fault", [
    FaultPlan(crashes=(NodeCrash(9, 1_000),)),
    FaultPlan(stalls=(NicStall(9, 0, 10**6),)),
], ids=["crash", "stall"])
def test_fault_on_a_node_outside_the_run_is_refused(fault):
    """A crash or stall on a node the run does not have would inject
    nothing and report the clean run; it is refused before anything is
    simulated."""
    with pytest.raises(ValueError, match="not a node of this run"):
        run_workload("put_flush", 4, faults=fault)


def test_node_crash_quarantines_and_fails_fast():
    """Fail-stop crash: the node's rank dies, later ops addressed to it
    raise NodeCrashedError immediately (no retry storm, no hang)."""
    faults = FaultPlan(crashes=(NodeCrash(node=1, time_ns=200_000),))

    def program(ctx):
        seg = ctx.space.alloc(64)
        desc = ctx.reg.register(seg)
        descs = yield from ctx.coll.allgather(desc)
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            # Before the crash: normal put, delivered.
            yield from ctx.dmapp.put_nbi(descs[1], 0, np.ones(8, np.uint8))
            yield from ctx.dmapp.gsync()
            yield from ctx.compute(1_000_000)  # node 1 dies meanwhile
            with pytest.raises(NodeCrashedError) as exc:
                yield from ctx.dmapp.put_nbi(descs[1], 0,
                                             np.ones(8, np.uint8))
            assert exc.value.node == 1
            with pytest.raises(NodeCrashedError):
                yield from ctx.mpi.send(1, "hello")
            return "survivor"
        yield from ctx.compute(10_000_000)  # killed mid-sleep
        return "unreachable"

    res = run_spmd(program, 2, machine=INTER, faults=faults)
    assert res.returns[0] == "survivor"
    assert isinstance(res.returns[1], NodeCrashedError)
    assert res.stats["faults"]["crashed_nodes"] == [1]


@pytest.mark.parametrize("op", ["put_nbi", "amo_nbi", "get_nbi",
                                "amo_stream_nbi"])
def test_op_in_flight_at_crash_fails_fast(op):
    """An op issued 300 ns before its target fail-stops: the first
    transmission is lost with the node, the retransmit finds the target
    dead and raises NodeCrashedError -- the retry budget is not burnt."""
    from repro.mem import control_words

    crash_ns = 200_000
    faults = FaultPlan(crashes=(NodeCrash(node=1, time_ns=crash_ns),))

    def program(ctx):
        seg = ctx.space.alloc(64)
        desc = ctx.reg.register(seg)
        descs = yield from ctx.coll.allgather(desc)
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            cells = control_words(ctx.env, 4)
            issue = {
                "put_nbi": lambda: ctx.dmapp.put_nbi(
                    descs[1], 0, np.ones(8, np.uint8)),
                "amo_nbi": lambda: ctx.dmapp.amo_nbi(1, cells, 0, "add", 1),
                "get_nbi": lambda: ctx.dmapp.get_nbi(descs[1], 0, 8),
                "amo_stream_nbi": lambda: ctx.dmapp.amo_stream_nbi(
                    1, cells, 0, "add", [1, 2]),
            }[op]
            yield from ctx.compute(crash_ns - 300 - ctx.now)
            with pytest.raises(NodeCrashedError) as exc:
                yield from issue()
            assert exc.value.node == 1
            return "survivor"
        yield from ctx.compute(10_000_000)  # killed mid-sleep
        return "unreachable"

    res = run_spmd(program, 2, machine=INTER, faults=faults)
    assert res.returns[0] == "survivor"
    assert res.stats["retransmits"] <= 1
    assert res.stats["faults"]["deadline_failures"] == 0


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
def test_trace_surfaces_injected_faults():
    """The run's stats count every injected drop and the retransmit that
    recovered it: with no crash and no exhausted budget, each lost
    attempt is resent exactly once."""
    res = _run("put_flush", DROP)
    faults = res.stats["faults"]
    assert faults["drops"] == res.stats["retransmits"] > 0
    assert faults["deadline_failures"] == 0
    assert _fingerprint(res)[2] == [[1] * 64, [2] * 64]


def _add_by_stream(win, ctx):
    yield from win.accumulate(np.array([1], np.uint64), 0, 0, Op.SUM)


def _add_by_single_amo(win, ctx):
    yield from win.fetch_and_op(np.int64(1), 0, 0, Op.SUM)


def _add_by_chained_amo(win, ctx):
    cells = win._target_segment(0, 0, 8)[0].cells64()
    yield from ctx.dmapp.amo_custom_nbi(0, lambda: cells.fadd(0, 1))


def _counter_total(add, faults):
    """Two ranks each add 1 to rank 0's word 16 times through ``add``;
    rank 0 reads the total back."""
    def program(ctx):
        win = yield from ctx.rma.win_allocate(8)
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        for _ in range(16):
            yield from add(win, ctx)
            yield from win.flush(0)
        yield from ctx.coll.barrier()
        if ctx.rank == 0:
            got = np.zeros(8, np.uint8)
            yield from win.get(got, 0, 0)
            yield from win.flush(0)
            total = int(got.view(np.uint64)[0])
        else:
            total = None
        yield from ctx.coll.barrier()
        yield from win.unlock_all()
        return total

    return run_spmd(program, 2, machine=INTER, faults=faults)


def test_amo_replays_are_deduplicated():
    """A lost ack must not re-apply the atomic: heavy loss on an AMO
    workload still yields the exact fault-free counter value, through
    each of DMAPP's three AMO entry points."""
    for add in (_add_by_stream, _add_by_single_amo, _add_by_chained_amo):
        clean = _counter_total(add, None)
        faulty = _counter_total(add, FaultPlan(drop_prob=0.25))
        assert clean.returns[0] == 32, add.__name__
        assert faulty.returns[0] == 32, add.__name__
        assert faulty.stats["retransmits"] > 0, add.__name__
        assert faulty.stats["faults"]["amo_replays_suppressed"] > 0, \
            add.__name__


def test_atomic_reads_survive_packet_loss():
    """The fetch-only AMO stream (MPI_NO_OP) on the hardened transport:
    under heavy loss every atomic read still returns the word a
    fetch-and-add left there, and the reads themselves change nothing."""
    faults = FaultPlan(drop_prob=0.25)
    rounds = 12

    def program(ctx):
        from repro.rma.enums import Op

        win = yield from ctx.rma.win_allocate(16, disp_unit=8)
        yield from win.lock_all()
        yield from ctx.coll.barrier()
        seen = []
        if ctx.rank == 1:
            for i in range(rounds):
                yield from win.fetch_and_op(np.int64(1), 0, 0, Op.SUM)
                got = yield from win.get_accumulate(np.zeros(2, np.int64),
                                                    0, 0, Op.NO_OP)
                seen.append(got.tolist())
        yield from win.flush_all()
        yield from ctx.coll.barrier()
        yield from win.unlock_all()
        return seen

    faulty = run_spmd(program, 2, machine=INTER, faults=faults)
    assert faulty.returns[1] == [[i + 1, 0] for i in range(rounds)]
    assert faulty.stats["retransmits"] > 0
