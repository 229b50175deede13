"""End-to-end checker behaviour: every seeded racy demo is flagged with
the right violation class and conflicting-access pair; every clean demo
(and the four obs workloads) comes back spotless; results are
deterministic per seed."""

import numpy as np
import pytest

from repro.check.runner import run_checked
from repro.rma.datatypes import BYTE, Vector
from repro.workloads import WORKLOADS, run_workload

RACY = {n: wl.expect for n, wl in WORKLOADS.items() if wl.expect}
CLEAN = [n for n in WORKLOADS if n not in RACY]
#: Two-sided only: no RMA access for the checker to record.
TWO_SIDED = ("rendezvous", "hashtable_mpi1", "milc_mpi1", "dsde_nbx")


def _checked(name, seed=11):
    return run_workload(name, nranks=4, seed=seed, check=True).check


@pytest.mark.parametrize("name", sorted(RACY))
def test_racy_demo_flagged_with_expected_kind(name):
    ck = _checked(name)
    assert not ck.clean, f"{name}: checker missed the seeded race"
    kinds = {v.kind for v in ck.violations}
    assert kinds == {RACY[name]}, \
        f"{name}: got {kinds}, expected {{{RACY[name]!r}}}"


@pytest.mark.parametrize("name", sorted(CLEAN))
def test_clean_workload_has_zero_violations(name):
    ck = _checked(name)
    assert ck.clean, \
        f"{name}: false positives: {[v.describe() for v in ck.violations]}"
    assert ck.accesses_seen > 0 or name in ("fence", "pscw", "locks",
                                            "putget") + TWO_SIDED


def test_put_put_pair_identifies_both_writers():
    """The report names the two conflicting accesses with rank, kind,
    epoch and timestamp -- the paper-mandated debugging payload."""
    ck = _checked("racy_put_put")
    for v in ck.violations:
        assert v.first.kind == "put" and v.second.kind == "put"
        assert v.first.rank != v.second.rank
        assert v.target == 0 and (v.lo, v.hi) == (0, 8)
        assert v.first.epoch == "lock_all"
        assert v.second.t_ns >= v.first.t_ns >= 0
        text = v.describe()
        assert f"rank {v.first.rank}" in text
        assert f"rank {v.second.rank}" in text


def test_acc_mix_pair_names_both_ops():
    ck = _checked("racy_acc_mix")
    for v in ck.violations:
        assert {v.first.op, v.second.op} == {"sum", "replace"}
        assert v.first.is_acc and v.second.is_acc


def test_atomic_nonatomic_pair():
    ck = _checked("racy_atomic_nonatomic")
    for v in ck.violations:
        kinds = {v.first.kind, v.second.kind}
        assert "put" in kinds and (kinds & {"fao"})


def test_local_remote_pair_attributes_target_side_access():
    ck = _checked("racy_local")
    assert any({v.first.kind, v.second.kind} == {"local_load", "put"}
               for v in ck.violations)
    for v in ck.violations:
        local = v.first if v.first.is_local else v.second
        assert local.rank == 0 == local.target


def test_msg_sync_orders_mixed_two_sided_one_sided():
    """Satellite: MPI-1 send/recv match points feed the vector-clock
    engine, so a put ordered by a message edge is not a race -- and the
    control twin (message sent before the put) still is."""
    ck = _checked("clean_msg_sync")
    assert ck.clean, [v.describe() for v in ck.violations]
    assert ck.msg_edges >= 1

    ck = _checked("racy_msg_nosync")
    assert {v.kind for v in ck.violations} == {"local-remote"}


def test_same_origin_pair_shares_oseq():
    """The two unflushed puts carry the same operation-sequence number;
    the clean twin's flush separates them."""
    ck = _checked("racy_same_origin")
    for v in ck.violations:
        assert v.first.rank == v.second.rank
        assert v.first.oseq == v.second.oseq
    ck = _checked("clean_same_origin")
    assert ck.clean


@pytest.mark.parametrize("flushed", [False, True],
                         ids=["unflushed", "flushed"])
def test_barrier_orders_another_origins_put_only_once_completed(flushed):
    """A barrier completes no RMA operation: rank 0's put still in flight
    across it may land before or after rank 2's put to the same bytes
    (``put-put``).  Flushed before the barrier, it is ordered."""

    def program(ctx):
        win = yield from ctx.rma.win_allocate(64)
        yield from win.lock_all()
        if ctx.rank == 0:
            yield from win.put(np.ones(8, np.uint8), 1, 0)
            if flushed:
                yield from win.flush_all()
        yield from ctx.coll.barrier()
        if ctx.rank == 2:
            yield from win.put(np.full(8, 2, np.uint8), 1, 0)
        yield from win.flush_all()
        yield from win.unlock_all()
        yield from ctx.coll.barrier()

    _res, ck = run_checked(program, 3)
    if flushed:
        assert ck.clean, [v.describe() for v in ck.violations]
        return
    assert [v.kind for v in ck.violations] == ["put-put"]
    v = ck.violations[0]
    assert (v.first.rank, v.second.rank, v.lo, v.hi) == (0, 2, 0, 8)


def test_strided_interleaved_disjoint_is_not_a_race():
    """Satellite: interleaving-but-non-overlapping vector datatypes from
    two origins never alias byte-wise -> zero violations."""
    ck = _checked("clean_strided")
    assert ck.clean
    assert ck.accesses_seen > 0


def test_interleaved_range_sets_do_not_overlap():
    """The range-set predicate underneath: even/odd 8-byte lanes of a
    stride-16 vector interleave without byte overlap."""
    from repro.check.core import _overlaps

    even = tuple((16 * i, 16 * i + 8) for i in range(4))
    odd = tuple((16 * i + 8, 16 * i + 16) for i in range(4))
    assert not _overlaps(even, odd)
    assert _overlaps(even, even)
    assert _overlaps(even, ((4, 12),))


def test_strided_overlapping_is_a_race():
    """Control for the test above: same vector type, same displacement
    -> every lane collides and the put-put race is reported."""

    def program(ctx):
        win = yield from ctx.rma.win_allocate(16 * 8)
        yield from win.lock_all()
        vec = Vector(8, 8, 16, BYTE)
        data = np.full(64, ctx.rank, np.uint8)
        if ctx.rank in (1, 2):
            yield from win.put(data, 0, 0, target_datatype=vec, count=1)
        yield from win.flush(0)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        yield from win.free()

    _, ck = run_checked(program, nranks=4, seed=11)
    assert {v.kind for v in ck.violations} == {"put-put"}


def test_violations_deterministic_per_seed():
    def sig(ck):
        return [(v.kind, v.target, v.lo, v.hi, v.count,
                 v.first.rank, v.second.rank, v.first.t_ns, v.second.t_ns)
                for v in ck.violations]

    a = _checked("racy_put_put", seed=23)
    b = _checked("racy_put_put", seed=23)
    assert sig(a) == sig(b)


def test_duplicate_pairs_deduplicate_with_count():
    """The same (kinds, ranks, ops) signature repeats -> one Violation
    with count > 1, not a flood."""

    def program(ctx):
        win = yield from ctx.rma.win_allocate(8)
        yield from win.lock_all()
        if ctx.rank < 2:
            for _ in range(3):
                yield from win.put(np.full(8, ctx.rank, np.uint8), 0, 0)
                yield from win.flush(0)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        yield from win.free()

    _, ck = run_checked(program, nranks=4, seed=11)
    assert len(ck.violations) == 1
    assert ck.violations[0].count > 1
    assert "(x" in ck.violations[0].describe()


def test_full_barrier_prunes_shadow_records():
    def program(ctx):
        win = yield from ctx.rma.win_allocate(8 * ctx.nranks)
        yield from win.lock_all()
        yield from win.put(np.full(8, 1, np.uint8), 0, 8 * ctx.rank)
        yield from win.flush(0)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()   # global ordering point
        yield from ctx.coll.barrier()   # second one observes the prune
        yield from win.free()

    _, ck = run_checked(program, nranks=4, seed=11)
    assert ck.clean
    assert ck.pruned > 0


def test_barrier_does_not_complete_an_origins_puts():
    """A barrier orders ranks but completes no RMA operation: rank 0's
    second put to the same bytes still races its first one."""

    def program(ctx, barrier: bool):
        win = yield from ctx.rma.win_allocate(8)
        yield from win.lock_all()
        if ctx.rank == 0:
            yield from win.put(np.full(8, 1, np.uint8), 1, 0)
        if barrier:
            yield from ctx.coll.barrier()
        if ctx.rank == 0:
            yield from win.put(np.full(8, 2, np.uint8), 1, 0)
            yield from win.flush_all()
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        yield from win.free()

    for barrier in (False, True):
        _, ck = run_checked(program, nranks=2, seed=11, barrier=barrier)
        assert {v.kind for v in ck.violations} == {"same-origin"}, barrier


@pytest.mark.parametrize("nputs,offsets", [(64, 4), (256, 8)])
def test_barrier_free_stream_keeps_one_record_per_offset(nputs, offsets):
    """A put takes over the bytes of its origin's earlier puts, so a
    barrier-free stream cycling over M offsets holds at most M records."""
    live = []

    def program(ctx):
        win = yield from ctx.rma.win_allocate(8 * offsets)
        yield from win.lock_all()
        if ctx.rank == 0:
            for i in range(nputs):
                yield from win.put(np.full(8, i % 251, np.uint8), 1,
                                   8 * (i % offsets))
                yield from win.flush(1)
            live.append(ctx.world.checker.nrecords)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        yield from win.free()

    _, ck = run_checked(program, nranks=2, seed=11)
    assert ck.clean and ck.accesses_seen == nputs
    assert live and live[0] <= offsets


def test_partly_covered_record_keeps_its_other_bytes():
    """A put over half of its origin's earlier put takes only that half:
    a later unordered put to the other half still races the earlier one."""

    def program(ctx):
        win = yield from ctx.rma.win_allocate(16)
        yield from win.lock_all()
        if ctx.rank == 0:
            yield from win.put(np.full(16, 1, np.uint8), 2, 0)
            yield from win.flush(2)
            yield from win.put(np.full(8, 2, np.uint8), 2, 0)
            yield from win.flush(2)
        elif ctx.rank == 1:
            yield from ctx.compute(100_000)     # after both of rank 0's
            yield from win.put(np.full(8, 3, np.uint8), 2, 8)
            yield from win.flush(2)
        yield from win.unlock_all()
        yield from ctx.coll.barrier()
        yield from win.free()

    _, ck = run_checked(program, nranks=3, seed=11)
    (v,) = ck.violations
    assert (v.kind, v.lo, v.hi, v.count) == ("put-put", 8, 16, 1)
    assert (v.first.rank, v.first.ranges) == (0, ((8, 16),))


def test_stats_snapshot_shape():
    ck = _checked("racy_put_put")
    s = ck.stats_snapshot()
    assert s["violations"] >= s["unique"] >= 1
    assert s["by_kind"] == {"put-put": s["violations"]}
    assert s["accesses"] == s["live_records"] + s["pruned_records"] > 0


def test_run_result_carries_check_stats():
    res = run_workload("clean_put_put", nranks=4, seed=11, check=True)
    assert res.check.clean
    assert res.stats["check"]["violations"] == 0


def test_unknown_workload_lists_choices():
    with pytest.raises(ValueError, match="racy_put_put"):
        run_workload("nope")
