"""KvStore operation semantics: layout, paths (table/heap/update),
chain walks, misses, and cross-rank correctness."""

import numpy as np
import pytest

from repro.apps.hashtable.common import claim_overflow_cell
from repro.apps.kvstore.layout import KvLayout
from repro.apps.kvstore.rma_kv import KvStore
from repro.config import FaultPlan, MachineConfig
from repro.runtime.job import run_spmd

MACHINE = MachineConfig(ranks_per_node=1)


def _run(program, nranks=1, *args, **kwargs):
    res = run_spmd(program, nranks, *args, machine=MACHINE, **kwargs)
    for r in res.returns:
        if isinstance(r, BaseException):
            raise r
    return res


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
def test_layout_word_geometry():
    lay = KvLayout(table_slots=4, heap_cells=8)
    assert lay.words == 1 + 12 + 24
    assert lay.slot_key(0) == 1
    assert lay.slot_head(3) == 3 + 9
    assert lay.heap_key(1) == 1 + 12            # first cell is 1-based
    assert lay.heap_next(8) == lay.words - 1


def test_layout_scan_reads_slots_and_chains():
    lay = KvLayout(table_slots=1, heap_cells=4)
    vol = np.zeros(lay.words, dtype=np.int64)
    vol[lay.slot_key(0)], vol[lay.slot_value(0)] = 10, 100
    vol[lay.slot_head(0)] = 2
    vol[lay.heap_key(2)], vol[lay.heap_value(2)] = 11, 110
    vol[lay.heap_next(2)] = 1
    vol[lay.heap_key(1)], vol[lay.heap_value(1)] = 12, 120
    assert lay.scan(vol) == {10: 100, 11: 110, 12: 120}


def test_claim_overflow_cell_exhaustion():
    assert claim_overflow_cell(0, 2) == 1
    assert claim_overflow_cell(1, 2) == 2
    with pytest.raises(OverflowError):
        claim_overflow_cell(2, 2)


# ----------------------------------------------------------------------
# single-rank op semantics (table_slots=1 forces chains)
# ----------------------------------------------------------------------
def test_ops_single_rank_forced_chains():
    lay = KvLayout(table_slots=1, heap_cells=16)

    def program(ctx):
        store = KvStore(ctx, lay, n_stripes=1)
        yield from store.setup()
        log = {}
        # every key maps to slot 0: first insert takes the table slot,
        # the rest go to the overflow heap
        log["paths"] = []
        for key in (3, 5, 9, 17):
            path = yield from store.put(key, key * 100)
            log["paths"].append(path)
        log["get_heap"] = yield from store.get(9)
        log["miss"] = yield from store.get(1234)
        # overwrite resolves in place for both table and heap residents
        log["over_table"] = yield from store.put(3, 42)
        log["over_heap"] = yield from store.put(17, 43)
        log["get_over"] = yield from store.get(17)
        # CAS-update on present key; update-on-missing inserts the delta
        log["upd"] = yield from store.update(5, 7)
        log["upd_missing"] = yield from store.update(77, 9)
        log["get_upd_missing"] = yield from store.get(77)
        yield from ctx.coll.barrier()
        log["scan"] = store.scan_local()
        yield from store.close()
        return log

    res = _run(program, 1)
    log = res.returns[0]
    assert log["paths"] == ["table", "heap", "heap", "heap"]
    assert log["get_heap"] == 900
    assert log["miss"] is None
    assert log["over_table"] == "update" and log["over_heap"] == "update"
    assert log["get_over"] == 43
    assert log["upd"] == 507
    assert log["upd_missing"] == 9
    assert log["get_upd_missing"] == 9
    assert log["scan"] == {3: 42, 5: 507, 9: 900, 17: 43, 77: 9}


def test_chain_hops_observed():
    from repro.config import ObsConfig

    lay = KvLayout(table_slots=1, heap_cells=16)

    def program(ctx):
        store = KvStore(ctx, lay, n_stripes=1)
        yield from store.setup()
        for key in (3, 5, 9):
            yield from store.put(key, key)
        yield from store.get(9)
        yield from ctx.coll.barrier()
        yield from store.close()

    res = run_spmd(program, 1, machine=MACHINE,
                   obs=ObsConfig(enabled=True))
    hist = res.obs.metrics.merged_histogram("kv.chain_hops")
    assert hist.snapshot()["count"] > 0


def test_key_validation():
    lay = KvLayout(table_slots=1, heap_cells=4)

    def program(ctx):
        store = KvStore(ctx, lay)
        yield from store.setup()
        caught = []
        for bad in (0, -3, 1 << 63):
            try:
                yield from store.get(bad)
            except ValueError:
                caught.append(bad)
        yield from ctx.coll.barrier()
        yield from store.close()
        return caught

    res = _run(program, 1)
    assert res.returns[0] == [0, -3, 1 << 63]


def test_bad_stripes_rejected():
    with pytest.raises(ValueError):
        KvStore(None, KvLayout(table_slots=1, heap_cells=4), n_stripes=0)


# ----------------------------------------------------------------------
# cross-rank
# ----------------------------------------------------------------------
def test_cross_rank_puts_and_gets():
    """Each rank writes its own key range, reads everyone else's; the
    union of the final partitions is exactly the written map."""
    lay = KvLayout.default(16)
    nranks, per_rank = 4, 8

    def program(ctx):
        store = KvStore(ctx, lay)
        yield from store.setup()
        for i in range(per_rank):
            key = 1 + ctx.rank * per_rank + i
            yield from store.put(key, key * 10)
        yield from store.win.flush_all()
        yield from ctx.coll.barrier()
        got = {}
        for key in range(1, nranks * per_rank + 1):
            got[key] = yield from store.get(key)
        yield from store.win.flush_all()
        yield from ctx.coll.barrier()
        part = store.scan_local()
        yield from store.close()
        return got, part

    res = _run(program, nranks)
    expect = {k: k * 10 for k in range(1, nranks * per_rank + 1)}
    merged = {}
    for got, part in res.returns:
        assert got == expect
        merged.update(part)
    assert merged == expect


# ----------------------------------------------------------------------
# lock-free data plane under contention
# ----------------------------------------------------------------------
def _keys_owned_by(owner, nranks, count, table_slots=1):
    from repro.apps.hashtable.common import place_key

    keys, k = [], 1
    while len(keys) < count:
        if place_key(k, nranks, table_slots)[0] == owner:
            keys.append(k)
        k += 1
    return keys


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_hot_key_stress_never_exposes_a_half_written_entry(seed):
    """Four ranks hammer two hot keys (one with CAS-updates, one with
    overwrites, both with gets) while two others grow the *same* chain
    with inserts.  Chains grow at the head and the hot keys sit at the
    tail, so every hot access walks through the freshly linked cells: a
    cell published before its ``next`` would show up as a miss.  One
    inserter also claims the empty table slots of ranks 1-3 while a
    seventh rank polls them back to back (a key published before its
    value would show up as a zero), then walks the chain back to back.
    A quarter of the packets arrive 5 us late, drawn per seed, which
    also runs the atomic reads over the resilient transport."""
    from repro.check.runner import run_checked

    nranks, rounds, inserts = 7, 6, 8
    lay = KvLayout(table_slots=1, heap_cells=64)
    first, hot_upd, hot_put, *fresh = _keys_owned_by(
        0, nranks, 3 + 2 * inserts)
    late = [_keys_owned_by(owner, nranks, 1)[0] for owner in (1, 2, 3)]
    init = 1000
    put_values = {(r, i): 10_000 + 100 * r + i
                  for r in range(nranks) for i in range(rounds)}

    def program(ctx):
        store = KvStore(ctx, lay, n_stripes=2)
        yield from store.setup()
        if ctx.rank == 0:
            for key in (first, hot_upd, hot_put):   # hot keys: chain tail
                yield from store.put(key, init)
        yield from ctx.coll.barrier()
        seen, mine = [], 0
        if ctx.rank < 4:
            for i in range(rounds):
                seen.append((yield from store.get(hot_upd)))
                delta = ctx.rank * rounds + i + 1
                mine += delta
                yield from store.update(hot_upd, delta)
                yield from store.put(hot_put, put_values[ctx.rank, i])
                seen.append((yield from store.get(hot_put)))
        elif ctx.rank == 6:
            for key in late:
                for _ in range(2000):       # bounded: a lost key fails
                    got = yield from store.get(key)
                    if got is not None:
                        break
                seen.append(got)
            for _ in range(40):             # then walks the growing chain
                seen.append((yield from store.get(hot_upd)))
        else:
            if ctx.rank == 4:
                for key in late:            # while rank 6 polls for them
                    yield from store.put(key, init)
            for key in fresh[ctx.rank - 4::2]:
                yield from store.put(key, key)
                seen.append((yield from store.get(key)))   # own insert
                seen.append((yield from store.get(hot_upd)))
        yield from store.win.flush_all()
        yield from ctx.coll.barrier()
        part = store.scan_local()
        yield from store.close()
        return seen, mine, part

    res, ck = run_checked(program, nranks, seed=seed,
                          faults=FaultPlan(delay_prob=0.25, delay_ns=5_000))
    assert ck.clean, [v.describe() for v in ck.violations]
    total = 0
    for seen, mine, _part in res.returns:
        assert None not in seen and 0 not in seen
        total += mine
    final = res.returns[0][2]
    assert final[hot_upd] == init + total          # no update was lost
    assert final[hot_put] in put_values.values()
    assert {k: final[k] for k in fresh} == {k: k for k in fresh}
    assert len(final) == 3 + len(fresh)            # no duplicate entries
    for owner, key in zip((1, 2, 3), late):
        assert res.returns[owner][2] == {key: init}
