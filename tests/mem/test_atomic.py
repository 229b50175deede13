"""64-bit atomic words: ops, wrap-around, watchers, AMO streams."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.mem.address_space import AddressSpace, control_words
from repro.mem.atomic import (
    MASK64,
    SegmentCells,
    amo_result,
    prepare_stream,
)


@pytest.fixture
def cells(env):
    return control_words(env, 8, name="t")


def test_load_store(cells):
    cells.store(0, 42)
    assert cells.load(0) == 42
    assert len(cells) == 8


def test_fadd_returns_old(cells):
    assert cells.fadd(1, 5) == 0
    assert cells.fadd(1, 3) == 5
    assert cells.load(1) == 8


def test_fadd_negative_wraps(cells):
    cells.store(0, 1)
    cells.fadd(0, -2)
    assert cells.load(0) == MASK64  # two's complement wrap


def test_cas(cells):
    assert cells.cas(0, 0, 7) == 0
    assert cells.load(0) == 7
    assert cells.cas(0, 0, 9) == 7  # fails, returns current
    assert cells.load(0) == 7


def test_swap(cells):
    cells.store(0, 3)
    assert cells.swap(0, 10) == 3
    assert cells.load(0) == 10


@pytest.mark.parametrize("op,a,b,expect", [
    ("add", 5, 3, 8),
    ("and", 0b1100, 0b1010, 0b1000),
    ("or", 0b1100, 0b1010, 0b1110),
    ("xor", 0b1100, 0b1010, 0b0110),
    ("min", 5, 3, 3),
    ("min", 3, 5, 3),
    ("max", 5, 3, 5),
    ("replace", 5, 3, 3),
])
def test_apply_ops(cells, op, a, b, expect):
    cells.store(0, a)
    assert cells.apply(0, op, b) == a
    assert cells.load(0) == expect


def test_signed_min_max(cells):
    cells.store(0, MASK64)  # -1 signed
    cells.apply(0, "min", 5)
    assert cells.load(0) == MASK64
    cells.apply(0, "max", 5)
    assert cells.load(0) == 5


def test_unknown_op_rejected(cells):
    with pytest.raises(MemoryError_):
        cells.apply(0, "mul", 2)


def test_index_bounds(cells):
    # Past the end raises from the word view.  No caller forms a negative
    # index: each is an IDX_* constant, a ring slot or an MCS base + idx.
    with pytest.raises(IndexError):
        cells.load(8)
    with pytest.raises(IndexError):
        cells.fadd(8, 1)


def test_watcher_immediate(env, cells):
    cells.store(2, 10)
    ev = cells.wait_until(2, lambda v: v >= 10)
    assert ev.triggered and ev.value == 10


def test_watcher_fires_on_mutation(env, cells):
    fired = {}

    def waiter():
        val = yield cells.wait_until(3, lambda v: v >= 2)
        fired["val"] = val
        fired["t"] = env.now

    def mutator():
        yield env.timeout(10)
        cells.fadd(3, 1)
        yield env.timeout(10)
        cells.fadd(3, 1)  # now the predicate holds

    env.process(waiter())
    env.process(mutator())
    env.run()
    assert fired == {"val": 2, "t": 20}


def test_watcher_multiple_waiters(env, cells):
    hits = []

    def waiter(th):
        yield cells.wait_until(0, lambda v, t=th: v >= t)
        hits.append(th)

    env.process(waiter(1))
    env.process(waiter(3))

    def mutate():
        yield env.timeout(1)
        cells.fadd(0, 2)   # wakes threshold 1 only
        yield env.timeout(1)
        cells.fadd(0, 2)   # wakes threshold 3

    env.process(mutate())
    env.run()
    assert hits == [1, 3]


# ---------------------------------------------------------------------------
# SegmentCells stores and wraps like amo_result folded over Python ints
# ---------------------------------------------------------------------------
OPS = ["add", "and", "or", "xor", "min", "max", "replace"]


@given(st.lists(st.tuples(st.sampled_from(OPS),
                          st.integers(-(2**63), 2**63 - 1)),
                max_size=30))
def test_segment_cells_match_atomic_array(ops):
    sc = SegmentCells(AddressSpace(0).alloc(8))
    ref = 0
    for op, operand in ops:
        assert sc.apply(0, op, operand) == ref
        ref = amo_result(ref, op, operand)
        assert sc.load(0) == ref


def test_segment_cells_cas_fadd():
    sp = AddressSpace(0)
    seg = sp.alloc(32)
    sc = SegmentCells(seg)
    assert sc.fadd(1, 4) == 0
    assert sc.cas(1, 4, 9) == 4
    assert sc.load(1) == 9
    assert sc.swap(2, 3) == 0
    # word 1 is bytes 8-15: the first 8 bytes of the segment are untouched
    assert seg.read(0, 8).tolist() == [0] * 8


def test_segment_cells_unknown_op():
    sp = AddressSpace(0)
    seg = sp.alloc(8)
    with pytest.raises(MemoryError_):
        SegmentCells(seg).apply(0, "nand", 1)


# ---------------------------------------------------------------------------
# AMO streams: one array update equals amo_result element by element
# ---------------------------------------------------------------------------
STREAM_OPS = ["add", "and", "or", "xor", "replace", "fetch"]
WORDS = 8
_int64s = st.lists(st.integers(-(2**63), 2**63 - 1), max_size=WORDS).map(
    lambda v: np.array(v, np.int64))
_uint64s = st.lists(st.integers(0, MASK64), max_size=WORDS).map(
    lambda v: np.array(v, np.uint64))


@given(op=st.sampled_from(STREAM_OPS),
       start=st.lists(st.integers(0, MASK64), min_size=WORDS,
                      max_size=WORDS),
       idx=st.integers(-3, WORDS + 2),
       operands=st.one_of(_int64s, _uint64s))
@example(op="add", start=[MASK64 - 1] * WORDS, idx=2,
         operands=np.array([3, 1 << 63, MASK64], np.uint64))   # wraps
@example(op="add", start=[5] * WORDS, idx=0,
         operands=np.array([-6, -(2**63)], np.int64))           # negative
@example(op="replace", start=[1] * WORDS, idx=WORDS - 1,
         operands=np.array([2, 3], np.int64))                   # past end
def test_stream_block_matches_amo_result_per_element(op, start, idx,
                                                      operands):
    """``prepare_stream`` + ``SegmentCells.apply_block`` return the old
    words and leave the memory that ``amo_result`` gives one element at a
    time; a block outside the segment raises and writes nothing."""
    seg = AddressSpace(0).alloc(8 * WORDS)
    seg.typed(np.uint64)[:] = start
    n, run = prepare_stream(SegmentCells(seg), idx, op, operands)
    assert n == len(operands)
    if idx < 0 or idx + n > WORDS:
        with pytest.raises(MemoryError_):
            run()
        assert seg.typed(np.uint64).tolist() == start
        return
    expect = list(start)
    for i, v in enumerate(operands.tolist()):
        expect[idx + i] = amo_result(start[idx + i], op, v)
    old = run()
    assert old.dtype == np.uint64
    assert old.tolist() == start[idx:idx + n]
    assert seg.typed(np.uint64).tolist() == expect


def test_stream_on_freed_segment_or_unknown_op_raises():
    space = AddressSpace(0)
    seg = space.alloc(16)
    cells = SegmentCells(seg)
    _n, run = prepare_stream(cells, 0, "min", np.ones(2, np.int64))
    with pytest.raises(MemoryError_, match="unknown"):
        run()
    space.free(seg)
    _n, run = prepare_stream(cells, 0, "add", np.ones(2, np.int64))
    with pytest.raises(MemoryError_, match="freed"):
        run()


def test_atomic_array_stream_fires_watchers_per_cell(env):
    """A stream over watched control words lands in one array update,
    then wakes the watchers cell by cell: a watcher on any cell of the
    stream sees its own cell's new value."""
    cells = control_words(env, 4)
    seen = []

    def waiter(i):
        seen.append((i, (yield cells.wait_until(i, lambda v: v > 0))))

    def stream():
        yield 10
        _n, run = prepare_stream(cells, 1, "add",
                                 np.array([5, 7], np.int64))
        seen.append(run().tolist())

    for i in (1, 2):
        env.process(waiter(i))
    env.process(stream())
    env.run()
    assert seen == [[0, 0], (1, 5), (2, 7)]
    assert cells.snapshot() == [0, 5, 7, 0]
