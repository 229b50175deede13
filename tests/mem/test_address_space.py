"""Address spaces and segments."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.mem.address_space import MMAP_REGION_LO, AddressSpace, Segment


def test_alloc_and_rw():
    sp = AddressSpace(0)
    seg = sp.alloc(64, label="x")
    seg.write(0, np.arange(8, dtype=np.uint8))
    assert seg.read(0, 8).tolist() == list(range(8))
    assert seg.read(2, 3).tolist() == [2, 3, 4]


def test_write_view_typed():
    sp = AddressSpace(0)
    seg = sp.alloc(64)
    seg.typed(np.int64)[0] = -5
    assert seg.typed(np.int64)[0] == -5
    v = seg.view(0, 8)
    v[:] = 255
    assert seg.read(0, 1)[0] == 255


def test_out_of_range_access():
    sp = AddressSpace(0)
    seg = sp.alloc(16)
    with pytest.raises(MemoryError_):
        seg.read(10, 10)
    with pytest.raises(MemoryError_):
        seg.write(-1, b"x")
    with pytest.raises(MemoryError_):
        seg.typed(np.int64, offset=0, count=3)


def test_freed_segment_access_raises():
    sp = AddressSpace(0)
    seg = sp.alloc(16)
    sp.free(seg)
    with pytest.raises(MemoryError_):
        seg.read(0, 1)
    with pytest.raises(MemoryError_):
        sp.free(seg)  # double free


def test_alloc_at_collision_returns_none():
    sp = AddressSpace(0)
    seg = sp.alloc(0x2000)
    assert sp.alloc_at(seg.vaddr, 16) is None
    assert sp.alloc_at(seg.vaddr + 0x1000, 0x2000) is None  # overlap tail
    other = sp.alloc_at(seg.vaddr + 0x10000, 16)
    assert other is not None


def test_alloc_at_out_of_region():
    sp = AddressSpace(0)
    assert sp.alloc_at(0x1000, 16) is None  # below MMAP_REGION_LO


def test_segment_at_resolution():
    """An address inside a mapped segment is taken: MAP_FIXED over it
    fails, one byte past the segment's end it succeeds."""
    sp = AddressSpace(0)
    seg = sp.alloc(256)
    assert sp.segments[seg.seg_id] is seg
    assert sp.alloc_at(seg.vaddr + 100, 8) is None
    assert sp.alloc_at(seg.vaddr + 256, 8) is not None


def test_reserved_bytes_accounting():
    """free() releases exactly the freed range: it can be mapped again,
    the other segment's range stays reserved."""
    sp = AddressSpace(0)
    a = sp.alloc(100)
    b = sp.alloc(200)
    assert sp.alloc_at(a.vaddr, 100) is None
    sp.free(a)
    assert sp.alloc_at(a.vaddr, 100) is not None
    assert sp.alloc_at(b.vaddr, 200) is None


def test_negative_size_rejected():
    with pytest.raises(MemoryError_):
        Segment(0, 1, MMAP_REGION_LO, -1)


@given(st.lists(st.integers(1, 4096), min_size=1, max_size=30))
def test_allocations_never_overlap(sizes):
    sp = AddressSpace(0)
    segs = [sp.alloc(s) for s in sizes]
    spans = sorted((s.vaddr, s.vaddr + s.size) for s in segs)
    for (lo1, hi1), (lo2, _hi2) in zip(spans, spans[1:]):
        assert hi1 <= lo2
