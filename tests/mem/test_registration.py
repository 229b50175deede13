"""Registration tables and the symmetric-heap primitives."""

import numpy as np
import pytest

from repro.errors import RegistrationError
from repro.mem.address_space import AddressSpace
from repro.mem.registration import RegistrationTable
from repro.mem.symheap import SymHeapState, propose_address, try_symmetric_alloc


def _setup():
    sp = AddressSpace(3)
    rt = RegistrationTable(3)
    return sp, rt


def test_register_resolve_roundtrip():
    sp, rt = _setup()
    seg = sp.alloc(128)
    desc = rt.register(seg)
    assert rt.resolve(desc) is seg
    assert desc.rank == 3
    assert desc.contains(seg.vaddr, 128)
    assert not desc.contains(seg.vaddr + 1, 128)


def test_foreign_memory_rejected():
    _sp, rt = _setup()
    other = AddressSpace(9).alloc(16)
    with pytest.raises(RegistrationError):
        rt.register(other)


def test_stale_descriptor_rejected():
    sp, rt = _setup()
    seg = sp.alloc(64)
    desc = rt.register(seg)
    rt.deregister(desc)
    with pytest.raises(RegistrationError):
        rt.resolve(desc)
    with pytest.raises(RegistrationError):
        rt.deregister(desc)


def test_reregistration_bumps_generation():
    sp, rt = _setup()
    seg = sp.alloc(64)
    d1 = rt.register(seg)
    d2 = rt.register(seg)
    assert d2.generation > d1.generation
    with pytest.raises(RegistrationError):
        rt.resolve(d1)  # old generation is stale
    assert rt.resolve(d2) is seg


def test_descriptor_of_a_segment_reallocated_at_the_same_address():
    """Memory freed and allocated again at the same address is a new
    registration: the old descriptor is stale, the new one resolves to
    the new segment."""
    sp, rt = _setup()
    old = sp.alloc(64)
    vaddr = old.vaddr
    old_desc = rt.register(old)
    rt.deregister(old_desc)
    sp.free(old)
    new = sp.alloc_at(vaddr, 64)
    assert new is not None and new is not old
    new_desc = rt.register(new)
    assert rt.resolve(new_desc) is new
    assert new_desc.generation > old_desc.generation
    with pytest.raises(RegistrationError):
        rt.resolve(old_desc)


def test_registered_count():
    """Deregistering one of two segments unregisters exactly that one."""
    sp, rt = _setup()
    a, b = sp.alloc(8), sp.alloc(8)
    da = rt.register(a)
    db = rt.register(b)
    rt.deregister(da)
    with pytest.raises(RegistrationError):
        rt.resolve(da)
    assert rt.resolve(db) is b


# ---------------------------------------------------------------------------
# symmetric heap primitives
# ---------------------------------------------------------------------------
def test_propose_address_page_aligned_and_deterministic():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    a1 = propose_address(rng1, 4096)
    a2 = propose_address(rng2, 4096)
    assert a1 == a2
    assert a1 % 0x1000 == 0


def test_try_symmetric_alloc_success_and_failure():
    sp = AddressSpace(0)
    state = SymHeapState()
    addr = propose_address(np.random.default_rng(1), 1 << 16)
    seg = try_symmetric_alloc(sp, addr, 1 << 16, state)
    assert seg is not None and seg.vaddr == addr
    # same address again collides
    again = try_symmetric_alloc(sp, addr, 16, state)
    assert again is None
    assert state.attempts == 2 and state.failures == 1
    assert state.segments == [seg]
