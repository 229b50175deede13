"""Distributed hashtable: correctness of all three transports (the
``hashtable_*`` registry entries) and the layout they share."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_spmd
from repro.apps.hashtable import (
    HashTableLayout,
    hash_key,
    rma_insert_program,
    verify_contents,
)
from repro.apps.hashtable.common import place_key
from repro.config import MachineConfig
from repro.workloads import WORKLOADS, run_workload

INTER = MachineConfig(ranks_per_node=1)
INTER_RPN, INTRA_RPN = 1, 64


def _run(variant, p, inserts, rpn):
    """Registry entry ``hashtable_<variant>``: every key stored once at
    its owner."""
    name = f"hashtable_{variant}"
    res = run_workload(name, p, ranks_per_node=rpn, inserts=inserts)
    assert WORKLOADS[name].verify(res) == 0
    return res


def _elapsed(res):
    """The slowest rank's timed insert phase."""
    return max(elapsed for elapsed, _keys, _volume in res.returns)


@pytest.mark.parametrize("variant", ["rma", "upc", "mpi1"])
@pytest.mark.parametrize("rpn", [INTER_RPN, INTRA_RPN], ids=["inter", "intra"])
def test_inserts_all_stored(variant, rpn):
    _run(variant, 4, 24, rpn)


@pytest.mark.parametrize("variant", ["rma", "upc", "mpi1"])
def test_single_rank(variant):
    _run(variant, 1, 16, INTRA_RPN)


def test_collisions_chain_correctly():
    """Tiny table forces many collisions; chains must hold every key."""
    layout = HashTableLayout(table_slots=2, heap_cells=128)
    box = {}
    run_spmd(rma_insert_program, 3, layout, 20, box, machine=INTER)
    volumes = [box["volumes"][r] for r in range(3)]
    keys = [box["keys"][r] for r in range(3)]
    verify_contents(layout, volumes, keys)
    total = sum(len(layout.all_contents(v)) for v in volumes)
    assert total == 60


def test_hash_is_deterministic_and_spread():
    hs = {hash_key(k) for k in range(1, 2000)}
    assert len(hs) == 1999  # no collisions in a small range
    owners = [hash_key(k) % 8 for k in range(1, 2000)]
    for o in range(8):
        assert owners.count(o) > 150  # roughly uniform


@pytest.mark.parametrize("nranks, slots", [(1, 64), (7, 64), (64, 16)])
def test_place_key_on_uint64_array_matches_scalar(nranks, slots):
    """The stores place a whole keyspace in one array pass: on uint64 it
    must wrap exactly as the scalar mod-2^64 arithmetic does, with no
    overflow warning, up to the top bit and the largest key."""
    keys = list(range(4096)) + [1 << 63, (1 << 63) + 1, (1 << 64) - 1]
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        owners, sl = place_key(np.array(keys, dtype=np.uint64), nranks, slots)
    assert owners.dtype == sl.dtype == np.uint64
    assert list(zip(owners.tolist(), sl.tolist())) == \
        [place_key(k, nranks, slots) for k in keys]


def test_insert_local_overflow_raises():
    layout = HashTableLayout(table_slots=1, heap_cells=1)
    vol = np.zeros(layout.words, np.int64)
    layout.insert_local(vol, 0, 10)
    layout.insert_local(vol, 0, 11)
    with pytest.raises(OverflowError):
        layout.insert_local(vol, 0, 12)


def test_slot_contents_walks_chain():
    layout = HashTableLayout(table_slots=2, heap_cells=8)
    vol = np.zeros(layout.words, np.int64)
    for v in (5, 6, 7):
        layout.insert_local(vol, 1, v)
    assert sorted(layout.slot_contents(vol, 1)) == [5, 6, 7]
    assert layout.slot_contents(vol, 0) == []


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(1, 1 << 40), min_size=1, max_size=30,
                unique=True))
def test_local_volume_property(keys):
    """Property: any insert sequence is fully recoverable."""
    layout = HashTableLayout(table_slots=4, heap_cells=64)
    vol = np.zeros(layout.words, np.int64)
    for k in keys:
        _owner, slot = layout.place(k, 1)
        layout.insert_local(vol, slot, k)
    assert sorted(layout.all_contents(vol)) == sorted(keys)


def test_mpi1_rate_plateaus_rma_scales():
    """Figure 7a's shape: MPI-1's per-rank cost grows with p (its O(p)
    termination notification), so its aggregate insert rate plateaus,
    while the one-sided version's per-rank cost stays constant."""
    inserts = 12

    def rate(variant, p):
        t = _elapsed(_run(variant, p, inserts, INTER_RPN))
        return p * inserts / (t / 1e9)

    mpi_growth = rate("mpi1", 16) / rate("mpi1", 4)
    rma_growth = rate("rma", 16) / rate("rma", 4)
    assert rma_growth > mpi_growth
    assert rma_growth > 3.0          # near-linear (4x ranks)
    assert mpi_growth < 3.0          # termination cost eats the gain


def test_rma_and_upc_comparable():
    p, inserts = 4, 12
    t_rma = _elapsed(_run("rma", p, inserts, INTER_RPN))
    t_upc = _elapsed(_run("upc", p, inserts, INTER_RPN))
    assert 0.5 < t_rma / t_upc < 1.1  # foMPI slightly faster
