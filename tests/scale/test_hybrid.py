"""Scale-mode engine behaviour: pinned results, the closed-form gate, memory.

* the pinned (clock, counts) cells below were captured with the
  sampled-rank DES still in place and hold unchanged without it;
* a count model that disagrees with the paper's closed-form totals is
  refused (pins at 512Ki + 7 pass that gate where parity cannot reach);
* 1Mi-rank runs stay memory-bounded: the counters are numpy arrays,
  not per-rank Python objects, and the full-fidelity world's lazy rank
  tables only materialize what is touched.
"""

import pytest

from repro.config import MachineConfig
from repro.scale import HybridParityError, collmodel, run_hybrid
from repro.scale.protocols import WorkloadSpec
from tests.scale import RING


#: (sim_time_ns, messages, bytes_moved, max_remote_ops,
#: max_control_memory) per (workload, ranks, ranks_per_node), captured at
#: e997f43 with the sampled-rank DES still in place -- the oracle the
#: two-form rewrite of ``run_hybrid`` was held to.
HYBRID_PINS = {
    ("fence_ring", 8192, 32): (227032, 557055, 1048568, 80, 78),
    ("pscw_ring", 8192, 32): (120332, 238591, 1056760, 43, 78),
    ("lock_ring", 8192, 32): (120132, 270335, 1310712, 45, 78),
    ("flush_ring", 8192, 32): (118354, 253951, 1179640, 43, 78),
    ("fence_ring", 4096, 1): (209632, 258047, 491512, 74, 78),
    ("pscw_ring", 4096, 1): (111632, 126975, 622584, 42, 78),
    ("lock_ring", 4096, 1): (111432, 126975, 622584, 42, 78),
    ("flush_ring", 4096, 1): (109654, 118783, 557048, 40, 78),
    ("fence_ring", 1 << 20, 32): (348832, 108003327, 192937976, 122, 78),
    # Non-power-of-two, last node part-filled, beyond the full runtime's
    # reach: the allreduce fold and the inter-node edge count are held
    # by ``run_hybrid``'s closed-form gate alone here.
    ("fence_ring", (512 << 10) + 7, 32): (331432, 53477970, 92274960, 119, 78),
    ("pscw_ring", (512 << 10) + 7, 32): (172532, 22085810, 92799280, 61, 78),
    ("lock_ring", (512 << 10) + 7, 32): (172332, 24117450, 109052400, 63, 78),
    ("flush_ring", (512 << 10) + 7, 32): (170554, 23068860, 100663680, 61, 78),
}


@pytest.mark.parametrize("cell", HYBRID_PINS, ids=lambda c: "-".join(map(str, c)))
def test_hybrid_pins(cell):
    workload, nranks, rpn = cell
    res = run_hybrid(workload, nranks, ranks_per_node=rpn)
    s = res.stats
    assert (res.sim_time_ns, s["messages"], s["bytes_moved"],
            s["max_remote_ops"], s["max_control_memory"]) == HYBRID_PINS[cell]


@pytest.mark.parametrize("workload", RING)
def test_same_seed_bit_identical(workload):
    a = run_hybrid(workload, 8192, ranks_per_node=32)
    b = run_hybrid(workload, 8192, ranks_per_node=32)
    assert a.stats == b.stats
    assert a.bounds == b.bounds
    assert a.sim_time_ns == b.sim_time_ns


def test_million_rank_memory_bounded():
    # 1Mi ranks: the counters and round vectors must be flat arrays
    # (a few machine words per rank at the peak), not per-rank objects.
    import tracemalloc

    tracemalloc.start()
    try:
        res = run_hybrid("fence_ring", 1 << 20, ranks_per_node=32)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.nranks == 1 << 20
    assert peak < 16 * 8 * res.nranks
    assert res.stats["messages"] > 50_000_000
    assert res.bounds["max_remote_ops_ok"]
    # Per-rank message count is O(log p): about 23 rounds' worth, far
    # below any O(p) pattern.
    assert res.bounds["max_remote_ops"] < 200


def test_world_rank_tables_are_lazy():
    # The in-scope world refactor backing the scale mode: building a
    # world must not materialize per-rank spaces/registration tables.
    from repro.runtime.world import World

    world = World(4096, MachineConfig(ranks_per_node=32))
    assert world.spaces.materialized == 0
    assert world.reg_tables.materialized == 0
    world.spaces[7].alloc(64, label="t")
    assert world.spaces.materialized == 1
    assert 4095 in world.spaces
    assert len(world.reg_tables) == 4096
    with pytest.raises(KeyError):
        world.spaces[4096]


def test_tier_divergence_is_refused(monkeypatch):
    # A count model that drifts from the closed-form totals must fail
    # loudly, not return numbers: here the barrier counts a round twice.
    original = collmodel.barrier

    def doubled(counters, topo):
        collmodel.count_sends(counters, topo, topo.ranks,
                              (topo.ranks + 1) % topo.nranks, 0)
        return original(counters, topo)

    monkeypatch.setattr(collmodel, "barrier", doubled)
    with pytest.raises(HybridParityError, match="closed form"):
        run_hybrid("fence_ring", 256, ranks_per_node=32)


def test_bad_workload_and_sizes():
    with pytest.raises(ValueError, match="fence_ring"):
        run_hybrid("nope", 64)
    with pytest.raises(ValueError, match="no hybrid twin"):
        run_hybrid("fence", 64)
    with pytest.raises(ValueError):
        run_hybrid("fence_ring", 1)
    with pytest.raises(ValueError):
        WorkloadSpec("fence", epochs=0)
