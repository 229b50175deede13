"""Hybrid engine behaviour: determinism, sampling invariance, memory.

* same seed -> bit-identical results (stats, sample, clock, events);
* the reported stats are *independent of the sampling fraction* --
  counts come from the vectorized model for all p ranks, the sample
  only chooses which ranks additionally validate on the DES;
* 1Mi-rank runs stay memory-bounded: aggregate state is numpy arrays,
  not per-rank Python objects, and the full-fidelity world's lazy rank
  tables only materialize what is touched.
"""

import numpy as np
import pytest

from repro.config import MachineConfig, ScaleConfig, SimConfig
from repro.scale import run_hybrid
from repro.scale.hybrid import HybridParityError, sample_ranks
from repro.scale.protocols import WorkloadSpec
from repro.scale.soa import AggregateSoA, ScaleTopology
from tests.scale import RING


@pytest.mark.parametrize("workload", RING)
def test_same_seed_bit_identical(workload):
    a = run_hybrid(workload, 8192, ranks_per_node=32)
    b = run_hybrid(workload, 8192, ranks_per_node=32)
    assert a.stats == b.stats
    assert a.sample == b.sample
    assert a.sim_time_ns == b.sim_time_ns
    assert a.events_processed == b.events_processed


def test_different_seed_different_sample():
    a = run_hybrid("fence_ring", 8192, sim=SimConfig(seed=1))
    b = run_hybrid("fence_ring", 8192, sim=SimConfig(seed=2))
    assert a.sample != b.sample
    # ... but the counts are sample-independent by construction.
    assert a.stats == b.stats


@pytest.mark.parametrize("fraction", [1 / 512, 1 / 64, 1 / 8, 1.0])
def test_sampling_fraction_sweep(fraction):
    # Stats must be identical across sampling fractions; only the
    # amount of DES-side validation changes.
    ref = run_hybrid("lock_ring", 4096, ranks_per_node=32)
    cfg = ScaleConfig(enabled=True, sample_fraction=fraction,
                      sample_min=2, sample_max=4096)
    res = run_hybrid("lock_ring", 4096, ranks_per_node=32, scale=cfg)
    assert res.stats == ref.stats
    assert res.sim_time_ns == ref.sim_time_ns
    expect = max(2, min(4096, round(4096 * fraction)))
    assert len(res.sample) == expect


def test_sample_always_contains_master():
    cfg = ScaleConfig(enabled=True)
    for nranks in (64, 4096, 1 << 17):
        sample = sample_ranks(nranks, cfg, seed=7)
        assert sample[0] == 0
        assert len(np.unique(sample)) == len(sample)
        assert sample[-1] < nranks


def test_million_rank_memory_bounded():
    # 1Mi ranks: aggregate state must be flat arrays (tens of MB), not
    # per-rank objects; sample stays clamped at sample_max.
    res = run_hybrid("fence_ring", 1 << 20, ranks_per_node=32)
    assert res.nranks == 1 << 20
    assert len(res.sample) <= ScaleConfig().sample_max
    # 7 int64/int32 arrays over 1Mi ranks: well under 100 MB.
    assert res.soa_nbytes < 100 * 1024 * 1024
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


def test_tier_divergence_is_refused():
    # A sampled rank whose DES program issues counts diverging from the
    # vectorized model must fail loudly, not return numbers.
    from repro.scale import protocols

    original = protocols.SampledRank.put_right
    try:
        def doubled(self):
            original(self)
            original(self)
        protocols.SampledRank.put_right = doubled
        with pytest.raises(HybridParityError):
            run_hybrid("fence_ring", 256, ranks_per_node=32)
    finally:
        protocols.SampledRank.put_right = original


def test_contention_refused_by_soa():
    topo = ScaleTopology(8, 1)
    soa = AggregateSoA(topo)
    from repro.rma.locks import WRITER_BIT
    soa.lock_word[3] = WRITER_BIT
    with pytest.raises(RuntimeError):
        soa.lock_acquire_shared(3)
    with pytest.raises(RuntimeError):
        soa.pscw_start_consume(5)


def test_bad_workload_and_sizes():
    with pytest.raises(ValueError, match="fence_ring"):
        run_hybrid("nope", 64)
    with pytest.raises(ValueError, match="no hybrid twin"):
        run_hybrid("fence", 64)
    with pytest.raises(ValueError):
        run_hybrid("fence_ring", 1)
    with pytest.raises(ValueError):
        WorkloadSpec("fence", epochs=0)
    with pytest.raises(ValueError):
        ScaleConfig(sample_fraction=0.0)
    with pytest.raises(ValueError):
        ScaleConfig(sample_min=1)
