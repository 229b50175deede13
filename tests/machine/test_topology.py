"""Torus topology and rank placement."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.machine.topology import RankMap, Torus3D


def test_coords_roundtrip():
    t = Torus3D((4, 3, 2))
    for n in range(t.nnodes):
        assert t.node_at(*t.coords(n)) == n


def test_coords_out_of_range():
    t = Torus3D((2, 2, 2))
    with pytest.raises(ValueError):
        t.coords(8)
    with pytest.raises(ValueError):
        t.coords(-1)


def test_bad_shape_rejected():
    with pytest.raises(ValueError):
        Torus3D((0, 1, 1))


def test_hops_basic():
    t = Torus3D((4, 4, 4))
    assert t.hops(0, 0) == 0
    a = t.node_at(0, 0, 0)
    b = t.node_at(1, 0, 0)
    assert t.hops(a, b) == 1
    c = t.node_at(3, 0, 0)  # wraparound: distance 1, not 3
    assert t.hops(a, c) == 1
    d = t.node_at(2, 2, 2)
    assert t.hops(a, d) == 6


def test_diameter():
    assert Torus3D((4, 4, 4)).diameter() == 6
    assert Torus3D((1, 1, 1)).diameter() == 0
    assert Torus3D((5, 1, 1)).diameter() == 2


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
       st.data())
def test_hops_metric_properties(x, y, z, data):
    """hops is a metric: symmetric, zero iff equal, triangle inequality."""
    t = Torus3D((x, y, z))
    n = t.nnodes
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert t.hops(a, b) == t.hops(b, a)
    assert (t.hops(a, b) == 0) == (a == b)
    assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)
    assert t.hops(a, b) <= t.diameter()


def test_rank_map_block_placement():
    rm = RankMap(nranks=70, ranks_per_node=32)
    assert rm.nnodes == 3
    assert rm.node_of(0) == 0
    assert rm.node_of(31) == 0
    assert rm.node_of(32) == 1
    assert rm.node_of(69) == 2
    assert list(rm.ranks_on(2)) == [64, 65, 66, 67, 68, 69]
    assert rm.same_node(0, 31)
    assert not rm.same_node(31, 32)


def test_rank_map_errors():
    rm = RankMap(nranks=4, ranks_per_node=2)
    with pytest.raises(ValueError):
        rm.node_of(4)
    with pytest.raises(ValueError):
        rm.ranks_on(5)
    with pytest.raises(ValueError):
        RankMap(nranks=0, ranks_per_node=2)


def test_machine_config_derive_torus():
    cfg = MachineConfig(ranks_per_node=32)
    shape = cfg.derive_torus(32 * 64)  # 64 nodes
    x, y, z = shape
    assert x * y * z >= 64


@pytest.mark.parametrize("ranks_per_node", [1, 2, 32])
@pytest.mark.parametrize("nranks", [1, 2, 3, 7, 8, 31, 32, 33, 63, 64, 100,
                                    512, 1000, 4096, 10_000])
def test_derived_torus_fits_node_count(nranks, ranks_per_node):
    """Every derived torus must hold all nodes the rank count needs, stay
    near-cubic (x >= y >= z) and have strictly positive dimensions."""
    cfg = MachineConfig(ranks_per_node=ranks_per_node)
    x, y, z = cfg.derive_torus(nranks)
    assert x >= 1 and y >= 1 and z >= 1
    assert x * y * z >= cfg.nodes_for(nranks)
    assert x >= y >= z


def test_instructions_to_ns():
    cfg = MachineConfig()
    assert cfg.instructions_to_ns(173) == pytest.approx(75.2, rel=0.01)
