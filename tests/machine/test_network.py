"""Network engine: packet timing, channel separation, contention."""

import pytest

from repro.config import FaultConfig, FaultPlan
from repro.faults import FaultInjector
from repro.machine.network import Network
from repro.machine.params import GeminiParams
from repro.machine.topology import RankMap, Torus3D
from repro.sim.kernel import Environment


def _net(nnodes=4, params=None, injector=None):
    env = Environment()
    torus = Torus3D((nnodes, 1, 1))
    rm = RankMap(nranks=nnodes, ranks_per_node=1)
    return env, Network(env, torus, rm, params or GeminiParams(),
                        injector=injector)


def test_packet_delivery_time_uncontended():
    env, net = _net()
    p = net.params
    t, ev = net.packet(0, 1, 8)
    expected = (max(p.nic_packet_gap, 8 * p.gap_per_byte)
                + p.nic_latency + p.wire_latency(1))
    assert abs(t - expected) <= max(p.o_eject, 2)+ p.o_eject
    env.run(until=ev)
    assert ev.triggered


def test_packet_bandwidth_paid_once():
    """Cut-through: a large packet's latency has ONE bandwidth term."""
    env, net = _net()
    p = net.params
    n = 1 << 20
    t, _ = net.packet(0, 1, n)
    one_bw = n * p.gap_per_byte
    assert t < one_bw * 1.2 + 2000
    assert t > one_bw


def test_on_deliver_runs_at_delivery_time():
    """``on_deliver`` is the delivery event's own callback: it gets the
    event, whose value is the delivery time, at that time -- on the clean
    fabric and on the faulty twin (an injector that loses nothing)."""
    config = FaultConfig(plan=FaultPlan())
    for injector in (None, FaultInjector(config.plan, config, seed=1)):
        env, net = _net(injector=injector)
        seen = []
        t, ev = net.packet(0, 2, 64,
                           on_deliver=lambda event: seen.append(
                               (event, event.value, env.now)))
        env.run()
        assert seen == [(ev, t, t)]


def test_ejection_contention_serializes():
    """Two senders to one target: second delivery queues behind first."""
    env, net = _net()
    t1, _ = net.packet(1, 0, 4096)
    t2, _ = net.packet(2, 0, 4096)
    assert t2 > t1
    assert t2 - t1 >= 4096 * net.params.gap_per_byte * 0.9


def test_amo_engine_separate_from_ejection():
    env, net = _net()
    t_data, _ = net.packet(1, 0, 1 << 16)
    t_amo, _ = net.packet(2, 0, 16, is_amo=True)
    # the AMO is not delayed by the bulk packet's ejection occupancy
    assert t_amo < t_data


def test_fma_bte_channel_split():
    """Small packets do not queue behind bulk ones at injection."""
    env, net = _net()
    for _ in range(4):
        net.packet(0, 1, 512 * 1024)  # saturate BTE
    t_small, _ = net.packet(0, 1, 16)  # FMA path
    p = net.params
    assert t_small < p.nic_latency + p.wire_latency(1) + 500


def test_bulk_queues_on_bte():
    env, net = _net()
    t1, _ = net.packet(0, 1, 512 * 1024)
    t2, _ = net.packet(0, 1, 512 * 1024)
    assert t2 >= t1 + 512 * 1024 * net.params.gap_per_byte * 0.9


def test_injection_admit_fifo():
    env, net = _net()
    big = 64 * 1024
    admits = []
    for _ in range(net.params.fifo_depth + 4):
        _s, e = net.occupy_injection(0, big)
        admits.append(net.injection_admit(0, e, big))
    assert all(a == 0 for a in admits[:net.params.fifo_depth])
    assert admits[-1] > 0


def test_small_ops_never_fifo_blocked():
    env, net = _net()
    for _ in range(100):
        _s, e = net.occupy_injection(0, 8)
        assert net.injection_admit(0, e, 8) == 0


def test_noise_deterministic():
    p = GeminiParams().with_noise(200.0)
    env1, net1 = _net(params=p)
    env2, net2 = _net(params=p)
    t1 = [net1.packet(0, 1, 8)[0] for _ in range(20)]
    t2 = [net2.packet(0, 1, 8)[0] for _ in range(20)]
    assert t1 == t2
    assert len(set(t1)) > 1  # noise actually varies


def test_no_noise_by_default():
    env, net = _net()
    assert net._noise() == 0.0


def test_wire_latency_scales_with_hops():
    env, net = _net(nnodes=8)
    t_near, _ = net.packet(0, 1, 8)
    t_far, _ = net.packet(0, 4, 8)  # 4 hops on a ring of 8
    assert t_far > t_near


def test_placement_validation():
    env = Environment()
    torus = Torus3D((1, 1, 1))
    rm = RankMap(nranks=64, ranks_per_node=1)  # needs 64 nodes
    with pytest.raises(ValueError):
        Network(env, torus, rm)


def test_nic_utilization_tracking():
    env, net = _net()
    net.packet(0, 1, 1 << 16)
    assert net.nic(0).bte.total_busy > 0
    assert net.nic(1).eject_bte.total_busy > 0
