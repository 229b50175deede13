"""Network engine: packet timing, channel separation, contention, and
what a fault injector adds to one transmission."""

import pytest

from repro import faults
from repro.config import FaultPlan, NicStall, NodeCrash
from repro.errors import DeadlineError
from repro.faults import (BACKOFF_BASE_NS, BACKOFF_MAX_NS, MAX_RETRIES,
                          OP_DEADLINE_NS, FaultInjector, PacketFate)
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


def _injector(plan=None):
    return FaultInjector(plan or FaultPlan(), seed=1)


@pytest.fixture
def no_jitter(monkeypatch):
    """Zero the seeded backoff jitter, so retransmit times are exact."""
    monkeypatch.setattr(faults, "JITTER_NS", 0)


def _fabrics(**kw):
    """``(env, net)`` on a clean fabric, then under an injector whose plan
    loses nothing: the timing tests below hold on both, because `packet`
    is one body that a clean fabric merely leaves earlier."""
    yield _net(**kw)
    yield _net(injector=_injector(), **kw)


def test_packet_delivery_time_uncontended():
    """A packet without ``on_deliver`` (a get's request leg) is its
    delivery time and schedules nothing."""
    for env, net in _fabrics():
        p = net.params
        t = net.packet(0, 1, 8)
        expected = (max(p.nic_packet_gap, 8 * p.gap_per_byte)
                    + p.nic_latency + p.wire_latency(1))
        assert abs(t - expected) <= max(p.o_eject, 2) + p.o_eject
        env.run()
        assert (env.now, env.events_processed) == (0, 0)


def test_packet_bandwidth_paid_once():
    """Cut-through: a large packet's latency has ONE bandwidth term."""
    for env, net in _fabrics():
        p = net.params
        n = 1 << 20
        t = net.packet(0, 1, n)
        one_bw = n * p.gap_per_byte
        assert t < one_bw * 1.2 + 2000
        assert t > one_bw


def test_on_deliver_runs_at_delivery_time():
    """``on_deliver()`` runs once, at the returned delivery time, as the
    one entry the packet schedules."""
    for env, net in _fabrics():
        seen = []
        t = net.packet(0, 2, 64, on_deliver=lambda: seen.append(env.now))
        env.run()
        assert (seen, env.events_processed) == ([t], 1)


def test_ejection_contention_serializes():
    """Two senders to one target: second delivery queues behind first."""
    for env, net in _fabrics():
        t1 = net.packet(1, 0, 4096)
        t2 = net.packet(2, 0, 4096)
        assert t2 > t1
        assert t2 - t1 >= 4096 * net.params.gap_per_byte * 0.9


def test_amo_engine_separate_from_ejection():
    for env, net in _fabrics():
        t_data = net.packet(1, 0, 1 << 16)
        t_amo = net.packet(2, 0, 16, is_amo=True)
        # the AMO is not delayed by the bulk packet's ejection occupancy
        assert t_amo < t_data


def test_fma_bte_channel_split():
    """Small packets do not queue behind bulk ones at injection."""
    for env, net in _fabrics():
        for _ in range(4):
            net.packet(0, 1, 512 * 1024)  # saturate BTE
        t_small = net.packet(0, 1, 16)  # FMA path
        p = net.params
        assert t_small < p.nic_latency + p.wire_latency(1) + 500


def test_bulk_queues_on_bte():
    for env, net in _fabrics():
        t1 = net.packet(0, 1, 512 * 1024)
        t2 = net.packet(0, 1, 512 * 1024)
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
    (_, net1), (_, net2) = _fabrics(params=GeminiParams().with_noise(200.0))
    t1 = [net1.packet(0, 1, 8) for _ in range(20)]
    t2 = [net2.packet(0, 1, 8) for _ in range(20)]
    assert t1 == t2
    assert len(set(t1)) > 1  # noise actually varies


def test_no_noise_by_default():
    env, net = _net()
    assert net._noise() == 0.0


def test_wire_latency_scales_with_hops():
    env, net = _net(nnodes=8)
    t_near = net.packet(0, 1, 8)
    t_far = net.packet(0, 4, 8)  # 4 hops on a ring of 8
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
    assert net.nic(0).bte.busy_until > 0
    assert net.nic(1).eject_bte.busy_until > 0


# ---------------------------------------------------------------------------
# what the injector adds to a transmission
# ---------------------------------------------------------------------------
def _injection_ns(net, nbytes):
    p = net.params
    return int(round(max(p.nic_packet_gap, nbytes * p.gap_per_byte)))


def test_dropped_reliable_packet_redelivers_after_deadline_and_backoff(
        no_jitter):
    """Link-level recovery: the retransmission is injected no earlier than
    the first attempt's ``inject_end + OP_DEADLINE_NS + backoff``, and from
    there on it is an ordinary packet."""
    inj = _injector()
    env, net = _net(injector=inj)
    seen = []
    t = net.packet(0, 1, 64, fate=PacketFate(drop=True), reliable=True,
                   on_deliver=lambda: seen.append(env.now))
    floor = _injection_ns(net, 64) + OP_DEADLINE_NS + BACKOFF_BASE_NS
    _, ref = _net()
    t_ref = ref.packet(
        0, 1, 64, inject_window=ref.occupy_injection(0, 64, earliest=floor))
    assert (t, inj.stats.retransmits) == (t_ref, 1)
    env.run()
    assert seen == [t]


def test_destination_stall_delays_service_not_injection():
    plan = FaultPlan(stalls=(NicStall(node=1, start_ns=0,
                                      duration_ns=50_000),))
    inj = _injector(plan)
    env, net = _net(injector=inj)
    seen = []
    t = net.packet(0, 1, 64, on_deliver=lambda: seen.append(env.now))
    assert net.nic(0).fma.busy_until == _injection_ns(net, 64)
    assert t == 50_000 + int(round(net.params.o_eject))
    assert inj.stats.stall_waits == 1
    env.run()
    assert seen == [t]


@pytest.mark.parametrize("reliable", [False, True])
def test_packet_to_node_dead_by_arrival_is_lost(reliable):
    """Alive at injection, dead by arrival: lost, with no effect and no
    retransmission (a reliable link gives up on a dead end without a
    DeadlineError), and nothing scheduled."""
    inj = _injector(FaultPlan(crashes=(NodeCrash(node=1, time_ns=100),)))
    env, net = _net(injector=inj)
    seen = []
    t = net.packet(0, 1, 64, reliable=reliable,
                   on_deliver=lambda: seen.append(env.now))
    # The destination NIC served it after the crash instant.
    assert t is None and net.nic(1).eject_fma.busy_until > 100
    env.run()
    assert (env.events_processed, seen, inj.stats.retransmits) == (0, [], 0)


def test_retry_budget_exhaustion_raises_at_last_attempts_time(no_jitter):
    inj = _injector(FaultPlan(drop_prob=1.0))
    env, net = _net(injector=inj)
    assert net.packet(0, 1, 64, reliable=True) is None
    # MAX_RETRIES + 1 injections, one ack deadline and one capped
    # exponential backoff before each retransmission.
    backoffs = sum(min(BACKOFF_BASE_NS << (a - 1), BACKOFF_MAX_NS)
                   for a in range(1, MAX_RETRIES + 1))
    last_end = ((MAX_RETRIES + 1) * _injection_ns(net, 64)
                + MAX_RETRIES * OP_DEADLINE_NS + backoffs)
    p = net.params
    assert (inj.stats.retransmits,
            inj.stats.deadline_failures) == (MAX_RETRIES, 1)
    with pytest.raises(DeadlineError) as exc:
        env.run()
    t = int(round(last_end + p.wire_latency(1) + p.nic_latency))
    assert (env.now, exc.value.attempts) == (t, MAX_RETRIES + 1)
