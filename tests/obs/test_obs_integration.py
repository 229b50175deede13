"""End-to-end observability: trace determinism, zero perturbation under
faults, exporters, and the capture hook.  (Obs-on / checker-on versus
plain, and the golden schedules under instruments, are swept over the
whole registry in tests/test_workloads.py.)"""

import json

from repro.config import (
    FaultPlan,
    MachineConfig,
    ObsConfig,
    SimConfig,
)
from repro.obs import (
    capture,
    chrome_trace_json,
    render_report,
    write_chrome_trace,
)
from repro.obs.chrome import PID_NICS, PID_RANKS
from repro.runtime.job import run_spmd
from repro.workloads import putget, run_workload


def test_chrome_trace_byte_identical_across_runs():
    """Same seed, same workload -> byte-identical Chrome trace JSON."""
    obs1 = run_workload("putget", nranks=4, seed=11, obs=True).obs
    obs2 = run_workload("putget", nranks=4, seed=11, obs=True).obs
    t1 = chrome_trace_json(obs1, label="putget")
    t2 = chrome_trace_json(obs2, label="putget")
    assert t1 == t2


def test_chrome_trace_schema():
    obs = run_workload("putget", nranks=4, seed=11, obs=True).obs
    doc = json.loads(chrome_trace_json(obs, label="putget"))
    assert doc["displayTimeUnit"] == "ns"
    assert doc["otherData"]["label"] == "putget"
    events = doc["traceEvents"]
    assert events
    for ev in events:
        assert ev["ph"] in {"X", "i", "M"}
        assert ev["pid"] in {PID_RANKS, PID_NICS}
        assert isinstance(ev["tid"], int)
    # Complete events carry durations; instants are thread-scoped.
    assert all("dur" in ev for ev in events if ev["ph"] == "X")
    assert all(ev["s"] == "t" for ev in events if ev["ph"] == "i")
    # One named thread track per rank.
    thread_names = {ev["args"]["name"] for ev in events
                    if ev["ph"] == "M" and ev["name"] == "thread_name"}
    assert {"rank 0", "rank 1", "rank 2", "rank 3"} <= thread_names


def test_workload_span_coverage():
    """Each demo workload records the spans of its protocol family."""
    expect = {
        "putget": {"dmapp.put", "dmapp.get", "flush", "lock.lock_all",
                   "coll.barrier"},
        "locks": {"lock.exclusive", "lock.shared", "lock.hold",
                  "dmapp.amo"},
        "fence": {"epoch.fence", "dmapp.put"},
        "pscw": {"pscw.post", "pscw.start", "pscw.complete", "pscw.wait"},
    }
    for name, wanted in expect.items():
        obs = run_workload(name, nranks=4, seed=3, obs=True).obs
        names = {s.name for s in obs.spans.spans}
        assert wanted <= names, f"{name}: missing {wanted - names}"


def test_obs_disabled_schedule_bit_identical():
    """Enabling observability must not move a single event."""
    sim = SimConfig(seed=7)
    off = run_spmd(putget, 4, sim=sim)
    on = run_spmd(putget, 4, sim=sim, obs=ObsConfig(enabled=True))
    assert off.obs is None
    assert on.obs is not None and len(on.obs.spans) > 0
    assert off.sim_time_ns == on.sim_time_ns
    assert off.events_processed == on.events_processed
    assert off.returns == on.returns


def test_check_disabled_schedule_bit_identical():
    """Enabling the memory-model checker must not move a single event."""
    from repro.config import CheckConfig

    sim = SimConfig(seed=7)
    off = run_spmd(putget, 4, sim=sim)
    on = run_spmd(putget, 4, sim=sim, check=CheckConfig(enabled=True))
    assert off.check is None
    assert on.check is not None and on.check.accesses_seen > 0
    assert off.sim_time_ns == on.sim_time_ns
    assert off.events_processed == on.events_processed
    assert off.returns == on.returns


def test_obs_faulty_schedule_bit_identical():
    """The retransmit hook must not consume extra RNG draws: a faulty
    run's schedule is identical with observability on and off."""
    plan = FaultPlan(drop_prob=0.25)
    kw = dict(machine=MachineConfig(ranks_per_node=1),
              sim=SimConfig(seed=13), faults=plan)
    off = run_spmd(putget, 4, **kw)
    on = run_spmd(putget, 4, obs=ObsConfig(enabled=True), **kw)
    assert off.sim_time_ns == on.sim_time_ns
    assert off.events_processed == on.events_processed
    assert off.returns == on.returns
    # The drops actually happened, and the obs counters account for every
    # retransmission the transport reported: DMAPP op-level retries plus
    # link-level retries of reliable MPI-1 packets.
    observed = (on.obs.metrics.counter_total("retransmits")
                + on.obs.metrics.counter_total("link_retransmits"))
    assert observed == on.stats["retransmits"] > 0
    assert on.obs.metrics.counter_total("retransmits") > 0


def test_capture_collects_instrumentation():
    with capture() as sink:
        res = run_spmd(putget, 4, sim=SimConfig(seed=5))
    assert len(sink) == 1
    assert res.obs is sink[0]
    assert len(sink[0].spans) > 0


def test_capture_nesting_keeps_outer_sink():
    with capture() as outer:
        with capture() as inner:
            run_spmd(putget, 4, sim=SimConfig(seed=5))
        assert inner is outer
    assert len(outer) == 1


def test_obs_run_writes_trace(tmp_path):
    path = tmp_path / "t.json"
    res = run_spmd(putget, 4, sim=SimConfig(seed=9),
                   obs=ObsConfig(enabled=True))
    write_chrome_trace(str(path), res.obs, label="unit")
    text = path.read_text()
    assert text == chrome_trace_json(res.obs, label="unit")
    assert json.loads(text)["otherData"]["label"] == "unit"


def test_render_report_sections():
    res = run_workload("locks", nranks=4, seed=2, obs=True)
    text = render_report(res.obs, title="locks demo",
                         sim_time_ns=res.sim_time_ns,
                         events_processed=res.events_processed)
    assert "locks demo" in text
    assert "where simulated time goes (by span)" in text
    assert "counters" in text
    assert "simulated-time histograms" in text
    assert "busiest links" in text
    assert "lock_hold_ns" in text
