"""Serving drivers end to end: bit-identity, checker cleanliness,
backend model agreement, SLO exactness, and the CLI gates."""

import numpy as np
import pytest

from repro.config import MachineConfig, ObsConfig, SimConfig
from repro.runtime.job import run_spmd
from repro.serve.driver import (all_latencies, expected_contents,
                                merged_contents, run_kv_serve)
from repro.serve.slo import (build_report, exact_percentiles, render_report,
                             report_digest)
from repro.serve.zipf import OP_GET, ServeSpec

SPEC = ServeSpec(nkeys=64, total_requests=600, seed=7)
NRANKS = 4


@pytest.fixture(scope="module")
def rma_result():
    return run_kv_serve(NRANKS, SPEC)


def test_report_bit_identical_across_runs(rma_result):
    """Acceptance property: the same spec yields a byte-identical
    latency report (and hence digest) on every run."""
    again = run_kv_serve(NRANKS, SPEC)
    a = build_report(rma_result, SPEC, NRANKS)
    b = build_report(again, SPEC, NRANKS)
    assert a == b
    assert report_digest(a) == report_digest(b)


def test_latency_is_open_loop(rma_result):
    """Latencies are completion minus *scheduled* arrival: every request
    of the spec is measured, none are coordinated-omitted."""
    lats = all_latencies(rma_result)
    assert lats.size == SPEC.total_requests
    assert np.all(lats > 0)


def test_report_sections(rma_result):
    rep = build_report(rma_result, SPEC, NRANKS)
    assert rep["ops"]["get"] + rep["ops"]["put"] + rep["ops"]["update"] \
        == SPEC.total_requests
    assert rep["latency_ns"]["p50"] <= rep["latency_ns"]["p99"] \
        <= rep["latency_ns"]["p99_9"] <= rep["latency_ns"]["max"]
    # per-rank hotspot counters cover every remote-op target
    hot = rep["hotspots"]
    assert sum(hot["owner_requests"].values()) > 0
    # the lock-free data plane's chain walks: requests on a collided
    # slot follow its overflow chain, at least one hop each
    assert hot["chain_walks"] > 0
    assert 1 <= hot["chain_hops_mean"] <= hot["chain_hops_max"]
    text = render_report(rep)
    assert "p99" in text and "hotspots" in text


def test_pow2_histogram_brackets_exact_p99(rma_result):
    """The obs histogram (cheap view) and the exact percentiles (SLO
    source of truth) must agree: the exact p99 falls in a populated
    power-of-two bucket whose bounds bracket it."""
    rep = build_report(rma_result, SPEC, NRANKS)
    p99 = rep["latency_ns"]["p99"]
    hist = rma_result.obs.metrics.merged_histogram("kv.latency_ns")
    snap = hist.snapshot()
    assert snap["count"] == SPEC.total_requests
    assert p99 <= snap["max"]


def test_checker_clean():
    """The lock-free serving path touches shared words with
    accumulate-family operations only (atomic reads + CAS), and the
    owner-side preload/scan are annotated and barrier-ordered: a clean
    bill from the race checker, no lock edges needed."""
    res = run_kv_serve(NRANKS, SPEC, check=True)
    assert res.check.clean, \
        [v.describe() for v in res.check.violations]
    assert res.check.accesses_seen > 0


def test_rma_matches_replay_model(rma_result):
    keys, determined = expected_contents(SPEC, NRANKS)
    final = merged_contents(rma_result)
    assert set(final) == keys
    for k, v in determined.items():
        assert final[k] == v


def test_mpi1_comparator_matches_replay_model():
    from repro.apps.kvstore.mpi1_kv import mpi1_kv_program

    res = run_spmd(mpi1_kv_program, NRANKS, SPEC,
                   machine=MachineConfig(ranks_per_node=1),
                   sim=SimConfig(seed=SPEC.seed),
                   obs=ObsConfig(enabled=True))
    keys, determined = expected_contents(SPEC, NRANKS)
    final = merged_contents(res)
    assert set(final) == keys
    for k, v in determined.items():
        assert final[k] == v
    # same op counts as the RMA backend (same schedules)
    rep = build_report(res, SPEC, NRANKS, variant="mpi1")
    assert rep["ops"]["get"] \
        == int(sum(np.count_nonzero(r[0][:, 2] == OP_GET)
                   for r in res.returns))


def test_mpi1_comparator_survives_sparse_arrivals():
    """At 5 kHz per client the ranks spend almost all their time
    idle-polling toward the next scheduled arrival, thousands of events
    with no message matched.  The pacing sleep is bounded, so it counts
    as progress: the watchdog must not call this a livelock (it did)."""
    from repro.apps.kvstore.mpi1_kv import mpi1_kv_program

    spec = ServeSpec(nkeys=64, total_requests=200, rate_hz=5_000.0, seed=7)
    res = run_spmd(mpi1_kv_program, 8, spec,
                   machine=MachineConfig(ranks_per_node=8),
                   sim=SimConfig(seed=spec.seed))
    keys, determined = expected_contents(spec, 8)
    final = merged_contents(res)
    assert set(final) == keys
    assert all(final[k] == v for k, v in determined.items())


def test_exact_percentiles_nearest_rank():
    samples = np.arange(1, 101)          # 1..100
    pct = exact_percentiles(samples)
    assert pct == {"p50": 50, "p99": 99, "p99_9": 100}
    assert exact_percentiles([])["p99"] == 0
    assert exact_percentiles([42]) == {"p50": 42, "p99": 42, "p99_9": 42}


def test_cli_serve_and_slo_gate(capsys):
    from repro.__main__ import main

    rc = main(["serve", "kvstore", "--ranks", "4", "--requests", "400",
               "--nkeys", "64", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "p99" in out and "report digest" in out
    # impossible SLO -> exit 1
    rc = main(["serve", "kvstore", "--ranks", "4", "--requests", "400",
               "--nkeys", "64", "--seed", "3", "--slo-p99-us", "0.001"])
    assert rc == 1
    assert "SLO FAILED" in capsys.readouterr().out


def test_cli_writes_identical_json(tmp_path):
    from repro.__main__ import main

    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    for p in (pa, pb):
        assert main(["serve", "kvstore", "--ranks", "4", "--requests",
                     "300", "--nkeys", "32", "--seed", "5",
                     "--out", str(p)]) == 0
    assert pa.read_bytes() == pb.read_bytes()
