"""Checks of the benchmark itself, at ``--smoke`` sizes (< 30 s).

Run explicitly (tier-1 collects ``tests/`` only)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (ROOT, os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench import compare, measure  # noqa: E402
from perfbench.metrics import END_TO_END, HOST_CLOCK, PER_LAYER  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402
from perfbench.workloads import WORKLOADS, make  # noqa: E402
from repro.serve.zipf import client_schedule  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [tuple(m[k] for k in ("name", "unit", "better", "bound"))
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [tuple(m[k] for k in ("name", "unit", "better"))
            for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) \
        == list(WORKLOADS)
    assert set(HOST_CLOCK) <= {m[0] for m in END_TO_END}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace, table", [(0, END_TO_END), (1, PER_LAYER)])
def test_output_names_every_metric_with_its_unit(trace, table):
    """Every name in BENCHMARK.json is printed with a unit, and nothing
    else is."""
    proc = subprocess.run(
        RUN + ["--workload", "kv_zipf_mpi1", "--seed", "3", "--seconds",
               "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m[0]: m[1] for m in table}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())
    # ... and the human-readable lines name each one too.
    printed = {line.split()[0] for line in lines[:-1] if line[0] not in "#!"}
    assert printed == set(want)
    if not trace:
        assert all(result["metrics"][m[0]]["value"] > 0 for m in table)
    else:
        # What is defined on this workload only is named as well.
        notes = [line for line in lines if line.startswith("# ")]
        assert sum(n.startswith("# rung") for n in notes) == 4
        assert sum("on/off" in n and "rounds" in n for n in notes) == 3


@pytest.fixture
def quick(monkeypatch):
    """One round of the on/off differentials instead of three, and no
    calibration loop: these checks are about names, digests and failure
    accounting, not about host time."""
    monkeypatch.setattr(measure, "MIN_ROUNDS", 1)
    monkeypatch.setattr(measure, "calibration_s", lambda: measure.CAL_REF_S)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_simulated_numbers_repeat_and_survive_tracing(name, quick):
    """Two separate measurements -- one untraced, one with every wrapper,
    the profiler, obs and the checker in turn -- agree on every simulated
    metric and on the digest."""
    untraced = measure.measure_untraced(make(name, 1, True), 0.0, [0.1])
    traced = measure.measure_traced(make(name, 1, True), 0.0)
    assert untraced["correct"] and traced["correct"], \
        untraced["errors"] + traced["errors"]
    assert untraced["sim_digest"] == traced["sim_digest"]
    assert traced["traced_digest_matches"]
    for metric, _unit, _better, _bound in END_TO_END:
        if metric not in HOST_CLOCK:
            assert untraced["metrics"][metric] == traced["sim"][metric]
    assert set(traced["metrics"]) == {m[0] for m in PER_LAYER}
    m = traced["metrics"]
    assert all(q["n"] >= measure.MIN_ROUNDS and "resolved" in q
               for q in traced["overhead_ratios"].values())
    # No ladder or no reference: the worst value, never the best.
    if not name.startswith("kv_"):
        assert m["serve.max_rate_rps"] == m["serve.slo_share_10khz"] == 0
        assert traced["ladder"] is None
    if name.endswith("_stream"):
        assert 90 < m["machine.model_agreement_pct"] < 100
        assert m["machine.model_agreement_pct"] \
            == 100 - traced["sim"]["model_err_pct"]
    else:
        assert m["machine.model_agreement_pct"] == 0
        assert "model_err_pct" not in traced["sim"]
    if name == "kv_zipf_rma":
        _check_request_breakdown(traced)


def _check_request_breakdown(traced):
    """queue + lock wait + lock release + flush + data + app self is the
    measured request latency (within 1 %)."""
    parts = dict(traced["op_breakdown_us"])
    measured = parts.pop("measured_latency")
    parts.pop("op_total")
    assert parts["lock_wait"] > 0 and parts["queue"] >= 0
    assert abs(sum(parts.values()) - measured) <= 0.01 * measured
    m = traced["metrics"]
    assert m["serve.max_rate_rps"] > 0
    assert m["rma.lock_wait_us_per_op"] > m["rma.flush_us_per_op"] > 0
    assert m["mpi1.wait_us_per_op"] >= 0 and m["dmapp.amo_per_op"] > 0


def test_host_times_are_put_at_reference_speed(monkeypatch):
    """A machine that runs everything twice as slowly -- the calibration
    loop included -- reports the same host time."""
    from perfbench.calibrate import CAL_REF_S, at_reference_speed

    assert at_reference_speed(3.0, CAL_REF_S, CAL_REF_S) == pytest.approx(3.0)
    assert at_reference_speed(6.0, 2 * CAL_REF_S, 2 * CAL_REF_S) \
        == pytest.approx(3.0)
    monkeypatch.setattr(measure, "calibration_s", lambda: 2 * CAL_REF_S)
    report = measure.measure_untraced(make("put_stream", 1, True), 0.0, [0.1])
    raw = report["host_raw"]["wall_s"]["median"]
    assert report["metrics"]["host_wall_s"] == pytest.approx(raw / 2)
    assert report["host_raw"]["calibration_s"]["n"] == measure.MIN_REPS + 1


def test_a_different_seed_changes_the_kv_schedule():
    one, two = make("kv_zipf_rma", 1, True), make("kv_zipf_rma", 2, True)
    assert not np.array_equal(client_schedule(one.spec, 0, one.nranks),
                              client_schedule(two.spec, 0, two.nranks))
    same = make("kv_zipf_mpi1", 1, True)
    assert np.array_equal(client_schedule(one.spec, 0, one.nranks),
                          client_schedule(same.spec, 0, same.nranks))


def test_an_exception_lands_in_fail_rate(monkeypatch, quick):
    """A repetition that raises fails all of its operations; the
    benchmark goes on and still reports."""
    real = measure.run_on_world
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(measure, "run_on_world", flaky)
    workload = make("put_stream", 1, True)
    report = measure.measure_untraced(workload, 0.0, [0.1])
    assert report["correct"] is False
    assert report["failed"] == workload.ops
    assert report["attempted"] == (1 + measure.MIN_REPS) * workload.ops
    assert report["fail_rate"] == pytest.approx(1 / (1 + measure.MIN_REPS))
    assert any("injected" in e for e in report["errors"])
    assert report["metrics"]["host_wall_s"] > 0


def test_a_failing_rung_misses_the_limit(monkeypatch, quick):
    """Every rung always runs.  One that raises fails all of its requests
    in ``serve.fail_rate``, serves nothing within the limit and is not
    sustained; the run itself goes on and stays correct."""
    real = measure.run_on_world

    def livelock_at_5khz(world, program, spec, *rest):
        if spec.rate_hz == 5_000:
            raise RuntimeError("injected livelock")
        return real(world, program, spec, *rest)

    monkeypatch.setattr(measure, "run_on_world", livelock_at_5khz)
    report = measure.measure_traced(make("kv_zipf_mpi1", 1, True), 0.0)
    metrics, rungs = report["metrics"], report["ladder"]["rungs"]
    assert metrics["serve.fail_rate"] == pytest.approx(0.25)
    assert metrics["serve.slo_share_5khz"] == 0
    assert metrics["serve.slo_share_10khz"] > 0.9
    assert metrics["serve.max_rate_rps"] > 0
    assert rungs[0]["sustained"] is False and "p99_us" not in rungs[0]
    assert all("p99_us" in r for r in rungs[1:])
    assert any("injected livelock" in e for e in report["errors"])
    assert report["correct"] and report["failed"] == 0


def test_refuses_to_run_outside_the_repository(tmp_path):
    """In a directory that holds only BENCHMARK.json and perfbench/ there
    is nothing to measure: non-zero exit, no result line."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "put_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _report(wall, p95, digest="d", failed=0, seed=1, ladder=None):
    metrics = {m[0]: 1.0 for m in END_TO_END}
    metrics.update(host_wall_s=wall, sim_p95_us=p95)
    report = {"sim_digest": digest, "metrics": metrics, "attempted": 1000,
              "failed": failed, "provenance": {"seed": seed}}
    if ladder is not None:
        report["ladder_fail_rate"] = ladder
    return {"put_stream": report}


def _verdicts(pairs):
    rows = compare.compare(pairs, _spec())
    return ({r["metric"]: r["verdict"] for r in rows if "metric" in r},
            rows[0]["sim_identical"])


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    noisy = [1.0, 1.5, 0.7, 1.3, 0.6, 1.4, 1.0, 0.8, 1.6, 0.9]
    # Twice as fast in ten of ten pairs, far beyond the base's spread.
    v, same = _verdicts([(_report(w, 5.0), _report(w / 2, 5.0))
                         for w in steady])
    assert v["host_wall_s"] == "improved" and v["sim_p95_us"] == "unchanged"
    assert same
    # The same gain in three pairs only: no claim.
    v, _ = _verdicts([(_report(w, 5.0), _report(w / 2, 5.0))
                      for w in steady[:3]])
    assert v["host_wall_s"] == "unchanged"
    # Worse than the bound.
    v, same = _verdicts([(_report(w, 5.0), _report(w * 1.5, 9.0, "other"))
                         for w in steady])
    assert v["host_wall_s"] == "regressed" and v["sim_p95_us"] == "regressed"
    assert not same
    # The base's own runs disagree by more than the bound.
    v, _ = _verdicts([(_report(w, 5.0), _report(w / 2, 5.0))
                      for w in noisy])
    assert v["host_wall_s"] == "unresolved"


def test_compare_judges_simulated_metrics_exactly_on_one_seed():
    """BENCHMARK.json's sim bounds cover across-seed spread.  On one seed
    a simulated metric repeats exactly, so 1 % decides, in one pair."""
    assert {m[0] for m in END_TO_END if m[0].startswith("sim_")} \
        == {m[0] for m in END_TO_END} - set(HOST_CLOCK)
    bound = {m[0]: m[3] for m in END_TO_END}["sim_p95_us"]
    worse = 5.0 * (1 + 0.8 * bound)          # inside the harness bound
    v, _ = _verdicts([(_report(1.0, 5.0), _report(1.0, worse))])
    assert v["sim_p95_us"] == "regressed"
    v, _ = _verdicts([(_report(1.0, 5.0), _report(1.0, 5.0 * 0.9))])
    assert v["sim_p95_us"] == "improved"
    v, _ = _verdicts([(_report(1.0, 5.0), _report(1.0, 5.0 * 1.005))])
    assert v["sim_p95_us"] == "unchanged"
    # Better on one seed, worse on another: regressed.
    v, _ = _verdicts([(_report(1.0, 5.0), _report(1.0, 4.0)),
                      (_report(1.0, 6.0, seed=2),
                       _report(1.0, 6.2, seed=2))])
    assert v["sim_p95_us"] == "regressed"
    # Different seeds on the two sides: other inputs, the wide bound.
    v, _ = _verdicts([(_report(1.0, 5.0), _report(1.0, worse, seed=2))])
    assert v["sim_p95_us"] == "unchanged"


def test_compare_counts_no_gain_when_more_operations_fail():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    # Twice as fast because a tenth of the operations now fail.
    rows = compare.compare([(_report(w, 5.0), _report(w / 2, 5.0, failed=100))
                            for w in steady], _spec())
    assert rows[0]["verdict"] == "regressed"
    assert rows[0]["new_fail_rates"][0] == pytest.approx(0.1)
    verdicts = {r["metric"]: r["verdict"] for r in rows[1:]}
    assert verdicts["host_wall_s"] == "void"
    assert "improved" not in verdicts.values()
    assert "more operations fail" in compare.render(rows)
    # ... or because a ladder rung that used to run now raises.
    rows = compare.compare(
        [(_report(w, 5.0, ladder=0.0), _report(w / 2, 5.0, ladder=0.25))
         for w in steady], _spec())
    assert rows[0]["verdict"] == "regressed"
    # The same failures on both sides (a known one, recorded): no verdict
    # changes.
    rows = compare.compare(
        [(_report(w, 5.0, ladder=0.25), _report(w / 2, 5.0, ladder=0.25))
         for w in steady], _spec())
    assert rows[0]["verdict"] == "unchanged"
    assert rows[1]["verdict"] == "improved"
