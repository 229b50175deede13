"""Perf-regression gate: comparison logic and calibration scaling."""

from repro.bench.perfgate import calibration_rate, compare_reports


def _report(scale=1.0, cal=10_000_000.0, with_figures=True,
            with_scale=False):
    rep = {
        "calibration_rate": cal,
        "kernel": {
            "workloads": [
                {"workload": "ring", "fast_events_per_sec": 800_000 * scale},
                {"workload": "putget_pattern",
                 "fast_events_per_sec": 900_000 * scale},
            ],
            "full_stack": {"events_per_sec": 150_000 * scale},
        },
    }
    if with_figures:
        # Wall time scales inversely with throughput.
        rep["figures"] = {"wall_s": {"fig7a": 40.0 / scale, "fig9": 0.4}}
    if with_scale:
        rep["scale"] = {
            "workload": "fence",
            "ranks_per_sec": {"4Ki": 100_000 * scale,
                              "1Mi": 500_000 * scale},
        }
    return rep


def test_identical_reports_pass():
    failures, lines = compare_reports(_report(), _report())
    assert failures == []
    assert any(line.startswith("ok") and "kernel.ring" in line
               for line in lines)


def test_two_x_slowdown_fails_every_metric():
    failures, _ = compare_reports(_report(), _report(scale=0.5))
    kernel = [f for f in failures if f.startswith("kernel.")]
    assert len(kernel) == 3
    assert all("below floor" in f for f in kernel)
    # The slowdown also inflates the figure wall past its ceiling.
    assert [f for f in failures if f.startswith("figures.fig7a")]


def test_figure_wall_regression_fails():
    slow = _report()
    slow["figures"]["wall_s"]["fig7a"] = 80.0
    failures, _ = compare_reports(_report(), slow)
    assert failures == ["figures.fig7a: 80.00s above ceiling 53.33s "
                        "(>25% throughput drop vs scaled baseline)"]


def test_short_figures_and_missing_figures_are_skipped():
    """Sub-second baselines are noise; kernel-only CI runs lack figures."""
    failures, lines = compare_reports(_report(), _report(with_figures=False))
    assert failures == []
    assert any("skip figures.fig7a" in line for line in lines)
    assert not any("fig9" in line for line in lines)


def test_missing_kernel_metric_fails():
    current = _report()
    current["kernel"]["workloads"].pop(0)
    failures, _ = compare_reports(_report(), current)
    assert failures == ["kernel.ring: missing from current report"]


def test_mpi1_path_gated_like_full_stack():
    """The two-sided message path is held once a baseline records it; a
    baseline that predates it asks nothing."""
    base, cur = _report(), _report()
    base["kernel"]["mpi1_path"] = {"events_per_sec": 300_000}
    cur["kernel"]["mpi1_path"] = {"events_per_sec": 230_000}
    failures, lines = compare_reports(base, cur)
    assert failures == []
    assert any(line.startswith("ok") and "kernel.mpi1_path" in line
               for line in lines)
    cur["kernel"]["mpi1_path"] = {"events_per_sec": 200_000}
    failures, _ = compare_reports(base, cur)
    assert failures == ["kernel.mpi1_path: 200,000 ev/s below floor 225,000 "
                        "(>25% drop vs scaled baseline)"]
    del cur["kernel"]["mpi1_path"]
    failures, _ = compare_reports(base, cur)
    assert failures == ["kernel.mpi1_path: missing from current report"]
    failures, lines = compare_reports(_report(), base)
    assert failures == []
    assert not any("mpi1_path" in line for line in lines)


def test_acc_stream_gated_like_full_stack():
    """The AMO-stream path is held once a baseline records it: a
    per-element stream engine (~0.35x the array update's rate) fails; a
    baseline without the key asks nothing of a report that has it."""
    base, cur = _report(), _report()
    base["kernel"]["acc_stream"] = {"events_per_sec": 300_000}
    cur["kernel"]["acc_stream"] = {"events_per_sec": 360_000}
    failures, lines = compare_reports(base, cur)
    assert failures == []
    assert any(line.startswith("ok") and "kernel.acc_stream" in line
               for line in lines)
    cur["kernel"]["acc_stream"] = {"events_per_sec": 128_000}
    failures, _ = compare_reports(base, cur)
    assert failures == ["kernel.acc_stream: 128,000 ev/s below floor "
                        "225,000 (>25% drop vs scaled baseline)"]
    del cur["kernel"]["acc_stream"]
    failures, _ = compare_reports(base, cur)
    assert failures == ["kernel.acc_stream: missing from current report"]
    cur["kernel"]["acc_stream"] = {"events_per_sec": 128_000}
    failures, lines = compare_reports(_report(), cur)
    assert failures == []
    assert not any("acc_stream" in line for line in lines)


def test_scale_section_gated_like_kernel_rates():
    base = _report(with_scale=True)
    failures, lines = compare_reports(base, _report(with_scale=True))
    assert failures == []
    assert any(line.startswith("ok") and "scale.1Mi" in line
               for line in lines)
    failures, _ = compare_reports(base, _report(scale=0.5, with_scale=True))
    assert [f for f in failures if f.startswith("scale.")] == [
        "scale.1Mi: 250,000 ranks/s below floor 375,000 "
        "(>25% drop vs scaled baseline)",
        "scale.4Ki: 50,000 ranks/s below floor 75,000 "
        "(>25% drop vs scaled baseline)",
    ]


def test_scale_absent_from_baseline_warns_and_passes():
    # Older baselines predate the scale section; a current report that
    # has one must not fail against them.
    failures, lines = compare_reports(_report(), _report(with_scale=True))
    assert failures == []
    assert any(line == "skip scale: not in baseline" for line in lines)


def test_scale_absent_from_current_warns_and_passes():
    # Scale sweeps are optional in a kernel-only session -- unlike
    # kernel metrics, a missing scale metric is a skip, not a failure.
    failures, lines = compare_reports(_report(with_scale=True), _report())
    assert failures == []
    assert any("skip scale.1Mi: not in current report" in line
               for line in lines)


def test_malformed_kernel_entries_do_not_crash():
    # Hand-edited or truncated reports must degrade to skips/failures,
    # never a KeyError inside the gate.
    current = _report()
    current["kernel"]["workloads"] = [{"workload": "ring"}, {"bogus": 1}]
    current["kernel"]["full_stack"] = {}
    failures, _ = compare_reports(_report(), current)
    assert sorted(failures) == [
        "kernel.full_stack: missing from current report",
        "kernel.putget_pattern: missing from current report",
        "kernel.ring: missing from current report",
    ]
    # Entirely empty current report: everything missing, nothing raised.
    failures, _ = compare_reports(_report(with_scale=True), {})
    assert len([f for f in failures if f.startswith("kernel.")]) == 3
    assert not [f for f in failures if f.startswith("scale.")]


def test_calibration_scales_expectations():
    """A uniformly 2x slower machine passes; the same raw numbers fail
    when the calibration loop says the machine is just as fast."""
    slow_machine = _report(scale=0.5)
    ok, _ = compare_reports(_report(), slow_machine,
                            current_calibration=5_000_000.0)
    assert ok == []
    bad, _ = compare_reports(_report(), slow_machine,
                             current_calibration=10_000_000.0)
    assert len([f for f in bad if f.startswith("kernel.")]) == 3


def test_no_calibration_means_raw_comparison():
    failures, lines = compare_reports(_report(), _report(scale=0.8))
    assert failures == []
    assert lines[0].startswith("machine scale: 1.000")


def test_calibration_rate_is_positive():
    # Tiny iteration count: we only need the plumbing, not a stable rate.
    assert calibration_rate(iters=10_000, best_of=1) > 0


def test_main_exit_codes(tmp_path, capsys):
    import json

    from repro.bench.perfgate import main

    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(_report()))
    cur.write_text(json.dumps(_report()))
    argv = ["--baseline", str(base), "--current", str(cur),
            "--no-calibration"]
    assert main(argv) == 0
    assert "perf gate passed" in capsys.readouterr().out

    cur.write_text(json.dumps(_report(scale=0.5)))
    assert main(argv) == 1
    assert "perf gate FAILED" in capsys.readouterr().out
