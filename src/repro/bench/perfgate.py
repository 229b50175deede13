"""Perf-regression gate over ``BENCH_simperf.json``.

CI runs the kernel microbenchmarks (producing a fresh report) and then
diffs it against the committed ``benchmarks/baseline_simperf.json``:
kernel events/sec and per-figure wall times must stay within
``max_drop`` (default 25%) of the baseline.

Raw throughput numbers do not transfer between machines, so the baseline
embeds a *calibration rate*: the speed of a fixed pure-Python loop on
the machine that recorded it.  The gate measures the same loop on the
current machine and scales every baseline expectation by the ratio --
a runner that is uniformly 2x slower passes, while a change that makes
the simulator 2x slower relative to plain Python fails.  The comparison
logic is pure (report dicts in, failure strings out) so the gate itself
is unit-tested, including the injected-slowdown case.
"""

from __future__ import annotations

import argparse
import json
import time

__all__ = ["calibration_rate", "compare_reports", "main"]

# Fixed-work interpreter loop: integer arithmetic + attribute-free
# bytecode, the same regime the DES kernel hot loop lives in.
_CALIBRATION_ITERS = 2_000_000
_CALIBRATION_BEST_OF = 3

# Figures whose baseline wall time is below this are skipped: their
# runtime is dominated by fixed overhead and noise, not simulation.
MIN_FIGURE_WALL_S = 1.0


def _calibration_work(iters: int) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(iters):
        acc += (i * i) % 97
    elapsed = time.perf_counter() - t0
    assert acc != 0
    return iters / elapsed


def calibration_rate(iters: int = _CALIBRATION_ITERS,
                     best_of: int = _CALIBRATION_BEST_OF) -> float:
    """Iterations/second of the fixed calibration loop (best of N)."""
    return max(_calibration_work(iters) for _ in range(best_of))


def _kernel_rates(report: dict) -> dict[str, float]:
    """Flatten a report's kernel section to {metric: events/sec}."""
    rates: dict[str, float] = {}
    kernel = report.get("kernel") or {}
    for w in kernel.get("workloads") or []:
        name, rate = w.get("workload"), w.get("fast_events_per_sec")
        if name is not None and rate is not None:
            rates[f"kernel.{name}"] = float(rate)
    # The whole-stack paths: RMA issue (put + flush), MPI-1 message
    # (allreduce) and the NIC AMO stream (64-element accumulate + flush).
    for path in ("full_stack", "mpi1_path", "acc_stream"):
        rate = (kernel.get(path) or {}).get("events_per_sec")
        if rate is not None:
            rates[f"kernel.{path}"] = float(rate)
    return rates


def _scale_rates(report: dict) -> dict[str, float]:
    """Flatten a report's scale section to {metric: ranks/sec}."""
    section = report.get("scale") or {}
    rps = section.get("ranks_per_sec") or {}
    return {f"scale.{label}": float(rate) for label, rate in rps.items()
            if rate is not None}


def _serve_rates(report: dict) -> dict[str, float]:
    """Flatten a report's serve section to {metric: requests/sec}.

    Simulated throughput, so a regression here means the *modeled*
    serving pipeline got slower (protocol change), not the host.
    """
    section = report.get("serve") or {}
    rps = section.get("throughput_rps") or {}
    return {f"serve.{label}": float(rate) for label, rate in rps.items()
            if rate is not None}


def compare_reports(baseline: dict, current: dict, *,
                    current_calibration: float | None = None,
                    max_drop: float = 0.25,
                    min_figure_wall_s: float = MIN_FIGURE_WALL_S,
                    ) -> tuple[list[str], list[str]]:
    """Diff ``current`` against ``baseline``; returns (failures, lines).

    ``failures`` is empty when the gate passes; ``lines`` is the full
    human-readable comparison (every checked metric, pass or fail).
    ``current_calibration`` is the calibration-loop rate measured on the
    machine that produced ``current``; None disables machine scaling
    (ratio 1.0).
    """
    base_cal = baseline.get("calibration_rate")
    if current_calibration is not None and base_cal:
        scale = current_calibration / float(base_cal)
    else:
        scale = 1.0

    failures: list[str] = []
    lines = [f"machine scale: {scale:.3f} "
             f"(calibration {current_calibration or 'n/a'} vs "
             f"baseline {base_cal or 'n/a'})"]

    # Rate sections: kernel events/sec and hybrid-scale ranks/sec share
    # the higher-is-better machine-scaled floor logic; simulated rates
    # (KV serving req/s) are machine-independent, so their floor is NOT
    # scaled.  A section absent from the *baseline* warns and passes
    # (older baselines predate the section); a metric absent from the
    # *current* report fails only for the kernel section, which every
    # perf run produces -- scale/serve sweeps are optional in a
    # kernel-only session.
    for section, extract, unit, required, scaled in (
            ("kernel", _kernel_rates, "ev/s", True, True),
            ("scale", _scale_rates, "ranks/s", False, True),
            ("serve", _serve_rates, "req/s", False, False)):
        if section not in baseline:
            lines.append(f"skip {section}: not in baseline")
            continue
        base_rates = extract(baseline)
        cur_rates = extract(current)
        for name in sorted(base_rates):
            cur = cur_rates.get(name)
            if cur is None:
                if required:
                    failures.append(f"{name}: missing from current report")
                    lines.append(f"FAIL {name}: missing from current report")
                else:
                    lines.append(f"skip {name}: not in current report")
                continue
            floor = base_rates[name] * (scale if scaled else 1.0) \
                * (1.0 - max_drop)
            ok = cur >= floor
            verdict = "ok  " if ok else "FAIL"
            lines.append(
                f"{verdict} {name}: {cur:,.0f} {unit} "
                f"(floor {floor:,.0f}, baseline {base_rates[name]:,.0f})")
            if not ok:
                failures.append(
                    f"{name}: {cur:,.0f} {unit} below floor {floor:,.0f} "
                    f"(>{max_drop:.0%} drop vs scaled baseline)")

    base_walls = baseline.get("figures", {}).get("wall_s", {})
    cur_walls = current.get("figures", {}).get("wall_s", {})
    for name in sorted(base_walls):
        base_wall = float(base_walls[name])
        if base_wall < min_figure_wall_s:
            continue
        cur = cur_walls.get(name)
        if cur is None:
            # Figure sweeps are optional in a kernel-only CI run.
            lines.append(f"skip figures.{name}: not in current report")
            continue
        # A max_drop throughput loss inflates wall time by 1/(1-max_drop).
        ceiling = (base_wall / scale) / (1.0 - max_drop)
        ok = float(cur) <= ceiling
        verdict = "ok  " if ok else "FAIL"
        lines.append(f"{verdict} figures.{name}: {cur:.2f}s "
                     f"(ceiling {ceiling:.2f}s, baseline {base_wall:.2f}s)")
        if not ok:
            failures.append(
                f"figures.{name}: {cur:.2f}s above ceiling {ceiling:.2f}s "
                f"(>{max_drop:.0%} throughput drop vs scaled baseline)")

    return failures, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="perf-gate",
        description="Diff a fresh BENCH_simperf.json against the "
                    "committed baseline; non-zero exit on regression.")
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--max-drop", type=float, default=0.25,
                    help="allowed fractional throughput drop (default .25)")
    ap.add_argument("--no-calibration", action="store_true",
                    help="compare raw numbers without machine scaling")
    args = ap.parse_args(argv)

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(args.current, encoding="utf-8") as fh:
        current = json.load(fh)
    cal = None if args.no_calibration else calibration_rate()
    failures, lines = compare_reports(baseline, current,
                                      current_calibration=cal,
                                      max_drop=args.max_drop)
    for line in lines:
        print(line)
    if failures:
        print(f"\nperf gate FAILED ({len(failures)} regression(s)):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI wrapper
    raise SystemExit(main())
