#!/usr/bin/env python3
"""perfbench command line.

One workload, as ``BENCHMARK.json`` runs it (the last line of standard
output is the result object)::

    python3 perfbench/run.py --workload kv_zipf_rma --seed 1 \\
        --seconds 10 --trace 0      # end-to-end metrics
    python3 perfbench/run.py --workload kv_zipf_rma --seed 1 \\
        --seconds 10 --trace 1      # per-layer metrics

Every workload, each alone in a fresh process, into one result file that
``compare.py`` reads::

    python3 perfbench/run.py --seed 1 --traced --out result.json
    python3 -m perfbench --seed 1 --traced --out result.json   # the same
"""

import os
import sys
import time

_T0 = time.perf_counter()       # set-up time is counted from here

# One core per run (the container has two): keep numpy's BLAS from
# starting threads that would race the measurement.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"perfbench: {os.path.join(ROOT, 'src', 'repro')} not found; "
             "the benchmark measures the repository it is checked out in")
# Import through the package name only: the script directory itself must
# not be on the path, the repository's sources must come first.
sys.path[:] = [os.path.join(ROOT, "src"), ROOT] + [
    p for p in sys.path if os.path.abspath(p or os.curdir) != HERE]

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

SETUP_SAMPLES = 5
# Spelled out (test_perfbench.py holds it equal to workloads.WORKLOADS):
# the arguments are parsed before numpy and repro are imported, because
# those imports are part of the set-up time being measured.
WORKLOAD_NAMES = ("put_stream", "get_amo_stream", "hashtable_p256",
                  "kv_zipf_rma", "kv_zipf_mpi1", "milc_p64")


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                 formatter_class=argparse
                                 .RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run this workload in this process (default: "
                         "every workload, each in a fresh process)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="how long the timed repetitions run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics")
    ap.add_argument("--traced", action="store_true",
                    help="all-workload mode: also make the traced runs")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes (for test_perfbench.py)")
    ap.add_argument("--out", help="write the full result as JSON")
    ap.add_argument("--spans-out",
                    help="with --trace 1: write the spans as JSON lines")
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def _setup_once(args) -> float:
    """Imports + input generation + world construction, from the first
    statement of this file; what a user pays before any simulation."""
    from perfbench.workloads import make

    make(args.workload, args.seed, args.smoke).job().build_world()
    return time.perf_counter() - _T0


def _setup_samples(args) -> list[float]:
    """Set-up time of fresh interpreters (imports can be timed only once
    per process), each between two runs of the calibration loop and put
    at reference speed."""
    from perfbench.calibrate import at_reference_speed, calibration_s

    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    cal = calibration_s()
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        before, cal = cal, calibration_s()
        samples.append(at_reference_speed(
            float(out.stdout.strip().splitlines()[-1]), before, cal))
    return samples


def run_one(args) -> int:
    if args.setup_child:
        print(repr(_setup_once(args)))
        return 0
    setup_s = _setup_samples(args) if not args.trace else []

    from perfbench import measure
    from perfbench.metrics import END_TO_END, PER_LAYER, UNITS
    from perfbench.workloads import make

    workload = make(args.workload, args.seed, args.smoke)
    if args.trace:
        report = measure.measure_traced(workload, args.seconds,
                                        args.spans_out)
        names = [m[0] for m in PER_LAYER]
    else:
        report = measure.measure_untraced(workload, args.seconds, setup_s)
        names = [m[0] for m in END_TO_END]
    # Host numbers from a run that could have been served from the run
    # cache or the process pool would not be cold: refuse to emit them.
    warm = [m for m in ("repro.bench.cache", "repro.bench.pool")
            if m in sys.modules]
    if warm:
        print(f"perfbench: {warm} got imported; refusing to report",
              file=sys.stderr)
        return 3
    report.update(workload=workload.name, trace=args.trace,
                  provenance=measure.provenance(workload, args.seconds))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, default=float)

    metrics = report["metrics"]
    print(f"# {workload.name}  seed={args.seed}  trace={args.trace}  "
          f"sim_digest={report['sim_digest'][:16]}")
    for name in names:
        print(f"{name:32s} {metrics[name]:.6g} {UNITS[name]}")
    for line in _defined_here_only(report):
        print(f"# {line}")
    for err in report["errors"]:
        print(f"! {err}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": UNITS[name]} for name in names},
    }))
    return 0


def _defined_here_only(report) -> list[str]:
    """What a traced run found that is defined on this workload only (a
    rung's latency, the model error), and which on/off ratios its rounds
    did not pin down.  Where these are undefined they are left out."""
    lines = []
    for rung in (report.get("ladder") or {}).get("rungs", ()):
        if "error" in rung:
            lines.append(f"rung {rung['rate_hz']} Hz: raised, all of its "
                         "requests failed, not sustained")
        else:
            lines.append(
                f"rung {rung['rate_hz']} Hz: p50 {rung['p50_us']:.4g} us  "
                f"p99 {rung['p99_us']:.4g} us  backlog "
                f"{rung['backlog_end_us']:.4g} us  "
                + ("sustained" if rung["sustained"] else "not sustained"))
    for what, err in report["sim"].get("model_errs_pct", {}).items():
        lines.append(f"model_err_pct {what}: {err:.4g} %")
    for kind, q in report.get("overhead_ratios", {}).items():
        lines.append(
            f"{kind} on/off: {q['median']:.4g} [{q['q1']:.4g}, "
            f"{q['q3']:.4g}] over {q['n']} rounds"
            + ("" if q["resolved"] else "  UNRESOLVED (too few rounds)"))
    return lines


# ----------------------------------------------------------------------
# every workload, each alone in a fresh process
# ----------------------------------------------------------------------
def run_all(args) -> int:
    results: dict = {}
    status = 0
    with tempfile.TemporaryDirectory(prefix="perfbench-") as tmp:
        for name in WORKLOAD_NAMES:
            for trace in (0, 1) if args.traced else (0,):
                part = os.path.join(tmp, f"{name}.{trace}.json")
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--out", part]
                cmd += ["--smoke"] if args.smoke else []
                proc = subprocess.run(cmd, capture_output=True, text=True)
                sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    status = 1
                    continue
                with open(part) as fh:
                    key = "traced" if trace else "untraced"
                    results.setdefault(name, {})[key] = json.load(fh)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"schema": 1, "seed": args.seed, "workloads": results},
                      fh, indent=1, sort_keys=True)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
