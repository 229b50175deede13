"""Measuring one workload in this process: repetitions, digests, statistics.

Every repetition builds a fresh world with ``Job.build_world`` and runs it
with ``run_on_world`` -- never through ``repro.bench.cache`` or
``repro.bench.pool`` -- so every run is cold by construction.

Two clocks.  *Host* numbers vary from run to run and are reported as
medians with quartiles and the sample count; every timed repetition runs
between two runs of the calibration loop and its time is put at reference
speed (``calibrate.py``), because the machine's own speed drifts by more
than any bound.
*Simulated* numbers are a pure function of the seed and are reported once,
with a ``sim_digest`` over (returns, ``sim_time_ns``, ``events_processed``,
``stats``): a change that only makes the simulator faster must leave every
digest as it is.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from repro.runtime.job import run_on_world

from perfbench.calibrate import (
    CAL_EVENTS,
    CAL_REF_S,
    at_reference_speed,
    calibration_s,
)
from perfbench.layers import LAYERS, Tracer, profile_layers
from perfbench.workloads import KvZipf, Workload, percentiles_us

__all__ = ["measure_untraced", "measure_traced", "provenance",
           "sim_digest", "LIMIT_P99_US", "LIMIT_BACKLOG_US", "MIN_REPS",
           "MIN_ROUNDS", "RESOLVED_SPREAD"]

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
REPO_SRC = os.path.join(REPO_ROOT, "src", "repro")

#: A rate rung is sustained when its p99 and its closing backlog are both
#: within these limits and no request failed.
LIMIT_P99_US = 50.0
LIMIT_BACKLOG_US = 50.0
#: Timed repetitions are never fewer than this, whatever ``--seconds`` is.
MIN_REPS = 3
#: ... and neither are the rounds of the instrument on/off differentials.
#: Their median ratio counts as ``resolved`` when it is known to about
#: this share of itself: (q3 - q1) / sqrt(rounds) <= share * median.
MIN_ROUNDS = 3
RESOLVED_SPREAD = 0.05


# ----------------------------------------------------------------------
# digest
# ----------------------------------------------------------------------
def _feed(h, obj) -> None:
    """Hash ``obj`` canonically (type-tagged, order-independent dicts)."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.generic):
        _feed(h, obj.item())
    else:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())


def sim_digest(result) -> str:
    """sha256 over everything the simulation produced.  The race
    checker's own counters are left out so that a checked run can be
    compared with an unchecked one."""
    h = hashlib.sha256()
    stats = {k: v for k, v in result.stats.items() if k != "check"}
    _feed(h, (result.returns, result.sim_time_ns, result.events_processed,
              stats))
    return h.hexdigest()


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------
class Rep:
    """One cold run: its wall times, result, digest and failed ops."""

    def __init__(self, workload: Workload, *, tracer: Tracer | None = None,
                 obs: bool = False, check: bool = False,
                 profiler=None) -> None:
        gc.collect()
        job = workload.job(obs=obs, check=check)
        program, args = workload.launch()
        t0 = time.perf_counter()
        world = job.build_world()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.attach(world)
        if profiler is not None:
            profiler.enable()
        try:
            self.result = result = run_on_world(world, program, *args)
        finally:
            if profiler is not None:
                profiler.disable()
        t2 = time.perf_counter()
        for value in result.returns:
            if isinstance(value, BaseException):
                raise value
        self.build_s = t1 - t0
        self.wall_s = t2 - t1
        self.events = result.events_processed
        self.digest = sim_digest(result)
        self.failed = workload.verify(result)


def _quartiles(values) -> dict:
    """Median, quartiles and count of a host-clock sample."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _sim_metrics(workload: Workload, outcome) -> dict:
    lat = outcome.latencies_ns
    p50, p95, p99 = percentiles_us(lat, 50, 95, 99)
    return {
        "sim_ops_per_s": workload.ops / (outcome.makespan_ns / 1e9),
        "sim_p50_us": p50,
        "sim_p95_us": p95,
        "sim_makespan_us": outcome.makespan_ns / 1e3,
    }, {"latency_samples": int(lat.size),
        "samples_beyond_p95": int(lat.size - np.ceil(0.95 * lat.size)),
        "p99_us": p99}


class _Tally:
    """Attempted / failed operations and the errors behind them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, workload: Workload, what: str, **kwargs) -> Rep | None:
        """One repetition; an exception fails all of its operations
        instead of aborting the benchmark."""
        self.attempted += workload.ops
        try:
            rep = Rep(workload, **kwargs)
        except Exception as exc:  # boundary: the benchmark must go on
            self.failed += workload.ops
            self.errors.append(f"{what}: {type(exc).__name__}: "
                               f"{str(exc)[:300]}")
            traceback.print_exc(file=sys.stderr)
            return None
        self.failed += rep.failed
        if rep.failed:
            self.errors.append(f"{what}: {rep.failed} wrong operations")
        return rep

    def expect_digest(self, workload, rep: Rep, digest: str, what: str):
        """A run that does not reproduce the reference digest is wrong,
        whatever its outputs look like."""
        if rep.digest != digest:
            self.failed += workload.ops - rep.failed
            self.errors.append(f"{what}: sim_digest differs from the "
                               "reference run")
            return False
        return True


def _reference(workload: Workload, tally: _Tally, *, layers: bool = False):
    """The warm-up run.  It also yields the simulated metrics: the tracer
    (with only the workload's ``op`` boundaries unless ``layers``) times
    the operations that the program does not time itself.  The timed
    repetitions run without it."""
    with Tracer(workload.op_targets, layers=layers) as tracer:
        rep = tally.run(workload, "reference", tracer=tracer)
    if rep is None:
        raise SystemExit("perfbench: the reference run failed:\n  "
                         + "\n  ".join(tally.errors))
    return rep, workload.outcome(rep.result, tracer.op_spans()), tracer


# ----------------------------------------------------------------------
# untraced: the end-to-end metrics
# ----------------------------------------------------------------------
def measure_untraced(workload: Workload, seconds: float,
                     setup_s: list[float]) -> dict:
    tally = _Tally()
    ref, outcome, _recorder = _reference(workload, tally)
    raw: list[float] = []       # this machine's seconds
    walls: list[float] = []     # the same, at reference speed
    start = time.perf_counter()
    cals = [calibration_s()]
    reps = 0
    while True:
        rep = tally.run(workload, f"repetition {reps}")
        cals.append(calibration_s())
        reps += 1
        if rep is not None and tally.expect_digest(
                workload, rep, ref.digest, f"repetition {reps - 1}"):
            raw.append(rep.wall_s)
            walls.append(at_reference_speed(rep.wall_s, *cals[-2:]))
        elapsed = time.perf_counter() - start
        if reps >= MIN_REPS and (
                not raw or elapsed + statistics.median(raw) > seconds):
            break
    if not walls:
        raise SystemExit("perfbench: every timed repetition failed:\n  "
                         + "\n  ".join(tally.errors))
    sim, sample = _sim_metrics(workload, outcome)
    host = {
        "host_wall_s": _quartiles(walls),
        "host_ops_per_s": _quartiles([workload.ops / w for w in walls]),
        "host_events_per_s": _quartiles([ref.events / w for w in walls]),
        "setup_s": _quartiles(setup_s),
    }
    metrics = {name: q["median"] for name, q in host.items()}
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics.update(sim)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_rate": tally.failed / tally.attempted,
        "errors": tally.errors,
        "metrics": metrics,
        "host_quartiles": host,
        "host_raw": {"wall_s": _quartiles(raw),
                     "calibration_s": _quartiles(cals)},
        "sim_digest": ref.digest,
        "sim": {**sample, "events": ref.events,
                "sim_time_ns": ref.result.sim_time_ns, **outcome.extra},
    }


# ----------------------------------------------------------------------
# traced: the per-layer metrics
# ----------------------------------------------------------------------
def _ladder(workload: KvZipf, host_rung: Rep) -> dict:
    """Offered-rate ladder of an open-loop workload (plain runs).  A rung
    that raises fails all of its requests and misses the limit; the
    benchmark goes on.  The ladder keeps its own tally: what happens at
    another offered rate is a finding about the ``serve`` layer
    (``serve.fail_rate``, ``serve.max_rate_rps``), not a wrong output of
    the workload's own run.  ``host_rung`` is the finished plain run of
    the workload itself, which is the ``HOST_RUNG_HZ`` rung."""
    tally = _Tally()
    rungs, best = [], 0.0
    for hz in workload.RUNGS_HZ:
        at = workload.at_rate(hz)
        if hz == workload.HOST_RUNG_HZ:
            rep = host_rung
            tally.attempted += at.ops
            tally.failed += rep.failed
        else:
            rep = tally.run(at, f"rung {hz} Hz")
        if rep is None:
            rungs.append({"rate_hz": hz, "error": tally.errors[-1],
                          "slo_share": 0.0, "sustained": False})
            continue
        out = at.outcome(rep.result, ())
        lat = out.latencies_ns
        p50, p99 = percentiles_us(lat, 50, 99)
        within = int(np.count_nonzero(lat <= LIMIT_P99_US * 1e3))
        ok = (rep.failed == 0 and p99 <= LIMIT_P99_US
              and out.extra["backlog_end_us"] <= LIMIT_BACKLOG_US)
        if ok:
            best = max(best, hz * at.nranks)
        rungs.append({"rate_hz": hz, "offered_rps": hz * at.nranks,
                      "p50_us": p50, "p99_us": p99,
                      "slo_share": max(0, within - rep.failed) / at.ops,
                      "achieved_rps": at.ops / (out.makespan_ns / 1e9),
                      "backlog_end_us": out.extra["backlog_end_us"],
                      "sustained": ok, "sim_digest": rep.digest})
    return {"rungs": rungs, "max_rate_rps": best,
            "attempted": tally.attempted, "failed": tally.failed,
            "fail_rate": tally.failed / tally.attempted,
            "errors": tally.errors}


def _serve_metrics(workload: Workload, outcome, p99_us, ladder) -> dict:
    """The ``serve.*`` metrics.  A closed-loop workload issues an
    operation when the previous one completes: nothing ever queues, its
    latency is all service, and it serves no offered rate."""
    out = {"serve.queue_us_per_op": 0.0, "serve.queue_p99_us": 0.0,
           "serve.service_p99_us": p99_us, "serve.backlog_end_us": 0.0,
           "serve.hot_owner_share": 0.0, "serve.max_rate_rps": 0.0,
           "serve.fail_rate": 0.0}
    out.update({f"serve.slo_share_{hz // 1000}khz": 0.0
                for hz in KvZipf.RUNGS_HZ})
    if ladder is not None:
        out.update({f"serve.{key}": outcome.extra[key]
                    for key in ("queue_us_per_op", "queue_p99_us",
                                "service_p99_us", "backlog_end_us")})
        out["serve.hot_owner_share"] = workload.hot_owner_share()
        out["serve.max_rate_rps"] = ladder["max_rate_rps"]
        out["serve.fail_rate"] = ladder["fail_rate"]
        for rung in ladder["rungs"]:
            out[f"serve.slo_share_{rung['rate_hz'] // 1000}khz"] = \
                rung["slo_share"]
    return out


def _overheads(workload: Workload, tally: _Tally, until: float) -> dict:
    """Instrument on / instrument off, on the smoke-sized instance of the
    workload: whole rounds of (plain, obs, spans, checker), interleaved so
    that drift of the machine hits every instrument alike, at least
    ``MIN_ROUNDS`` and then until the clock reads ``until``.  One ratio
    per round and instrument; their median and quartiles are reported,
    and whether the rounds were enough to pin the median down
    (``resolved``)."""
    small = workload.small()
    plan = (("plain", {}), ("obs", {"obs": True}), ("spans", {}),
            ("check", {"check": True}))
    ratios: dict[str, list[float]] = {kind: [] for kind, _c in plan[1:]}
    digest = None
    round_s = 0.0
    while (len(ratios["obs"]) < MIN_ROUNDS
           or time.perf_counter() + round_s < until):
        round_start = time.perf_counter()
        walls = {}
        for kind, config in plan:
            if kind == "spans":
                with Tracer(small.op_targets) as tracer:
                    rep = tally.run(small, f"small {kind}", tracer=tracer)
            else:
                rep = tally.run(small, f"small {kind}", **config)
            if rep is None:
                raise SystemExit("perfbench: an instrumented run failed:"
                                 "\n  " + "\n  ".join(tally.errors))
            digest = digest or rep.digest
            tally.expect_digest(small, rep, digest, f"small {kind}")
            walls[kind] = rep.wall_s
        for kind, sample in ratios.items():
            sample.append(walls[kind] / walls["plain"])
        round_s = time.perf_counter() - round_start
    out = {}
    for kind, sample in ratios.items():
        q = _quartiles(sample)
        q["resolved"] = ((q["q3"] - q["q1"]) / len(sample) ** 0.5
                         <= RESOLVED_SPREAD * q["median"])
        out[kind] = q
    return out


def measure_traced(workload: Workload, seconds: float,
                   spans_out: str | None = None) -> dict:
    start = time.perf_counter()
    tally = _Tally()
    ops = workload.ops
    # Full size, once each: every wrapper on (this is also the reference
    # run), nothing on, the profiler on.
    ref, outcome, tracer = _reference(workload, tally, layers=True)
    cal = calibration_s()
    plain = tally.run(workload, "plain")
    cal = (cal, calibration_s())
    profiler = cProfile.Profile(builtins=False)
    profiled = tally.run(workload, "profile", profiler=profiler)
    if plain is None or profiled is None:
        raise SystemExit("perfbench: a full-size run failed:\n  "
                         + "\n  ".join(tally.errors))
    traced_digest_matches = tally.expect_digest(
        workload, plain, ref.digest, "plain (against the traced run)")
    tally.expect_digest(workload, profiled, ref.digest, "profile")
    metrics = {
        "sim.events_per_op": ref.events / ops,
        "sim.host_us_per_event":
            at_reference_speed(plain.wall_s, *cal) / ref.events * 1e6,
        "runtime.world_build_s": statistics.median(
            [ref.build_s, plain.build_s, profiled.build_s]),
    }

    # Host half: the profiled repetition (run_on_world only).
    profile = profile_layers(profiler, ops, REPO_SRC, BENCH_DIR)
    other_share = profile.pop("_other_self_share")
    metrics.update(profile)

    # Simulated half: the spans of the traced run.
    layer_metrics, breakdown = tracer.summary(
        ops, workload.trace_since(ref.result, tracer.op_spans()))
    metrics.update(layer_metrics)
    if spans_out:
        tracer.dump(spans_out)

    sim, sample = _sim_metrics(workload, outcome)
    ladder = None
    if isinstance(workload, KvZipf):
        ladder = _ladder(workload, plain)
        # queue + the operation's parts = the measured request latency
        # (only where requests are op spans, i.e. on the RMA store).
        breakdown["queue"] = outcome.extra["queue_us_per_op"]
        breakdown["measured_latency"] = \
            float(outcome.latencies_ns.mean()) / 1e3
    metrics.update(_serve_metrics(workload, outcome, sample["p99_us"],
                                  ladder))
    # Agreement with the paper's constants; 0 where there is no reference
    # to agree with (the workload is unvalidated).
    err = outcome.extra.get("model_err_pct")
    metrics["machine.model_agreement_pct"] = \
        0.0 if err is None else max(0.0, 100.0 - err)

    # Host half, differentials: what is left of ``seconds``.
    overheads = _overheads(workload, tally, start + seconds)
    for kind, name in (("obs", "obs"), ("check", "check"),
                       ("spans", "trace")):
        metrics[f"{name}.host_overhead_ratio"] = overheads[kind]["median"]

    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_rate": tally.failed / tally.attempted,
        "errors": tally.errors + (ladder["errors"] if ladder else []),
        "metrics": metrics,
        "sim_digest": ref.digest,
        "traced_digest_matches": traced_digest_matches,
        "sim": {**sim, **sample, **outcome.extra},
        "op_breakdown_us": breakdown,
        "other_self_share": other_share,
        "ladder": ladder,
        "overhead_ratios": overheads,
        "full_size_wall_s": {"traced": ref.wall_s, "plain": plain.wall_s,
                             "profiled": profiled.wall_s},
        "spans": len(tracer.spans),
    }


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _calibration_rate(iters: int = 1_000_000, best_of: int = 3) -> float:
    """Iterations/second of the perf gate's fixed interpreter loop
    (repro.bench.perfgate uses the same loop body), so host numbers from
    two machines can be put on one scale."""
    best = 0.0
    for _ in range(best_of):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iters):
            acc += (i * i) % 97
        best = max(best, iters / (time.perf_counter() - t0))
    return best


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: Workload, seconds: float) -> dict:
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "calibration_loop_per_s": _calibration_rate(),
        "reference_speed": {"loop_events": CAL_EVENTS,
                            "loop_seconds": CAL_REF_S},
        "seed": workload.seed,
        "smoke": workload.smoke,
        "sizes": workload.sizes(),
        "seconds": seconds,
        "cache": "bypassed",
        "layers": list(LAYERS),
    }
