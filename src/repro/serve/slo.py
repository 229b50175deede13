"""Tail-latency SLO aggregation and the deterministic serving report.

Two latency views, cross-checkable against each other:

* exact streaming percentiles (:func:`exact_percentiles`, nearest-rank
  on the full sorted sample) -- the SLO gate's source of truth;
* the obs layer's power-of-two histogram (``kv.latency_ns`` merged
  across ranks) -- the cheap always-on view whose bucket for p99 must
  bracket the exact value.

Everything in the report is integer nanoseconds or round()-ed floats of
deterministic inputs, so a repeated run of the same spec produces a
bit-identical JSON document -- the acceptance property the CLI and the
CI job assert by hashing.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.serve.driver import all_latencies
from repro.serve.zipf import OP_GET, OP_PUT, OP_UPDATE, ServeSpec

__all__ = ["exact_percentiles", "build_report", "ft_section",
           "render_report", "report_digest"]

_QUANTILES = (("p50", 50.0), ("p99", 99.0), ("p99_9", 99.9))


def exact_percentiles(samples, quantiles=_QUANTILES) -> dict[str, int]:
    """Nearest-rank percentiles of integer samples (exact, not
    interpolated: every reported value is an observed latency)."""
    arr = np.sort(np.asarray(samples, dtype=np.int64))
    out = {}
    for name, q in quantiles:
        if arr.size == 0:
            out[name] = 0
        else:
            idx = max(0, math.ceil(q / 100.0 * arr.size) - 1)
            out[name] = int(arr[min(idx, arr.size - 1)])
    return out


def _hotspots(obs, top: int = 8) -> dict:
    """Per-rank hotspot section from the obs metrics: key-skew heatmap
    (requests served per owner) and the data plane's chain walks (the
    ``kv.chain_hops`` of requests that followed a slot's overflow chain:
    how many, mean and max hops)."""
    if obs is None:
        return {}
    snap = obs.metrics.snapshot()
    owners = snap["counters"].get("kv.owner_requests", {})
    ranked = sorted(owners.items(), key=lambda kv: (-kv[1], int(kv[0])))
    hops = obs.metrics.merged_histogram("kv.chain_hops")
    return {
        "owner_requests": {r: n for r, n in ranked},
        "hottest_owners": [{"rank": int(r), "requests": n}
                           for r, n in ranked[:top]],
        "chain_walks": hops.count,
        "chain_hops_mean": round(hops.mean, 2),
        "chain_hops_max": int(hops.max or 0),
    }


def build_report(result, spec: ServeSpec, nranks: int, *,
                 variant: str = "rma") -> dict:
    """JSON-ready serving report for one run (deterministic)."""
    lats = all_latencies(result)
    rows = np.concatenate([v[0] for v in result.returns]) \
        if result.returns else np.zeros((0, 3), np.int64)
    ops = rows[:, 2] if rows.size else np.zeros(0, np.int64)
    pct = exact_percentiles(lats)
    sim_s = result.sim_time_ns / 1e9
    report = {
        "workload": {
            "variant": variant,
            "nranks": nranks,
            "nkeys": spec.nkeys,
            "theta": spec.theta,
            "requests": int(lats.size),
            "rate_hz": spec.rate_hz,
            "seed": spec.seed,
            "ft_mode": spec.ft_mode,
        },
        "latency_ns": {
            **pct,
            "mean": round(float(lats.mean()), 1) if lats.size else 0.0,
            "max": int(lats.max()) if lats.size else 0,
            "count": int(lats.size),
        },
        "ops": {
            "get": int(np.count_nonzero(ops == OP_GET)),
            "put": int(np.count_nonzero(ops == OP_PUT)),
            "update": int(np.count_nonzero(ops == OP_UPDATE)),
        },
        "throughput_rps": round(lats.size / sim_s, 1) if sim_s else 0.0,
        "sim_time_ns": result.sim_time_ns,
        "hotspots": _hotspots(result.obs),
    }
    if result.obs is not None:
        hist = result.obs.metrics.merged_histogram("kv.latency_ns")
        report["latency_hist"] = hist.snapshot()
    return report


def ft_section(outcome) -> dict:
    """``report["ft"]`` for a crash-through serving experiment (an
    :class:`~repro.ft.workloads.FTOutcome` of ``ft_kvstore`` run with
    ``obs=True``).

    Both SLO facts are read off the recovered run's observability
    timeline: the availability gap is crash instant to the end of the
    last ``ft.restore`` span, the post-recovery p99 the tail over
    requests completing after that point."""
    rec = outcome.recovered
    end = max((s.end_ns() for s in rec.obs.spans.spans
               if s.name == "ft.restore"), default=None)
    post = []
    if end is not None:
        for rows, _state in rec.returns:
            late = rows[rows[:, 1] >= end]
            post.extend((late[:, 1] - late[:, 0]).tolist())
    return {
        "crash_rank": outcome.crash_rank,
        "crash_time_ns": outcome.crash_time_ns,
        "state_match": outcome.match,
        "availability_gap_ns": (max(0, end - outcome.crash_time_ns)
                                if end is not None else 0),
        "post_recovery_p99_ns": exact_percentiles(post)["p99"],
        "ranks_restored": rec.stats.get("recovery", {}).get(
            "ranks_restored", 0),
    }


def report_digest(report: dict) -> str:
    """Content hash of a report -- the bit-identity acceptance check."""
    import hashlib

    blob = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def render_report(report: dict) -> str:
    """Plain-text rendering of :func:`build_report`'s dict."""
    w = report["workload"]
    lat = report["latency_ns"]
    ops = report["ops"]
    lines = [
        f"kvstore serve ({w['variant']}): {w['requests']} requests, "
        f"{w['nranks']} ranks, {w['nkeys']} keys, theta={w['theta']:g}, "
        f"seed={w['seed']}",
        f"  ops: {ops['get']} get / {ops['put']} put / "
        f"{ops['update']} update",
        f"  throughput: {report['throughput_rps']:,.0f} req/s over "
        f"{report['sim_time_ns'] / 1e6:.3f} ms simulated",
        f"  latency: p50 {lat['p50'] / 1e3:.2f} us | "
        f"p99 {lat['p99'] / 1e3:.2f} us | "
        f"p99.9 {lat['p99_9'] / 1e3:.2f} us | "
        f"max {lat['max'] / 1e3:.2f} us",
    ]
    hot = report.get("hotspots") or {}
    if hot.get("hottest_owners"):
        tops = ", ".join(f"r{h['rank']}={h['requests']}"
                         for h in hot["hottest_owners"][:4])
        lines.append(f"  hotspots: {tops} "
                     f"(chain walks {hot['chain_walks']}, "
                     f"mean {hot['chain_hops_mean']:.2f} hops, "
                     f"max {hot['chain_hops_max']})")
    ft = report.get("ft")
    if ft:
        lines.append(
            f"  ft: crashed rank {ft['crash_rank']} at "
            f"{ft['crash_time_ns'] / 1e6:.3f} ms, availability gap "
            f"{ft['availability_gap_ns'] / 1e3:.1f} us, post-recovery "
            f"p99 {ft['post_recovery_p99_ns'] / 1e3:.2f} us, state "
            + ("MATCH" if ft["state_match"] else "MISMATCH"))
    lines.append(f"  report digest: {report_digest(report)[:16]}")
    return "\n".join(lines)
