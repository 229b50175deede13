"""KV serving benchmark: RMA store vs the MPI-1 active-message comparator.

Open-loop Zipfian serving (``repro.serve``) at increasing client counts:
aggregate throughput and the exact p99 for both backends.  The sweep
fans out over the benchmark process pool like every figure sweep;
results land in the ``serve`` section of ``BENCH_simperf.json`` (via
``record_serve``), which ``perf_gate.py`` diffs against the committed
baseline (req/s floors, unscaled: simulated throughput is
machine-independent).

What the curves show -- and the shape assertions pin -- is the paper's
claim on the repo's own serving workload: one-sided beats two-sided.

* uncontended, one-sided access wins the median: at 4 clients the RMA
  get path (one atomic read of the slot) undercuts the comparator's
  request/reply round trip;
* under Zipf-0.99 skew at 64 clients the lock-free store keeps scaling
  with the comparator (both are bound by the offered schedule) and wins
  the tail: a request to the hot owner costs one pass through its AMO
  engine, while the comparator's requests queue behind the hot owner's
  *CPU*, which is also busy being a client.  (The store's first version
  took a striped MCS lock per request and saturated at 0.75 M req/s
  with a 6.2 ms p99 here; see EXPERIMENTS.md.)
"""

from repro.bench import BenchPoint, Series, format_series_table, run_points
from repro.bench.appbench import kv_serve_stats

SERVE_PS = [4, 16, 64]
VARIANTS = ("rma", "mpi1")
TOTAL_REQUESTS = 6400
RATE_HZ = 5e4   # per client; 3.2 M req/s offered at p=64, where a
                # per-request lock saturates (deterministically)
SEED = 1


def test_kv_serve(benchmark, record_series, record_serve):
    def run():
        points = [BenchPoint(kv_serve_stats, (variant, p, TOTAL_REQUESTS),
                             {"rate_hz": RATE_HZ, "seed": SEED})
                  for variant in VARIANTS for p in SERVE_PS]
        values = iter(run_points(points))
        return {variant: {p: next(values) for p in SERVE_PS}
                for variant in VARIANTS}

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    thr, p99 = [], []
    for variant in VARIANTS:
        s_thr = Series(label=variant, meta={"unit": "req/s", "mode": "sim"})
        s_p99 = Series(label=variant, meta={"unit": "us", "mode": "sim"})
        for p in SERVE_PS:
            s_thr.add(p, stats[variant][p]["throughput_rps"])
            s_p99.add(p, round(stats[variant][p]["p99_ns"] / 1e3, 3))
        thr.append(s_thr)
        p99.append(s_p99)
    table = format_series_table(
        "KV serving: aggregate throughput [req/s] vs clients "
        f"(Zipf 0.99, {TOTAL_REQUESTS} requests)", "p", thr)
    table += "\n\n" + format_series_table(
        "KV serving: exact p99 [us] vs clients", "p", p99)
    record_series("kvstore", table, thr + p99)
    record_serve({
        "throughput_rps": {
            f"{variant}_p{p}": stats[variant][p]["throughput_rps"]
            for variant in VARIANTS for p in SERVE_PS},
        "p99_us": {
            f"{variant}_p{p}": round(stats[variant][p]["p99_ns"] / 1e3, 3)
            for variant in VARIANTS for p in SERVE_PS},
        "requests": TOTAL_REQUESTS,
        "rate_hz": RATE_HZ,
        "seed": SEED,
    })
    benchmark.extra_info["serve"] = stats

    by_thr = {s.label: s for s in thr}
    # Uncontended median: one-sided access beats the request/reply
    # round trip.
    assert stats["rma"][4]["p50_ns"] < stats["mpi1"][4]["p50_ns"]
    # Both backends keep scaling with the offered load, 16 -> 64 clients
    # included: nothing on the RMA data plane serializes under skew.
    for variant in VARIANTS:
        assert by_thr[variant].ys[-1] > 2 * by_thr[variant].ys[-2]
    # At 64 clients the one-sided store is at least as fast and has the
    # shorter tail.
    assert stats["rma"][64]["throughput_rps"] \
        >= stats["mpi1"][64]["throughput_rps"]
    assert stats["rma"][64]["p99_ns"] <= stats["mpi1"][64]["p99_ns"]
