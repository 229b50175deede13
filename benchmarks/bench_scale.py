"""Hybrid scale-mode throughput: simulated ranks per wall-clock second.

The paper's headline runs are at 512Ki processes; the hybrid engine must
make that size (and 1Mi) routine in CI.  This benchmark runs the
``fence_ring`` workload hybrid at 4Ki / 64Ki / 512Ki / 1Mi ranks, reports
ranks-per-second into the ``scale`` section of ``BENCH_simperf.json``
(via the ``record_scale`` fixture), and asserts a
generous absolute floor; the calibrated regression gate lives in
``perf_gate.py`` against ``baseline_simperf.json``.
"""

import time

from repro.scale import format_ranks, run_hybrid

SCALE_PS = [4096, 65536, 524288, 1048576]
WORKLOAD = "fence_ring"

# Dev-container rates are hundreds of thousands of ranks/s; CI machines
# vary wildly, so the in-test floor sits far below (the perf gate does
# the machine-scaled comparison).
RANKS_PER_SEC_FLOOR = 10_000.0
# Paper-scale smoke budget: a 1Mi hybrid run must stay interactive.
MILLION_RANK_WALL_BUDGET_S = 120.0


def test_scale_throughput(benchmark, record_scale):
    def run():
        rows = []
        for p in SCALE_PS:
            t0 = time.perf_counter()
            res = run_hybrid(WORKLOAD, p, ranks_per_node=32)
            wall = time.perf_counter() - t0
            rows.append({
                "ranks": format_ranks(p),
                "nranks": p,
                "wall_s": round(wall, 3),
                "ranks_per_sec": round(p / wall, 1),
                "messages": res.stats["messages"],
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_scale({
        "workload": WORKLOAD,
        "ranks_per_sec": {r["ranks"]: r["ranks_per_sec"] for r in rows},
        "wall_s": {r["ranks"]: r["wall_s"] for r in rows},
        "floor_ranks_per_sec": RANKS_PER_SEC_FLOOR,
    })
    print()
    for r in rows:
        print(f"{r['ranks']:>6}: {r['ranks_per_sec']:>12,.0f} ranks/s "
              f"({r['wall_s']:6.2f}s wall, {r['messages']:,} msgs)")
    benchmark.extra_info["scale"] = rows
    for r in rows:
        assert r["ranks_per_sec"] > RANKS_PER_SEC_FLOOR, r
    by = {r["nranks"]: r for r in rows}
    assert by[1048576]["wall_s"] < MILLION_RANK_WALL_BUDGET_S
