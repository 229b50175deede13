"""Fault-tolerance overhead benchmark (rollback-recovery layer).

Measures what the FT machinery costs when nothing fails and what a
recovery costs when something does, on the crash-recoverable hashtable
workload (``repro.ft.workloads``):

* failure-free overhead: simulated completion time with coordinated
  buddy checkpointing at several intervals, against the same workload
  with FT disabled entirely -- the classic checkpoint-interval trade
  (tighter intervals cost more in the steady state but replay less on
  restart);
* recovery cost: one mid-run crash per interval, reporting restart lag
  (recovered vs fault-free completion time) and the restored state's
  bit-identity to the fault-free run.

Results land in the ``ft`` section of ``BENCH_simperf.json``, next to
the kernel and figure sections.
"""

import json
import pathlib

from repro.ft.workloads import final_bytes, run_crash_to_completion, run_reference

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "BENCH_simperf.json"

#: Checkpoint intervals (inserts between coordination points); >=3 so the
#: report shows the overhead curve, not a single point.
INTERVALS = (1, 2, 4)
WORKLOAD = "ft_hashtable"
NRANKS = 4
INSERTS = 8


def _merge_report(section, payload):
    report = {}
    if REPORT.exists():
        try:
            report = json.loads(REPORT.read_text())
        except (ValueError, OSError):
            report = {}
    report[section] = payload
    REPORT.write_text(json.dumps(report, indent=1) + "\n")


def test_ft_overhead(benchmark):
    baseline = run_reference(WORKLOAD, NRANKS, inserts=INSERTS, ft_on=False)
    base_ns = baseline.sim_time_ns

    def sweep():
        rows = []
        for interval in INTERVALS:
            ref = run_reference(WORKLOAD, NRANKS, inserts=INSERTS,
                                interval=interval)
            ft = ref.stats.get("ft", {})
            out = run_crash_to_completion(WORKLOAD, NRANKS, inserts=INSERTS,
                                          interval=interval)
            assert out.match, (interval, "recovered state diverged")
            assert final_bytes(ref) == final_bytes(baseline), (
                interval, "checkpointing perturbed the final state")
            rows.append({
                "interval": interval,
                "base_sim_ns": base_ns,
                "ft_sim_ns": ref.sim_time_ns,
                "overhead": round(ref.sim_time_ns / base_ns - 1.0, 4),
                "checkpoints_taken": ft.get("checkpoints_taken", 0),
                "checkpoint_bytes": ft.get("checkpoint_bytes", 0),
                "recovered_sim_ns": out.recovered.sim_time_ns,
                "restart_lag_ns": (out.recovered.sim_time_ns
                                   - ref.sim_time_ns),
                "entries_replayed": out.recovered.stats.get(
                    "ft", {}).get("entries_replayed", 0),
                "match": out.match,
            })
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    payload = {"nranks": NRANKS, "inserts_per_rank": INSERTS,
               "baseline_sim_ns": base_ns, "intervals": rows}
    _merge_report("ft", payload)
    print()
    for r in rows:
        print(f"interval {r['interval']}: overhead "
              f"{100 * r['overhead']:5.1f}%  "
              f"({r['checkpoints_taken']} ckpts, "
              f"{r['checkpoint_bytes']} B), recovery lag "
              f"{r['restart_lag_ns'] / 1e3:.1f} us, "
              f"replayed {r['entries_replayed']}")
    assert len(rows) >= 3
    # Checkpointing must never change the computed answer, and more
    # frequent checkpoints must not reduce the checkpoint count.
    counts = [r["checkpoints_taken"] for r in rows]
    assert counts == sorted(counts, reverse=True), counts
    benchmark.extra_info["ft"] = payload
