#!/usr/bin/env python3
"""Compare benchmark results of two commits.

    python3 perfbench/compare.py BASE.json NEW.json [BASE2.json NEW2.json ...]

Each argument pair is one measurement of the parent commit and one of the
change, made back to back (alternate which side runs first).  The files
come from ``run.py --out`` (one workload) or from the all-workload mode.

One row per (end-to-end metric, workload): both medians with their
quartiles, the ratio new/base with its base, and a verdict --

* ``unresolved``  the base's own spread (distance between its quartiles,
                  as a share of its median) is wider than the metric's
                  bound, so neither a gain nor a regression can be told;
* ``regressed``   the new median is worse than the base's by more than
                  the bound in ``BENCHMARK.json``;
* ``improved``    the change wins at least nine tenths of at least ten
                  pairs (ties count for neither side) and the medians
                  differ by more than the base's spread;
* ``unchanged``   otherwise.

A ``sim_*`` metric is a pure function of the seed.  Where both sides of
every pair ran the same seed it is judged pair by pair against 1 %, not
against the across-seed bound of ``BENCHMARK.json``: ``regressed`` if it
is worse by more than that in any pair, ``improved`` if it is better by
more than that in every pair (one pair is proof), else ``unchanged``.

Per workload it also prints ``sim-identical`` when the two sides of every
pair carry the same ``sim_digest`` (on that seed the change did not move
the simulation at all), and
both sides' fail rates (failed / attempted operations of the runs, and
the rate ladder's ``serve.fail_rate`` where the files carry the traced
runs).  The bound on a fail rate is *no increase*: if the change fails
more, the workload is ``regressed`` and no gain on it counts -- its
``improved`` rows read ``void``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
#: bound on a simulated-clock metric when both sides ran the same seed
SIM_BOUND = 0.01


def load(path: str) -> dict:
    """{workload: untraced report} from either kind of result file."""
    with open(path) as fh:
        doc = json.load(fh)
    if "workloads" in doc:
        out = {}
        for name, parts in doc["workloads"].items():
            if "untraced" in parts:
                out[name] = dict(parts["untraced"])
                if "traced" in parts:
                    out[name]["ladder_fail_rate"] = \
                        parts["traced"]["metrics"]["serve.fail_rate"]
        return out
    if doc.get("trace"):
        raise SystemExit(f"{path}: a --trace 1 result has no end-to-end "
                         "metrics to compare")
    return {doc["workload"]: doc}


def _spread(values, report, metric):
    """(q1, q3) across runs; with a single run, the quartiles of its own
    repetitions where the metric has them."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return q1, q3
    within = report.get("host_quartiles", {}).get(metric)
    if within:
        return within["q1"], within["q3"]
    return values[0], values[0]


def verdict(base, new, better, bound, base_q) -> str:
    b_med, n_med = statistics.median(base), statistics.median(new)
    iqr = base_q[1] - base_q[0]
    if b_med and iqr / abs(b_med) > bound:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if worse_by > bound:
        return "regressed"
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    if (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base)
            and abs(n_med - b_med) > iqr):
        return "improved"
    return "unchanged"


def verdict_same_seed(base, new, better) -> str:
    """A simulated-clock metric, each pair on one seed: exact numbers."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = [sign * (n - b) / abs(b) for b, n in zip(base, new)]
    if max(worse_by) > SIM_BOUND:
        return "regressed"
    if max(worse_by) < -SIM_BOUND:
        return "improved"
    return "unchanged"


def _fail_rates(reports) -> tuple[float, float]:
    """(failed / attempted over the runs, worst ladder fail rate)."""
    return (sum(r["failed"] for r in reports)
            / sum(r["attempted"] for r in reports),
            max(r.get("ladder_fail_rate", 0.0) for r in reports))


def _seed(report):
    return report.get("provenance", {}).get("seed")


def compare(pairs, spec) -> list[dict]:
    """``pairs``: [(base reports, new reports)] keyed by workload."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for name in workloads:
        base = [b[name] for b, _n in pairs if name in b]
        new = [n[name] for _b, n in pairs if name in n]
        if not base or len(base) != len(new):
            continue
        identical = all(b["sim_digest"] == n["sim_digest"]
                        for b, n in zip(base, new))
        b_fail, n_fail = _fail_rates(base), _fail_rates(new)
        fails_more = n_fail[0] > b_fail[0] or n_fail[1] > b_fail[1]
        same_seed = all(_seed(b) is not None and _seed(b) == _seed(n)
                        for b, n in zip(base, new))
        rows.append({"workload": name,
                     "sim_identical": identical,
                     "base_fail_rates": b_fail, "new_fail_rates": n_fail,
                     "verdict": "regressed" if fails_more else "unchanged"})
        for m in spec["end_to_end"]:
            metric = m["name"]
            b_vals = [r["metrics"][metric] for r in base]
            n_vals = [r["metrics"][metric] for r in new]
            b_q = _spread(b_vals, base[0], metric)
            n_q = _spread(n_vals, new[0], metric)
            if same_seed and metric.startswith("sim_"):
                result = verdict_same_seed(b_vals, n_vals, m["better"])
            else:
                result = verdict(b_vals, n_vals, m["better"], m["bound"],
                                 b_q)
            if fails_more and result == "improved":
                result = "void"
            b_med = statistics.median(b_vals)
            n_med = statistics.median(n_vals)
            rows.append({
                "workload": name, "metric": metric, "unit": m["unit"],
                "base": b_med, "base_q": b_q, "new": n_med, "new_q": n_q,
                "ratio": n_med / b_med if b_med else float("nan"),
                "pairs": len(b_vals),
                "verdict": result})
    return rows


def render(rows) -> str:
    lines = []
    for row in rows:
        if "metric" not in row:
            (b_run, b_ladder), (n_run, n_ladder) = \
                row["base_fail_rates"], row["new_fail_rates"]
            lines.append(
                f"\n{row['workload']}: "
                + ("sim-identical" if row["sim_identical"]
                   else "simulation differs (sim_digest)")
                + f"  fail rate base {b_run:.4g} new {n_run:.4g}, "
                f"ladder base {b_ladder:.4g} new {n_ladder:.4g}"
                + ("  regressed: more operations fail, no gain counts"
                   if row["verdict"] == "regressed" else ""))
            continue
        lines.append(
            f"  {row['metric']:18s} "
            f"base {row['base']:.6g} [{row['base_q'][0]:.6g}, "
            f"{row['base_q'][1]:.6g}]  new {row['new']:.6g} "
            f"[{row['new_q'][0]:.6g}, {row['new_q'][1]:.6g}] "
            f"{row['unit']}  new/base {row['ratio']:.4f} "
            f"(base {row['base']:.6g})  n={row['pairs']}  "
            f"{row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) < 2 or len(args) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    pairs = [(load(args[i]), load(args[i + 1]))
             for i in range(0, len(args), 2)]
    rows = compare(pairs, spec)
    print(render(rows))
    if len(pairs) < MIN_PAIRS:
        print(f"\n{len(pairs)} pair(s): fewer than {MIN_PAIRS}, so no "
              "gain can be claimed from these runs.")
    return 1 if any(r.get("verdict") == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
